"""Bounded one-dimensional minimisation of k independent problems in lockstep.

The refinement is Brent's bounded minimisation (Brent 1973, *Algorithms for
Minimization Without Derivatives*, ch. 5). `_bounded_brent` takes the steps of
scipy's bounded minimize_scalar one for one in the same floating-point
operations, so its result is bitwise equal to scipy's while the package imports
numpy only. `minimise_1d` runs one search per problem and evaluates the points
of all of them in one call; each search stops at its own convergence, so its
result does not depend on the problems that share its batch.
"""

from __future__ import annotations

import math

import numpy as np

MINIMISE_XATOL, MINIMISE_MAXFUN = 1e-10, 500


def _bounded_brent(a: float, b: float):
    """Brent's bounded minimisation on [a, b], with scipy's bounded minimize_scalar steps at
    xatol MINIMISE_XATOL and maxfun MINIMISE_MAXFUN, as a generator: it yields each point to
    evaluate, is sent the function's value there, and returns (x, f(x))."""
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fnfc = ffulc = yield xf
    rat = e = 0.0
    for _ in range(MINIMISE_MAXFUN - 1):  # one evaluation per step
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + MINIMISE_XATOL / 3.0
        tol2 = 2.0 * tol1
        if abs(xf - xm) <= tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = yield x
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
    return xf, fx


def minimise_1d(f, lo: float, hi: float, n_grid: int, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(x, f(x)), each of shape (k,), minimising k independent functions on [lo, hi].

    f maps an (r, k) array of points, row i holding one point for each problem,
    to their (r, k) values; column j's values depend on column j's points alone.
    Each problem is evaluated on n_grid evenly spaced points including both ends
    in one call, then bounded Brent refines between the neighbours of its best
    one, the k searches taking their steps together. The grid point is kept when
    Brent does not improve on it, so a minimum on the box edge comes back as
    exactly lo or hi.
    """
    grid = np.linspace(lo, hi, n_grid)
    values = f(np.repeat(grid[:, None], k, axis=1))
    i = np.argmin(values, axis=0)
    best = values[i, np.arange(k)]
    if not np.isfinite(best).all():
        raise RuntimeError("the profile likelihood is not finite anywhere on its search grid")
    searches = [_bounded_brent(float(grid[max(j - 1, 0)]), float(grid[min(j + 1, n_grid - 1)])) for j in i]
    points = [next(search) for search in searches]
    found = [None] * k
    while None in found:  # a search that has stopped evaluates its last point again
        fu = f(np.array([points]))[0]
        for j, search in enumerate(searches):
            if found[j] is None:
                try:
                    points[j] = search.send(float(fu[j]))
                except StopIteration as stop:
                    found[j] = stop.value
    x, fx = np.array(found).T
    keep = ~(fx < best)
    return np.where(keep, grid[i], x), np.where(keep, best, fx)
