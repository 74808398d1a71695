"""Bracketed one-dimensional root finding and bounded minimisation.

Both solvers are Brent's (Brent 1973, *Algorithms for Minimization Without
Derivatives*, ch. 4 and 5). `root_1d` takes the steps of scipy.optimize.brentq
and `_bounded_brent` those of scipy's bounded minimize_scalar, one for one in
the same floating-point operations, so their results are bitwise equal to
scipy's while the package imports numpy only.
"""

from __future__ import annotations

import math
import sys

import numpy as np

ROOT_XTOL, ROOT_RTOL, ROOT_MAXITER = 2e-12, 4 * sys.float_info.epsilon, 100  # brentq's defaults
MINIMISE_XATOL, MINIMISE_MAXFUN = 1e-10, 500


def root_1d(f, a: float, b: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Raises ValueError when f returns NaN or the bracket does not change sign,
    and RuntimeError when ROOT_MAXITER steps do not converge.
    """
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; the solver cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_XTOL + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)  # else bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"failed to converge after {ROOT_MAXITER} iterations, value is {xcur!r}")


def _bounded_brent(f, a: float, b: float) -> tuple[float, float]:
    """(x, f(x)) from Brent's bounded minimisation on [a, b], with scipy's
    bounded minimize_scalar steps at xatol MINIMISE_XATOL and maxfun MINIMISE_MAXFUN."""
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fnfc = ffulc = f(xf)
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
        fu = f(x)
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


def minimise_1d(f, lo: float, hi: float, n_grid: int) -> tuple[float, float]:
    """(x, f(x)) minimising f on [lo, hi].

    f is evaluated on n_grid evenly spaced points including both ends, then
    bounded Brent refines between the neighbours of the best one. The grid
    point is kept when Brent does not improve on it, so a minimum on the
    box edge comes back as exactly lo or hi.
    """
    grid = np.linspace(lo, hi, n_grid)
    values = np.array([f(x) for x in grid])
    i = int(np.argmin(values))
    if not np.isfinite(values[i]):
        raise RuntimeError("the profile likelihood is not finite anywhere on its search grid")
    x, fx = _bounded_brent(f, float(grid[max(i - 1, 0)]), float(grid[min(i + 1, n_grid - 1)]))
    if fx < values[i]:
        return x, float(fx)
    return float(grid[i]), float(values[i])
