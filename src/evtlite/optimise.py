"""Bounded one-dimensional minimisation of profile likelihoods."""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar


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
    res = minimize_scalar(f, bounds=(grid[max(i - 1, 0)], grid[min(i + 1, n_grid - 1)]),
                          method="bounded", options={"xatol": 1e-10})
    if res.fun < values[i]:
        return float(res.x), float(res.fun)
    return float(grid[i]), float(values[i])
