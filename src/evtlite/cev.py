"""Conditional extreme value model for day-to-day extremal persistence.

The summary series is mapped to standard Laplace margins through the mixed
bulk/tail distribution. Conditionally on today's value x being above a high
threshold on that scale, tomorrow's value is modelled as

    beta0 * x + x**beta1 * Z,

with beta0 in [0, 1], beta1 < 1 and Z a residual with unspecified
distribution. The two-step fit first maximises a Gaussian working
likelihood for (beta0, beta1) plus a nuisance mean and scale, then drops the
Gaussian assumption and keeps the empirical residuals, smoothed by a
Gaussian kernel with Silverman's bandwidth. hit_probability runs it forward
as a Markov chain by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gpd import MixedDistribution, mixed_cdf
from .optimise import minimise_1d

PROB_CLIP = 1e-10
BETA1_MIN = -5.0
BETA1_MAX = 1.0 - 1e-6
Y_MAX = 30.0       # the chain quadrature's cells cover (0, Y_MAX]
CHAIN_STEPS = 30
CELL_WIDTH = 0.05
LOST_MASS_TOLERANCE = 1e-9  # estimate warns only of more lost mass; start mass above Y_MAX is ~1e-12
MIN_PAIRS = 100    # fit_cev refuses a series with fewer pairs above its threshold
Q_PROB = 0.90      # fit_cev conditions on days above this standard Laplace quantile


def laplace_quantile(p):
    """Standard Laplace quantile: log(2p) below the median, -log(2(1-p)) above."""
    scalar = np.ndim(p) == 0
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("p must lie in (0, 1)")
    out = np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))
    return float(out) if scalar else out


def to_laplace(md: MixedDistribution, y, month) -> np.ndarray:
    """Standard Laplace image of values y in months 1..12 (broadcast together):
    the mixed distribution's CDF, clipped to [1e-10, 1 - 1e-10], then the
    standard Laplace quantile."""
    return laplace_quantile(np.clip(mixed_cdf(md, y, month), PROB_CLIP, 1.0 - PROB_CLIP))


@dataclass(frozen=True)
class CEVModel:
    """Fitted conditional tail model plus its empirical residual pool."""

    beta0: float
    beta1: float
    q_threshold: float
    residuals: np.ndarray
    kde_bandwidth: float
    loglik: float

    def __post_init__(self) -> None:
        residuals = np.ascontiguousarray(self.residuals, dtype=np.float64)
        if residuals.ndim != 1 or residuals.size == 0 or not np.all(np.isfinite(residuals)):
            raise ValueError("the residual pool must be a non-empty 1-D array of finite values")
        if not 0.0 <= self.beta0 <= 1.0:  # NaN fails every comparison
            raise ValueError(f"beta0 must lie in [0, 1], got {self.beta0}")
        if not BETA1_MIN <= self.beta1 <= BETA1_MAX:
            raise ValueError(f"beta1 must lie in [{BETA1_MIN}, {BETA1_MAX}], got {self.beta1}")
        if not 0.0 < self.q_threshold < np.inf:
            raise ValueError(f"q_threshold must be positive and finite, got {self.q_threshold}")
        if not 0.0 <= self.kde_bandwidth < np.inf:
            raise ValueError(f"kde_bandwidth must be non-negative and finite, got {self.kde_bandwidth}")
        object.__setattr__(self, "residuals", residuals)

    @property
    def at_bound(self) -> tuple:
        """Parameters on the edge of their box, beta0 in [0, 1] and beta1 in [-5, 1 - 1e-6]."""
        return tuple(name for name, v, edges in (("beta0", self.beta0, (0.0, 1.0)),
                                                 ("beta1", self.beta1, (BETA1_MIN, BETA1_MAX)))
                     if v in edges)


def silverman_bandwidth(x: np.ndarray) -> float:
    """0.9 * min(sd, IQR / 1.34) * n**(-1/5)."""
    n = x.size
    if n < 2:
        return 0.0
    sd = float(np.std(x))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    return 0.9 * min(sd, (q75 - q25) / 1.34) * n ** (-0.2)


def _working_fit(beta1: float, x: np.ndarray, y: np.ndarray, log_x: np.ndarray) -> tuple[float, float]:
    """(beta0, negative log-likelihood) of the Gaussian working model
    y = beta0 x + x**beta1 (mu + sigma eps) at a fixed beta1, with beta0, mu
    and sigma profiled out.

    Divided by t = x**beta1 the model is an OLS regression of y / t on x / t
    and a constant. Its sum of squares is a convex quadratic in beta0 once mu
    is profiled out, so clamping the OLS slope to [0, 1] gives the
    constrained optimum; sigma**2 = RSS / n, floored at the smallest positive
    double so that an exact fit (RSS = 0) keeps a finite profile.
    """
    t = np.exp(beta1 * log_x)
    a, b = x / t, y / t
    a, b = a - a.mean(), b - b.mean()
    beta0 = min(max(float(np.dot(a, b) / np.dot(a, a)), 0.0), 1.0)
    r = b - beta0 * a
    var = max(float(np.dot(r, r)) / x.size, np.finfo(np.float64).tiny)
    return beta0, beta1 * float(np.sum(log_x)) + 0.5 * x.size * (np.log(2.0 * np.pi * var) + 1.0)


def fit_conditional_pairs(x: np.ndarray, y: np.ndarray, q: float) -> CEVModel:
    """Two-step fit on explicit (x, y) pairs with x > q > 0.

    Step one maximises the Gaussian working likelihood over (beta0, beta1)
    plus a nuisance mean and scale, by profiling: everything but beta1 has
    a closed form, and the profile is minimised over beta1 in [-5, 1 - 1e-6]
    (Heffernan & Tawn 2004). Step two recomputes the residuals
    (y - beta0 * x) / x**beta1 without the nuisance parameters.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size == 0:
        raise ValueError("x and y must be non-empty and the same length")
    if q <= 0.0 or np.any(x <= q):
        raise ValueError("conditioning values must exceed a positive threshold q")

    log_x = np.log(x)
    def profile(b):  # minimise_1d's one column of beta1 values
        return np.array([[_working_fit(v, x, y, log_x)[1]] for v in b[:, 0].tolist()])

    b1, nll = (float(v[0]) for v in minimise_1d(profile, BETA1_MIN, BETA1_MAX, 61))
    b0 = _working_fit(b1, x, y, log_x)[0]
    residuals = (y - b0 * x) / x ** b1
    return CEVModel(
        beta0=b0, beta1=b1, q_threshold=float(q), residuals=residuals,
        kde_bandwidth=silverman_bandwidth(residuals), loglik=-nll,
    )


def fit_cev(laplace: np.ndarray) -> CEVModel:
    """Fit the conditional tail model to consecutive-day pairs of a series on
    standard Laplace margins, above the Q_PROB quantile of the standard
    Laplace distribution."""
    q = float(laplace_quantile(Q_PROB))
    x_all = laplace[:-1]
    y_all = laplace[1:]
    keep = x_all > q
    if int(keep.sum()) < MIN_PAIRS:
        raise RuntimeError(f"only {int(keep.sum())} pairs exceed the threshold; need {MIN_PAIRS}")
    return fit_conditional_pairs(x_all[keep], y_all[keep], q)


def residual_law(model: CEVModel):
    """(F, U): the CDF F of the kernel-smoothed residuals Z and their expected excess
    U(z) = E[(Z - z)+], as vectorised functions; exact at zero bandwidth. Else the
    residuals are binned linearly at h/20 (coarser past 50,000 bandwidths of
    spread), convolved with Phi out to 8 bandwidths and U summed by trapezoids,
    each interpolated linearly."""
    r, h = np.sort(model.residuals), model.kde_bandwidth
    if h == 0.0:
        above = np.concatenate([np.cumsum(r[::-1])[::-1], [0.0]])  # above[i] = sum(r[i:])

        def excess(z):
            i = np.searchsorted(r, z, side="right")
            return (above[i] - (r.size - i) * z) / r.size
        return (lambda z: np.searchsorted(r, z, side="right") / r.size), excess
    per_h = min(20.0, (1 << 20) / ((r[-1] - r[0]) / h + 20.0))  # grid steps per bandwidth
    half = int(math.ceil(8.0 * per_h))
    step = h / per_h
    lo = r[0] - (half + 1) * step
    size = int((r[-1] - lo) / step) + half + 3
    x = (r - lo) / step
    k = x.astype(np.int64)
    w = (np.bincount(k, 1.0 - (x - k), size) + np.bincount(k + 1, x - k, size)) / r.size
    phi = [0.5 * math.erfc(-j / per_h / math.sqrt(2.0)) for j in range(-half, half + 1)]
    # bins more than 8 bandwidths below a grid point add their whole weight
    below = np.concatenate([np.zeros(half + 1), np.cumsum(w)[:size - half - 1]])
    cdf = np.convolve(w, phi)[half:half + size] + below
    grid = lo + step * np.arange(size)
    tail = np.append(np.cumsum((step - 0.5 * step * (cdf[1:] + cdf[:-1]))[::-1])[::-1], 0.0)
    return (lambda z: np.interp(z, grid, cdf, left=0.0, right=1.0),
            lambda z: np.interp(z, grid, tail, right=0.0) + np.maximum(lo - z, 0.0))


def hit_probability(model: CEVModel, start_floor: float, targets, width: float = CELL_WIDTH):
    """(P, lost): for each target t, the probability P that a chain of the model
    exceeds t on two consecutive steps (step 0 included) within CHAIN_STEPS
    steps, and the mass the quadrature loses above Y_MAX.

    The chain starts at start_floor + Exp(1), counts only from above the
    threshold, steps by Y' = beta0 Y + Y**beta1 Z and ends at Y <= 0, which is
    still compared with t. Its law moves over cells of (0, Y_MAX] cut every
    width and at the threshold, start_floor and each t, and, at zero bandwidth,
    at width / 2**j, j = 1..40: the first cell keeps its midpoint, but the point
    masses of an unsmoothed pool can hold mass far below that midpoint or make
    it leap from anywhere in the cell (beta1 < 0). A cell steps above
    c w.p. 1 - F(z), z = (c - beta0 y) / y**beta1, at its midpoint y, or, where
    the kernel is narrower than the cell (y**beta1 h < width) and a midpoint
    would pin mass that moves less, averaged over the cell by U's difference
    quotient. Mass above t stepping above t counts and leaves. All targets
    move in two block products per step: cells from the highest target up lie
    above every target, so mass not above a target, 0 there, needs only the
    kernel's rows below them, and mass above a target only its columns below
    them, as what steps into them counts and leaves. Mass stepping above
    Y_MAX from below t, and start mass above Y_MAX, is lost: P reads low by up
    to it.
    """
    targets = np.asarray(targets, dtype=np.float64)
    n, (cdf, excess), b0, b1 = targets.size, residual_law(model), model.beta0, model.beta1
    cuts = [v for v in (model.q_threshold, start_floor, *targets) if 0.0 < v < Y_MAX]
    if model.kde_bandwidth == 0.0:
        cuts += list(width * 0.5 ** np.arange(1, 41))
    edges = np.unique(np.concatenate([np.linspace(0.0, Y_MAX, int(round(Y_MAX / width)) + 1), cuts]))
    points, cells = np.concatenate([edges, targets]), edges.size - 1

    def arg(y, c):  # z of each source y (rows) and point c (columns)
        # y**-beta1 overflows only next to 0; capped, it keeps z = 0 where c = beta0 y
        return np.subtract.outer(c, b0 * y).T * np.minimum(y ** -b1, np.finfo(np.float64).max)[:, None]

    def exceed(first, last, c):
        """P(Y' > c) from cells first..last - 1."""
        lower, upper = edges[first:last], edges[first + 1:last + 1]
        mid = 0.5 * (lower + upper)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            up = 1.0 - cdf(arg(mid, c))
            # NaN (0 * inf at h = 0) is narrow; cell 0 keeps its midpoint, as y**beta1 is singular at 0
            narrow = np.flatnonzero(~(model.kde_bandwidth * mid ** b1 >= width) & (lower > 0.0))
            zl, zu = arg(lower[narrow], c), arg(upper[narrow], c)
            mean = (excess(zl) - excess(zu)) / (zu - zl)
        # where z barely moves over the cell, the quotient would be rounding; where z
        # overflows at an edge next to 0, it is inf / inf or U(inf) is 0 * inf
        up[narrow] = np.where((np.abs(zu - zl) > 1e-6 * (1.0 + np.abs(zu))) & np.isfinite(mean), mean, up[narrow])
        return up

    # cells from top on lie above every target; forming only the kernel's rows and columns
    # below top keeps these tables' temporaries, the estimate's peak memory, small
    top = min(int(np.searchsorted(edges, targets.max())), cells)
    head = exceed(0, top, points)
    tail = exceed(top, cells, np.concatenate([edges[:top + 1], targets]))
    rows = head[:, :cells] - head[:, 1:cells + 1]  # kernel[:top, :]
    cols = np.vstack([rows[:, :top], tail[:, :top] - tail[:, 1:top + 1]])  # kernel[:, :top]
    overflow, counts = head[:, cells].copy(), np.hstack([head[:, cells + 1:].T, tail[:, top + 1:].T])
    surv = np.exp(np.minimum(0.0, start_floor - edges))
    above = edges[:-1] >= targets[:, None]
    above_top = above[:, :top]
    start = np.where(edges[:-1] >= model.q_threshold, surv[:-1] - surv[1:], 0.0)
    hi, lo = np.where(above, start, 0.0), np.where(above_top, 0.0, start[:top])  # above, not above each target
    p, lost = np.zeros(n), np.full(n, surv[-1])
    for _ in range(CHAIN_STEPS):
        p += np.einsum("mj,mj->m", hi, counts)
        lost += lo @ overflow
        moved = lo @ rows
        moved[:, :top] += np.where(above_top, 0.0, hi @ cols)
        hi, lo = np.where(above, moved, 0.0), np.where(above_top, 0.0, moved[:, :top])
    return p, lost
