"""Conditional extreme value model for day-to-day extremal persistence.

The summary series is mapped to standard Laplace margins through the mixed
bulk/tail distribution. Conditionally on today's value x being above a high
threshold on that scale, tomorrow's value is modelled as

    beta0 * x + x**beta1 * Z,

with beta0 in [0, 1], beta1 < 1 and Z a residual with unspecified
distribution. The two-step fit first maximises a Gaussian working
likelihood for (beta0, beta1) plus a nuisance mean and scale, then drops the
Gaussian assumption and keeps the empirical residuals, smoothed at
sampling time by a Gaussian kernel with Silverman's bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gpd import MixedDistribution, mixed_cdf
from .optimise import minimise_1d

PROB_CLIP = 1e-10
BETA1_MIN = -5.0
BETA1_MAX = 1.0 - 1e-6


def laplace_quantile(p):
    """Standard Laplace quantile: log(2p) below the median, -log(2(1-p)) above."""
    scalar = np.ndim(p) == 0
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("p must lie in (0, 1)")
    out = np.where(p < 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))
    return float(out) if scalar else out


def laplace_cdf(y):
    scalar = np.ndim(y) == 0
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore"):
        out = np.where(y < 0.0, 0.5 * np.exp(y), 1.0 - 0.5 * np.exp(-y))
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
    b1, nll = minimise_1d(lambda b: _working_fit(b, x, y, log_x)[1], BETA1_MIN, BETA1_MAX, 61)
    b0 = _working_fit(b1, x, y, log_x)[0]
    residuals = (y - b0 * x) / x ** b1
    return CEVModel(
        beta0=b0, beta1=b1, q_threshold=float(q), residuals=residuals,
        kde_bandwidth=silverman_bandwidth(residuals), loglik=-nll,
    )


def fit_cev(laplace: np.ndarray, q_prob: float = 0.90, min_pairs: int = 100) -> CEVModel:
    """Fit the conditional tail model to consecutive-day pairs of a series on
    standard Laplace margins.

    The conditioning threshold is the q_prob quantile of the standard
    Laplace distribution; q_prob must exceed 0.5 so the threshold is
    positive (the power-law form needs positive conditioning values).
    """
    if not 0.5 < q_prob < 1.0:
        raise ValueError(f"q_prob must lie in (0.5, 1), got {q_prob}")
    q = float(laplace_quantile(q_prob))
    x_all = laplace[:-1]
    y_all = laplace[1:]
    keep = x_all > q
    if int(keep.sum()) < min_pairs:
        raise RuntimeError(f"only {int(keep.sum())} pairs exceed the threshold; need {min_pairs}")
    return fit_conditional_pairs(x_all[keep], y_all[keep], q)


@dataclass(frozen=True)
class StackedCEV:
    """Conditional tail models side by side: model j has parameters beta0[j], ...,
    kde_bandwidth[j] and residual pool residuals[offsets[j]:offsets[j] + sizes[j]]."""

    beta0: np.ndarray
    beta1: np.ndarray
    q_threshold: np.ndarray
    kde_bandwidth: np.ndarray
    residuals: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray


def stack_cev(models: list[CEVModel]) -> StackedCEV:
    sizes = np.array([m.residuals.size for m in models], dtype=np.int64)
    return StackedCEV(
        *(np.array([getattr(m, f) for m in models], dtype=np.float64)
          for f in ("beta0", "beta1", "q_threshold", "kde_bandwidth")),
        residuals=np.concatenate([m.residuals for m in models]),
        offsets=np.cumsum(sizes) - sizes, sizes=sizes,
    )


def sample_residuals(models: StackedCEV, j: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from the kernel-smoothed residual distribution of model j[i], for each i."""
    # floor(U * size) is uniform on 0..size-1 to within 2**-53 and, with
    # per-chain sizes, about twice as fast as rng.integers
    pick = models.offsets[j] + (rng.random(j.size) * models.sizes[j]).astype(np.int64)
    return models.residuals[pick] + models.kde_bandwidth[j] * rng.standard_normal(j.size)


def count_chains(models: StackedCEV, j: np.ndarray, y0: np.ndarray, target: np.ndarray,
                 rng: np.random.Generator, steps: int = 30) -> np.ndarray:
    """Whether each chain exceeds its target on two consecutive steps (step 0 included).

    Chain i follows model j[i] from y0[i] by Y_{k+1} = beta0 Y_k + Y_k**beta1 Z.
    A chain starting at or below its conditioning threshold never counts. A
    chain ends at a non-positive or non-finite value, which is still compared
    with the target (the power term is undefined there). Chains leave the
    batch once they end or count, so each step draws for live chains only.
    """
    counted = np.zeros(y0.size, dtype=bool)
    live = np.flatnonzero((y0 > models.q_threshold[j]) & (y0 > 0.0))
    y, j, t = y0[live], j[live], target[live]
    prev = y > t
    for _ in range(steps):
        if live.size == 0:
            break
        z = sample_residuals(models, j, rng)
        with np.errstate(invalid="ignore", over="ignore"):
            y = models.beta0[j] * y + y ** models.beta1[j] * z
        cur = y > t  # NaN compares False
        hit = prev & cur
        counted[live[hit]] = True
        keep = np.flatnonzero(~hit & (y > 0.0) & np.isfinite(y))  # indexing five arrays beats masking each
        live, y, j, t, prev = live[keep], y[keep], j[keep], t[keep], cur[keep]
    return counted
