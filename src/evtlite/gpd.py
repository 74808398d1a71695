"""Generalized Pareto tail models with month-varying parameters.

Cluster maxima minus their monthly threshold are modelled as GP excesses.
The log-scale varies freely by month; the shape is either a single shared
value or month-specific. The fitted tail joins the empirical bulk of the
full summary series into one mixed distribution whose tail weight is the
declustered exceedance rate.

Numerical policy: log(1 + xi * z / sigma) is evaluated through log1p and
the exponential branch takes over for |xi| < 1e-10, keeping the two
branches consistent to well below 1e-7 near xi = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decluster import ClusterSet
from .optimise import minimise_1d
from .summarise import SummarySeries
from .threshold import ThresholdModel

XI_ZERO_EPS = 1e-10
XI_MIN = -0.9
XI_MAX = 2.0
QQ_LEVEL = 0.95  # central coverage of qq_envelope's pointwise band
QQ_SAMPLES = 200  # simulated samples behind qq_envelope, drawn from default_rng(0)
MIN_MONTH_MAXIMA = 10  # fit_gp's by_month shape refuses a month with fewer cluster maxima
SCALE_RTOL = 4 * np.finfo(np.float64).eps  # a scale's Newton step below this share of it ends its solve
MMAP_THRESHOLD_VALUES = 128 * 1024 // 8  # float64 values in glibc's default 128 KiB mmap threshold

SHAPE_MODES = ("constant", "by_month")


def _all_scalar(*args) -> bool:
    return all(np.ndim(a) == 0 for a in args)


def gp_cdf(z, sigma, xi):
    """GP distribution function H(z; sigma, xi) for excesses z >= 0.

    Clamps to 1 at the upper support endpoint when xi < 0. Accepts scalars
    or broadcastable arrays.
    """
    scalar = _all_scalar(z, sigma, xi)
    z = np.maximum(np.asarray(z, dtype=np.float64), 0.0)
    sigma = np.asarray(sigma, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    if np.any(sigma <= 0.0):
        raise ValueError("sigma must be positive")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = xi * z / sigma
        exp_branch = -np.expm1(-z / sigma)
        gen_branch = -np.expm1(-np.log1p(np.maximum(t, -1.0)) / xi)
        out = np.where(
            np.abs(xi) < XI_ZERO_EPS,
            exp_branch,
            np.where(1.0 + t <= 0.0, 1.0, gen_branch),
        )
    return float(out) if scalar else out


def gp_quantile(p, sigma, xi):
    """Inverse of gp_cdf: the excess with non-exceedance probability p in [0, 1)."""
    scalar = _all_scalar(p, sigma, xi)
    p = np.asarray(p, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    if np.any(sigma <= 0.0):
        raise ValueError("sigma must be positive")
    if np.any(p < 0.0) or np.any(p >= 1.0):
        raise ValueError("p must lie in [0, 1)")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log1m = np.log1p(-p)
        exp_branch = -sigma * log1m
        gen_branch = sigma * np.expm1(-xi * log1m) / xi
        out = np.where(np.abs(xi) < XI_ZERO_EPS, exp_branch, gen_branch)
    return float(out) if scalar else out


@dataclass(frozen=True)
class GPModel:
    """Fitted GP tail: per-month log-scales and shapes; a constant shape is twelve equal ones."""

    log_sigma_by_month: np.ndarray  # (12,)
    shape_mode: str                 # "constant" or "by_month"
    xi_by_month: np.ndarray         # (12,)
    threshold_model: ThresholdModel
    loglik: float

    def __post_init__(self) -> None:
        ls = np.ascontiguousarray(self.log_sigma_by_month, dtype=np.float64)
        xi = np.ascontiguousarray(self.xi_by_month, dtype=np.float64)
        if ls.shape != (12,) or xi.shape != (12,):
            raise ValueError("log_sigma_by_month and xi_by_month must have 12 entries")
        if self.shape_mode not in SHAPE_MODES:
            raise ValueError(f"shape_mode must be one of {SHAPE_MODES}")
        if not (np.all(np.isfinite(ls)) and np.all(np.isfinite(xi))):
            raise ValueError("GP parameters must be finite")
        if self.shape_mode == "constant" and np.any(xi != xi[0]):
            raise ValueError("shape_mode constant needs twelve equal month shapes")
        object.__setattr__(self, "log_sigma_by_month", ls)
        object.__setattr__(self, "xi_by_month", xi)

    @property
    def sigma_by_month(self) -> np.ndarray:
        return np.exp(self.log_sigma_by_month)

    @property
    def at_bound(self) -> tuple:
        """Shapes on the edge of [XI_MIN, XI_MAX]: ("xi",), or "xi[m]" for each such month."""
        edge = (self.xi_by_month == XI_MIN) | (self.xi_by_month == XI_MAX)
        if self.shape_mode == "constant":
            return ("xi",) if edge[0] else ()
        return tuple(f"xi[{m}]" for m in np.flatnonzero(edge) + 1)


class _Profile:
    """The GP profile negative log-likelihood of excess groups, one scale each, whose
    shapes are shared within blocks of consecutive groups.

    For each group and shape xi > -1 the scale MLE s solves the score equation
    n = (1 + xi) phi(s), phi(s) = sum(z / (s + xi z)). On s + xi max(z) > 0 the
    reciprocal score psi(s) = 1 / phi(s) - (1 + xi) / n increases, is concave (1 / phi
    is a parallel sum of linear functions) and is non-negative at max(z), so Newton's
    method started at the bracket's left end, max(min(z), -xi max(z) (1 + 1e-12)),
    where psi <= 0, rises monotonically to the one root. Iterates are clipped to
    max(z), and each (shape, group) stops at its own convergence, so its scale does
    not depend on the other shapes and groups solved with it.
    """

    def __init__(self, groups: list[np.ndarray], shared: bool):
        sizes = [g.size for g in groups]
        self.z = np.concatenate(groups)
        self.n = np.array(sizes, dtype=np.float64)
        self.starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.group = np.repeat(np.arange(len(groups)), sizes)
        self.z_min = np.minimum.reduceat(self.z, self.starts)
        self.z_max = np.maximum.reduceat(self.z, self.starts)
        self.z_sum = np.add.reduceat(self.z, self.starts)
        self.shared = shared
        self.block = np.zeros(len(groups), dtype=np.intp) if shared else np.arange(len(groups))

    def scales(self, xi: np.ndarray) -> np.ndarray:
        """The (r, groups) scale MLEs at the (r, blocks) shapes xi."""
        xi = xi[:, self.block]
        xz = xi[:, self.group] * self.z
        s = np.maximum(self.z_min, -xi * self.z_max * (1.0 + 1e-12))
        c = (1.0 + xi) / self.n
        while True:
            den = s[:, self.group] + xz
            a = self.z / den
            phi = np.add.reduceat(a, self.starts, axis=1)
            a /= den
            step = phi * (c * phi - 1.0) / np.add.reduceat(a, self.starts, axis=1)  # -psi / psi'
            move = step > SCALE_RTOL * s
            if not move.any():
                return s
            s = np.where(move, np.minimum(s + step, self.z_max), s)

    def negloglik(self, xi: np.ndarray) -> np.ndarray:
        """The (r, blocks) profile negative log-likelihoods at the (r, blocks) shapes xi,
        in slabs of rows whose (rows, excesses) temporaries stay under malloc's mmap
        threshold, so that they reuse heap memory."""
        out = np.empty(xi.shape)
        rows = max(1, MMAP_THRESHOLD_VALUES // self.z.size)
        for i in range(0, xi.shape[0], rows):
            x = xi[i:i + rows]
            s = self.scales(x)
            x = x[:, self.block]
            small = np.abs(x) < XI_ZERO_EPS
            t = x[:, self.group] * self.z
            t /= s[:, self.group]
            tail = np.where(small, self.z_sum / s, (1.0 + 1.0 / np.where(small, 1.0, x))
                            * np.add.reduceat(np.log1p(t, out=t), self.starts, axis=1))
            per_group = self.n * np.log(s) + tail
            out[i:i + rows] = per_group.sum(axis=1, keepdims=True) if self.shared else per_group
        return out

    def fit(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(scales, shapes, negative log-likelihood) per group: the profile minimised over
        each block's shape in [XI_MIN, XI_MAX] by a 0.1-spaced grid refined by bounded Brent."""
        xi, nll = minimise_1d(self.negloglik, XI_MIN, XI_MAX, 30, 1 if self.shared else self.n.size)
        return self.scales(xi[None])[0], xi[self.block], float(nll.sum())


def _check_excesses(z: np.ndarray) -> None:
    """Refuse an excess sample that has no GP fit: empty, not positive, or all (numerically) equal."""
    if z.size == 0:
        raise RuntimeError("cannot fit a GP model to an empty sample")
    if np.any(z <= 0.0):
        raise ValueError("excesses must be positive")
    if float(np.ptp(z)) <= 1e-12 * max(1.0, float(np.max(z))):
        raise RuntimeError("degenerate excesses: all values are (numerically) equal")


def fit_gp_excesses(z: np.ndarray) -> tuple[float, float, float]:
    """Two-parameter GP maximum likelihood fit to a plain excess sample.

    Returns (sigma, xi, loglik) with xi box-constrained to [-0.9, 2.0].
    """
    z = np.asarray(z, dtype=np.float64)
    _check_excesses(z)
    sigma, xi, nll = _Profile([z], shared=True).fit()
    return float(sigma[0]), float(xi[0]), -nll


def fit_gp(cs: ClusterSet, thresholds: ThresholdModel, shape_mode: str = "constant") -> GPModel:
    """Maximum-likelihood GP fit to cluster-maximum excesses.

    Each month has its own scale. "constant" shares one xi across the twelve
    months and needs at least one maximum per month; "by_month" fits each
    month alone and needs at least MIN_MONTH_MAXIMA maxima in every month.
    Either way each block of months that shares a shape is one profiled fit.
    The shape is box-constrained to [-0.9, 2.0] to avoid the irregular-MLE
    region.
    """
    if shape_mode not in SHAPE_MODES:
        raise ValueError(f"shape_mode must be one of {SHAPE_MODES}")
    if cs.n_clusters == 0:
        raise RuntimeError("cannot fit a GP model: no day lies above its month's threshold "
                           f"at tau = {thresholds.tau}")
    months = cs.maxima_months
    counts = cs.month_cluster_counts
    floor = MIN_MONTH_MAXIMA if shape_mode == "by_month" else 1
    short = [m + 1 for m in range(12) if counts[m] < floor]
    if short:
        raise RuntimeError(f"months {short} have fewer than {floor} cluster maxima for shape_mode={shape_mode}")

    z = cs.maxima - thresholds.u_by_month[months - 1]
    groups = [z[months == m] for m in range(1, 13)]
    blocks = {"": groups} if shape_mode == "constant" else {f"month {m}: ": [g] for m, g in enumerate(groups, 1)}
    for where, block in blocks.items():
        try:
            _check_excesses(np.concatenate(block))
        except RuntimeError as exc:
            raise RuntimeError(f"{where}{exc}") from exc
    sigma, xi, nll = _Profile(groups, shared=shape_mode == "constant").fit()
    return GPModel(log_sigma_by_month=np.log(sigma), shape_mode=shape_mode, xi_by_month=xi,
                   threshold_model=thresholds, loglik=-nll)


@dataclass(frozen=True)
class MixedDistribution:
    """Empirical bulk below the monthly threshold, GP tail above it.

    The tail weight pi is the declustered exceedance rate. At the threshold
    the distribution function equals 1 - pi exactly; to keep the junction
    monotone the bulk branch is capped at 1 - pi (the model asserts that at
    most pi of the mass sits above the threshold, so the cap only binds
    where the pooled empirical bulk disagrees with the monthly threshold).
    """

    bulk_sorted: np.ndarray
    pi: float
    gp: GPModel
    bulk_by_month: tuple | None = None  # 12 sorted arrays for the month-conditional variant

    def __post_init__(self) -> None:
        if not 0.0 < self.pi < 1.0:
            raise ValueError(f"pi must lie in (0, 1), got {self.pi}")
        bulk = np.sort(np.asarray(self.bulk_sorted, dtype=np.float64))
        object.__setattr__(self, "bulk_sorted", bulk)


def build_mixed(series: SummarySeries, gp: GPModel, pi: float,
                month_conditional_bulk: bool = False) -> MixedDistribution:
    """Assemble the mixed distribution from the full (not declustered) series."""
    bulk_by_month = None
    if month_conditional_bulk:
        bulk_by_month = tuple(np.sort(series.values[series.months == m]) for m in range(1, 13))
    return MixedDistribution(bulk_sorted=series.values, pi=pi, gp=gp, bulk_by_month=bulk_by_month)


def _bulk_cdf(md: MixedDistribution, y: np.ndarray, month_index: np.ndarray) -> np.ndarray:
    """Empirical bulk distribution function at y, under 0-based months month_index."""
    if md.bulk_by_month is None:
        return np.searchsorted(md.bulk_sorted, y, side="right") / md.bulk_sorted.size
    out = np.empty(y.shape)
    for m, sample in enumerate(md.bulk_by_month):
        sel = month_index == m
        out[sel] = np.searchsorted(sample, y[sel], side="right") / sample.size
    return out


def mixed_cdf(md: MixedDistribution, y, month):
    """Distribution function of the mixed bulk/tail model.

    month (1..12) is a scalar or an array that broadcasts with y; each y is
    evaluated under its own month's threshold, tail and bulk.
    """
    month_index = np.asarray(month).astype(np.int64) - 1
    if np.any((month_index < 0) | (month_index > 11)):
        raise ValueError(f"month must lie in 1..12, got {month}")
    scalar = np.ndim(y) == 0 and month_index.ndim == 0
    y, month_index = np.broadcast_arrays(np.atleast_1d(np.asarray(y, dtype=np.float64)), month_index)
    u = md.gp.threshold_model.u_by_month[month_index]
    tail = y >= u
    tail_month = month_index[tail]
    out = np.empty(y.shape)
    out[tail] = 1.0 - md.pi * (1.0 - gp_cdf(y[tail] - u[tail], md.gp.sigma_by_month[tail_month],
                                            md.gp.xi_by_month[tail_month]))
    out[~tail] = np.minimum(_bulk_cdf(md, y[~tail], month_index[~tail]), 1.0 - md.pi)
    return float(out[0]) if scalar else out


def mixed_quantile(md: MixedDistribution, p: float, month: int) -> float:
    """Inverse of mixed_cdf: GP tail inverse above 1 - pi, bulk quantile below."""
    if not 1 <= int(month) <= 12:
        raise ValueError(f"month must lie in 1..12, got {month}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    month = int(month)
    u = md.gp.threshold_model.u_by_month[month - 1]
    if p >= 1.0 - md.pi:
        sigma = md.gp.sigma_by_month[month - 1]
        xi = md.gp.xi_by_month[month - 1]
        p_tail = max(0.0, 1.0 - (1.0 - p) / md.pi)  # clamp roundoff at the junction
        return float(u + gp_quantile(p_tail, sigma, xi))
    sample = md.bulk_sorted if md.bulk_by_month is None else md.bulk_by_month[month - 1]
    # exact inverse of the right-continuous step ECDF (inverted-cdf convention);
    # the 1e-9 slack absorbs ulp noise in p so sample points round-trip exactly
    k = int(np.ceil(p * sample.size - 1e-9))
    k = min(max(k, 1), sample.size)
    return float(min(sample[k - 1], u))


def qq_exponential(model: GPModel, cs: ClusterSet) -> np.ndarray:
    """QQ points on standard exponential margins for the fitted tail.

    Each excess z maps to -log(1 - H(z)); sorted values pair with the
    plotting positions -log(1 - j / (n + 1)). Returns an (n, 2) array of
    (theoretical, empirical) points.
    """
    z = cs.maxima - model.threshold_model.u_by_month[cs.maxima_months - 1]
    sigma = model.sigma_by_month[cs.maxima_months - 1]
    xi = model.xi_by_month[cs.maxima_months - 1]
    surv = np.clip(1.0 - gp_cdf(z, sigma, xi), 1e-300, None)
    empirical = np.sort(-np.log(surv))
    n = z.size
    theoretical = -np.log1p(-np.arange(1, n + 1) / (n + 1.0))
    return np.column_stack([theoretical, empirical])


def qq_envelope(n: int) -> np.ndarray:
    """Known-parameter envelope for the exponential QQ plot of n cluster maxima.

    If the fitted parameters were the true ones, the transformed excesses
    of qq_exponential would be n independent Exp(1) values. The envelope is
    the pointwise central QQ_LEVEL-quantiles of the sorted values of
    QQ_SAMPLES simulated Exp(1) samples of size n, drawn from the fixed
    stream default_rng(0). It needs no parameters and nothing is refitted,
    so the envelope leaves out estimation error and is narrower than a
    parametric-bootstrap one. Returns (n, 3) columns (theoretical, lower, upper).
    """
    sims = np.sort(-np.log1p(-np.random.default_rng(0).random((QQ_SAMPLES, n))), axis=1)
    alpha = 1.0 - QQ_LEVEL
    lower = np.quantile(sims, alpha / 2.0, axis=0)
    upper = np.quantile(sims, 1.0 - alpha / 2.0, axis=0)
    theoretical = -np.log1p(-np.arange(1, n + 1) / (n + 1.0))
    return np.column_stack([theoretical, lower, upper])
