"""Synthetic ensembles with analytically known event probabilities.

The generator builds a scalar daily series whose month-m marginal is exact:
a linear bulk on [0, u0(m)] carrying mass 1 - pi, and u0(m) plus a GP
excess carrying mass pi. Site columns are then constructed around that
scalar so its k-th smallest value reproduces the scalar exactly, which
keeps every per-day tail probability closed form.

Day-to-day dependence is an optional Gaussian AR(1) copula on the driving
uniforms; it changes joint behaviour but leaves the daily marginals (and
hence per-day probabilities) untouched.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .gpd import gp_cdf, gp_quantile
from .ingest import Calendar

U_CLIP = 1e-12  # driving uniforms are clipped to [U_CLIP, 1 - U_CLIP]


@dataclass
class SynthSpec:
    """Ground-truth parameters of a synthetic ensemble."""

    n_runs: int = 4
    n_days: int = 60225
    n_sites: int = 25
    order_k: int = 1
    pi: float = 0.05
    u0_by_month: np.ndarray = field(default_factory=lambda: np.full(12, 1.0))
    sigma_by_month: np.ndarray = field(default_factory=lambda: np.full(12, 0.5))
    xi: float = 0.0
    rho: float = 0.0  # AR(1) coefficient of the Gaussian copula driver
    calendar: Calendar = field(default_factory=Calendar)

    def __post_init__(self) -> None:
        self.u0_by_month = np.broadcast_to(np.asarray(self.u0_by_month, dtype=np.float64), (12,)).copy()
        self.sigma_by_month = np.broadcast_to(np.asarray(self.sigma_by_month, dtype=np.float64), (12,)).copy()
        if self.n_runs < 1 or self.n_days < 1 or self.n_sites < 1:
            raise ValueError("n_runs, n_days and n_sites must be >= 1")
        if not 1 <= self.order_k <= self.n_sites:
            raise ValueError(f"order_k must lie in 1..{self.n_sites}")
        if not 0.0 < self.pi < 1.0:
            raise ValueError("pi must lie in (0, 1)")
        scales = np.concatenate([self.u0_by_month, self.sigma_by_month])
        if not np.all(np.isfinite(scales) & (scales > 0.0)):
            raise ValueError("u0_by_month and sigma_by_month must be positive and finite")
        if not np.isfinite(self.xi):
            raise ValueError(f"xi must be finite, got {self.xi}")
        # the largest tail draw: the top month's u0 plus the GP quantile at the clipped uniform
        top_p = max(0.0, ((1.0 - U_CLIP) - (1.0 - self.pi)) / self.pi)
        top = np.max(self.u0_by_month) + gp_quantile(top_p, np.max(self.sigma_by_month), self.xi)
        if not np.isfinite(top):
            raise ValueError(f"xi {self.xi} with sigma up to {np.max(self.sigma_by_month)} and u0 up to "
                             f"{np.max(self.u0_by_month)} puts the largest tail draw at {top}; lower them")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")

    def to_dict(self) -> dict:
        return {
            "n_runs": self.n_runs, "n_days": self.n_days, "n_sites": self.n_sites,
            "order_k": self.order_k, "pi": self.pi,
            "u0_by_month": [float(v) for v in self.u0_by_month],
            "sigma_by_month": [float(v) for v in self.sigma_by_month],
            "xi": float(self.xi), "rho": float(self.rho),
            "month_lengths": list(self.calendar.month_lengths),
        }


def _ar1(eps: np.ndarray, rho: float) -> np.ndarray:
    """Stationary Gaussian AR(1) g_t = rho g_{t-1} + sqrt(1 - rho^2) eps_t with
    g_0 = eps_0, from iid standard normal eps.

    On Python floats each step rounds the product and the sum once, as
    scipy.signal.lfilter does, so the series equals the filter's bit for bit
    without importing scipy.signal (and with it scipy.stats).
    """
    rho = float(rho)
    steps = (np.sqrt(1.0 - rho ** 2) * eps[1:]).tolist()
    return np.fromiter(accumulate(steps, lambda prev, step: rho * prev + step, initial=float(eps[0])),
                       dtype=np.float64, count=eps.size)


def _driving_uniforms(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    from scipy.special import ndtr  # imported here so that only synth loads scipy

    eps = rng.standard_normal(spec.n_days)
    g = eps if spec.rho == 0.0 else _ar1(eps, spec.rho)
    u = ndtr(g)
    return np.clip(u, U_CLIP, 1.0 - U_CLIP)


def _scalar_series(spec: SynthSpec, months: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    u = _driving_uniforms(spec, rng)
    u0 = spec.u0_by_month[months - 1]
    sigma = spec.sigma_by_month[months - 1]
    bulk_mass = 1.0 - spec.pi
    tail = u > bulk_mass
    x = np.empty(spec.n_days)
    x[~tail] = u0[~tail] * (u[~tail] / bulk_mass)
    x[tail] = u0[tail] + gp_quantile((u[tail] - bulk_mass) / spec.pi, sigma[tail], spec.xi)
    return x


def generate_run(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """One synthetic run's (n_days, n_sites) values, whose per-day k-th smallest equals the scalar series."""
    months = spec.calendar.months_for(spec.n_days)
    x = _scalar_series(spec, months, rng)
    n, s, k = spec.n_days, spec.n_sites, spec.order_k
    cols = np.empty((n, s))
    if k > 1:
        cols[:, : k - 1] = x[:, None] * rng.uniform(0.2, 0.9, size=(n, k - 1))
    cols[:, k - 1] = x
    if k < s:
        bump = 0.01 + rng.uniform(0.0, 1.0, size=(n, s - k)) * (0.5 + 0.25 * x[:, None])
        cols[:, k:] = x[:, None] + bump
    order = np.argsort(rng.random((n, s)), axis=1)
    return np.take_along_axis(cols, order, axis=1)


def iter_ensemble(spec: SynthSpec, seed: int) -> Iterator[np.ndarray]:
    """The values of runs 1..n_runs, drawn in turn from one default_rng(seed) stream as they are asked for."""
    rng = np.random.default_rng(seed)
    for _ in range(spec.n_runs):
        yield generate_run(spec, rng)


def per_day_probability(spec: SynthSpec, target: float, month: int) -> float:
    """Exact P(summary > target) for a day in the given month."""
    u0 = spec.u0_by_month[month - 1]
    sigma = spec.sigma_by_month[month - 1]
    if target >= u0:
        return spec.pi * (1.0 - gp_cdf(target - u0, sigma, spec.xi))
    if target <= 0.0:
        return 1.0
    return 1.0 - (1.0 - spec.pi) * target / u0


def event_truth(spec: SynthSpec, target: float, n_days: int | None = None) -> dict:
    """Closed-form ground truth for the event {summary > target}.

    The any-day probability is exact only without temporal dependence
    (rho = 0) and is reported as None otherwise.
    """
    nd = spec.n_days if n_days is None else int(n_days)
    months = spec.calendar.months_for(nd)
    p_month = np.array([per_day_probability(spec, target, m) for m in range(1, 13)])
    p_day = p_month[months - 1]
    expected = float(p_day.sum())
    prob_any = float(1.0 - np.prod(1.0 - p_day)) if spec.rho == 0.0 else None
    return {
        "target": float(target),
        "n_days": nd,
        "per_day_by_month": [float(p) for p in p_month],
        "mean_per_day": float(p_day.mean()),
        "expected_count_per_run": expected,
        "prob_any_day": prob_any,
    }
