"""Per-run emulators and the combination of fitted models into estimates.

Each run contributes a generative emulator (threshold + GP tail, plus the
mixed distribution and the conditional tail model for the persistence
question). A synthetic ensemble has n_srun synthetic runs, each on an
emulator picked uniformly; its statistic is the mean count per run, e_bar.
Point and interval estimates are the mean and central quantiles of e_bar.

The law of e_bar is exact and nothing is simulated. By thinning, a run's
count on emulator r is sum_m Binomial(n_days_m, pi_hat * S_m(target - u_m)),
with S_m the month-m GP survivor function, for the marginal questions, and
Poisson(sum_m month_rate[r, m] P[r, m]) for the persistence question, where
P[r, m] is the chance that a cluster's chain counts (hit_probability). One
run's pmf is the inverse DFT of the mean over emulators of its
characteristic function, and an ensemble's total is its n_srun-th
convolution power, one FFT power. Only the n_sim draws of e_bar are random,
from the stream default_rng(SeedSequence(seed, spawn_key=(0,))).
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, replace

import numpy as np

from . import decluster
from .cev import CELL_WIDTH, CEVModel, fit_cev, hit_probability, to_laplace
from .decluster import ClusterSet, run_decluster
from .gpd import GPModel, MixedDistribution, build_mixed, fit_gp, gp_cdf
from .ingest import Calendar
from .summarise import SummarySeries
from .threshold import ThresholdModel, fit_threshold

ARTIFACT_SCHEMA = "evtlite-emulator-v2"


@dataclass(frozen=True)
class QuestionSpec:
    order_k: int
    target: float
    shape_mode: str
    uses_chain: bool


QUESTIONS = {
    "q1": QuestionSpec(order_k=1, target=1.7, shape_mode="by_month", uses_chain=False),
    "q2": QuestionSpec(order_k=20, target=5.7, shape_mode="constant", uses_chain=False),
    "q3": QuestionSpec(order_k=23, target=5.0, shape_mode="constant", uses_chain=True),
}


@dataclass(frozen=True)
class RunEmulator:
    """All fitted components of one run for one question, sharing the same summary series."""

    run_id: int
    question: str
    order_k: int
    months: np.ndarray        # per-day month labels of the source run, shared read-only
    series_values: np.ndarray  # summary series the models were fitted on
    threshold_model: ThresholdModel
    gp_model: GPModel
    mixed: MixedDistribution | None  # the persistence question's alone: its Laplace margins
    cluster_set: ClusterSet
    cev_model: CEVModel | None = None


def pack_floats(a: np.ndarray) -> str:
    """Base64 text of an array's little-endian float64 bytes; unpack_floats inverts it exactly."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def unpack_floats(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8").astype(np.float64, copy=False)


def emulator_to_dict(emulator: RunEmulator, calendar: Calendar) -> dict:
    """The artifact of one fitted run; this and emulator_from_dict alone know its schema.
    Months are stored as the calendar and clusters as the run length, and
    emulator_from_dict rebuilds both with the fit's own code."""
    n_days = emulator.months.size
    if not np.array_equal(calendar.months_for(n_days), emulator.months):
        raise ValueError("the calendar does not give the emulator's months")
    tm, gp, cev = emulator.threshold_model, emulator.gp_model, emulator.cev_model
    return {
        "schema": ARTIFACT_SCHEMA,
        "run_id": emulator.run_id,
        "question": emulator.question,
        "order_k": emulator.order_k,
        "n_days": n_days,
        "month_lengths": list(calendar.month_lengths),
        "values": pack_floats(emulator.series_values),
        "month_conditional_bulk": emulator.mixed is not None and emulator.mixed.bulk_by_month is not None,
        "run_length_l": emulator.cluster_set.run_length_l,
        "threshold": {
            "tau": float(tm.tau),
            "u_by_month": tm.u_by_month.tolist(),
            "log_zeta_by_month": tm.log_zeta_by_month.tolist(),
            "loglik": float(tm.loglik),
        },
        "gp": {
            "log_sigma_by_month": gp.log_sigma_by_month.tolist(),
            "shape_mode": gp.shape_mode,
            "xi": float(gp.xi_by_month[0]) if gp.shape_mode == "constant" else gp.xi_by_month.tolist(),
            "loglik": float(gp.loglik),
            "at_bound": list(gp.at_bound),
        },
        "cev": None if cev is None else {
            "beta0": float(cev.beta0),
            "beta1": float(cev.beta1),
            "q_threshold": float(cev.q_threshold),
            "kde_bandwidth": float(cev.kde_bandwidth),
            "residuals": pack_floats(cev.residuals),
            "loglik": float(cev.loglik),
            "at_bound": list(cev.at_bound),
        },
    }


def emulator_from_dict(d: dict) -> RunEmulator:
    """Inverse of emulator_to_dict; the models' own checks convert and validate the stored arrays."""
    if not isinstance(d, dict):
        raise ValueError(f"malformed artifact: a JSON {type(d).__name__}, not an object")
    if d.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(f"artifact schema {d.get('schema')!r} is not {ARTIFACT_SCHEMA!r}; "
                         "refit the runs with this version")
    try:
        series = SummarySeries(run_id=int(d["run_id"]), order_k=int(d["order_k"]),
                               values=unpack_floats(d["values"]),
                               months=Calendar(tuple(d["month_lengths"])).months_for(int(d["n_days"])))
        t, g, c = d["threshold"], d["gp"], d["cev"]
        tm = ThresholdModel(tau=float(t["tau"]), u_by_month=t["u_by_month"],
                            log_zeta_by_month=t["log_zeta_by_month"], loglik=float(t["loglik"]))
        xi = np.full(12, g["xi"], dtype=np.float64) if g["shape_mode"] == "constant" else g["xi"]
        gp = GPModel(log_sigma_by_month=g["log_sigma_by_month"], shape_mode=g["shape_mode"],
                     xi_by_month=xi, threshold_model=tm, loglik=float(g["loglik"]))
        cev = None if c is None else CEVModel(
            beta0=float(c["beta0"]), beta1=float(c["beta1"]), q_threshold=float(c["q_threshold"]),
            residuals=unpack_floats(c["residuals"]), kde_bandwidth=float(c["kde_bandwidth"]),
            loglik=float(c["loglik"]))
        run_length, bulk, question = int(d["run_length_l"]), bool(d["month_conditional_bulk"]), str(d["question"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed artifact: {exc!r}") from None
    if question not in QUESTIONS:
        raise ValueError(f"malformed artifact: question {question!r} is not one of {sorted(QUESTIONS)}")
    uses_chain = QUESTIONS[question].uses_chain
    if (cev is None) == uses_chain:
        raise ValueError(f"malformed artifact: question {question} {'needs a' if cev is None else 'takes no'} cev")
    if bulk and not uses_chain:
        raise ValueError(f"malformed artifact: question {question} takes no month-conditional bulk")
    # through the module: perfbench traces this module's run_decluster as the fit's stage
    cs = decluster.run_decluster(series, tm, l=run_length)
    if cs.n_clusters == 0:
        raise ValueError("the series never exceeds its thresholds, so the run has no clusters; "
                         "fit does not write such a run")
    mixed = build_mixed(series, gp, pi=cs.pi_star_hat, month_conditional_bulk=bulk) if uses_chain else None
    return RunEmulator(run_id=series.run_id, question=question, order_k=series.order_k,
                       months=series.months, series_values=series.values, threshold_model=tm,
                       gp_model=gp, mixed=mixed, cluster_set=cs, cev_model=cev)


@dataclass(frozen=True)
class CombinedEstimates:
    """Cross-run means of the declustered rate and the extremal index."""

    pi_hat: float
    theta_hat: float


@dataclass
class SimulationConfig:
    """Settings for the estimate over synthetic ensembles.

    n_days simulates runs shorter than the fitted ones (counts then refer
    to that window); None uses the full fitted run length. rate_mode turns
    the per-run count into an occurred/not indicator. The persistence
    question's chains run over whole runs, so it takes no n_days. Estimates
    are exact; n_sim and seed only set the draws of e_bar the result carries.
    """

    question: str
    target_level: float | None = None
    n_sim: int = 10_000
    n_srun: int = 50
    seed: int = 0
    alpha: float = 0.05
    rate_mode: bool = False
    n_days: int | None = None

    def __post_init__(self) -> None:
        if self.question not in QUESTIONS:
            raise ValueError(f"question must be one of {sorted(QUESTIONS)}, got {self.question!r}")
        if self.target_level is not None and not np.isfinite(self.target_level):
            raise ValueError(f"target_level must be a finite number, got {self.target_level}")
        if self.n_sim < 1 or self.n_srun < 1:
            raise ValueError("n_sim and n_srun must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.n_days is not None and self.n_days < 1:
            raise ValueError("n_days must be >= 1 when given")
        if QUESTIONS[self.question].uses_chain and self.n_days is not None:
            raise ValueError(f"question {self.question} simulates whole runs, so it takes no n_days")

    @property
    def target(self) -> float:
        """The raw target level: target_level, or else the question's own."""
        return QUESTIONS[self.question].target if self.target_level is None else self.target_level


@dataclass(frozen=True)
class EstimateResult:
    """Point and interval estimate of e_bar with n_sim draws of it, from an exact
    law: law_tail_mass is what the law's table leaves out. The run's cut drops at
    most e^-45 (Bernstein), so it is the FFT's rounding, about 1e-15, and its
    bytes follow the BLAS build for q3. q3 also
    reports the largest change of a counting probability P[r, m] from cells twice
    as wide, and the largest mass lost above the cells (ChainLaw)."""

    point: float
    ci_low: float
    ci_high: float
    ebar_samples: np.ndarray
    law_tail_mass: float
    quadrature_error: float | None = None
    quadrature_lost_mass: float | None = None


def combine_rates(emulators: list[RunEmulator], names: list[str] | None = None) -> CombinedEstimates:
    """Arithmetic means of the per-run declustered rates and extremal indices.

    The one check of which emulators share an estimate: there must be at
    least one, and all must share their question, order statistic and per-day
    months (day count and calendar). names labels the emulators in its errors
    (default: position and run id). Every emulator has a cluster, so its
    extremal index is defined.
    """
    if not emulators:
        raise ValueError("nothing to combine: no emulators given")
    if names is None:
        names = [f"emulator {i}, run {e.run_id}" for i, e in enumerate(emulators, start=1)]
    ref = emulators[0]
    for name, e in zip(names[1:], emulators[1:]):
        if (e.question, e.order_k) != (ref.question, ref.order_k) or not np.array_equal(e.months, ref.months):
            fitted = [f"question {x.question}, k = {x.order_k}, {x.months.size} days" for x in (e, ref)]
            raise ValueError(f"{name} ({fitted[0]}) does not match {names[0]} ({fitted[1]}) in question, "
                             "order statistic k, length or calendar")
    pi_hat = float(np.mean([e.cluster_set.pi_star_hat for e in emulators]))
    theta_hat = float(np.mean([e.cluster_set.theta_hat for e in emulators]))
    return CombinedEstimates(pi_hat=pi_hat, theta_hat=theta_hat)


def _times_log(n, log_x):
    """n * log_x, 0 where n is 0 (also where log_x is -inf)."""
    return n * np.where(n == 0, 0.0, log_x)


def _dft_grid(k_max: int):
    """(size, sin^2(t/2), sin t) on the grid of an inverse rfft of length 2**bit_length(k_max)."""
    size = 1 << k_max.bit_length()
    t = 2.0 * np.pi * np.arange(size // 2 + 1) / size
    return size, np.sin(t / 2.0) ** 2, np.sin(t)


@dataclass(frozen=True)
class MarginalSampler:
    """Per-emulator tables for the marginal questions (q1, q2).

    A day hosts a threshold exceedance with probability pi_hat and its GP
    excess passes the target with probability S_m(target - u_m), so by
    thinning a run's count is exactly sum_m Binomial(days[r, m], p[r, m]).
    """

    days: np.ndarray  # (n_emulators, 12) simulated days per month
    p: np.ndarray     # (n_emulators, 12) per-day probability of a target exceedance

    def run_pmf(self, rate_mode: bool = False) -> np.ndarray:
        """P(count = k), k = 0..K, of one run on a uniformly picked emulator; in rate
        mode the count is whether the run saw an event. Otherwise K = max_r (mean_r
        + 12 sd_r) + 30, and the pmf is the inverse rfft of the mean over emulators
        of prod_m (1 - p + p e^-it)^d, each factor in modulus/argument form:
        log|phi| = d/2 log1p(-4 p (1 - p) sin^2(t/2)), arg phi = d atan2(-p sin t, 1 - 2 p sin^2(t/2)).
        """
        days, p = self.days, self.p
        if rate_mode:
            with np.errstate(divide="ignore"):
                log_none = np.sum(_times_log(days, np.log1p(-p)), axis=1)
            hit = float(np.mean(-np.expm1(log_none)))
            return np.array([1.0 - hit, hit])
        mean, var = np.sum(days * p, axis=1), np.sum(days * p * (1.0 - p), axis=1)
        k_max = int(min(np.ceil(np.max(mean + 12.0 * np.sqrt(var))) + 30, np.max(days.sum(axis=1))))
        size, sin2, sin_t = _dft_grid(k_max)
        d, p = days[..., None], p[..., None]
        with np.errstate(divide="ignore"):  # |phi| is 0 at p = 1/2, t = pi
            log_mod = _times_log(d / 2.0, np.log1p(-4.0 * p * (1.0 - p) * sin2))
        arg = d * np.arctan2(-p * sin_t, 1.0 - 2.0 * p * sin2)
        cf = np.exp(log_mod.sum(axis=1) + 1j * arg.sum(axis=1)).mean(axis=0)
        return np.fft.irfft(cf, n=size)[:k_max + 1]


def marginal_sampler(emulators: list[RunEmulator], pi_hat: float, target: float,
                     n_days: int | None = None) -> MarginalSampler:
    """Tables for runs of n_days simulated days (None: the fitted length).

    The target must sit above every monthly threshold, where the GP tail
    starts: the tables hold no law for the days below it.
    """
    highest = max(float(np.max(e.threshold_model.u_by_month)) for e in emulators)
    if target <= highest:
        raise ValueError(f"target {target} is not above the highest fitted monthly threshold {highest:.4f}; "
                         "estimate a higher --target, or refit at a lower --tau")
    days, p = [], []
    for e in emulators:
        u = e.threshold_model.u_by_month
        if n_days is not None and n_days > e.months.size:
            raise ValueError(f"n_days={n_days} exceeds the fitted run length {e.months.size}")
        days.append(np.bincount(e.months[:n_days] - 1, minlength=12))
        p.append(pi_hat * (1.0 - gp_cdf(target - u, e.gp_model.sigma_by_month, e.gp_model.xi_by_month)))
    return MarginalSampler(days=np.array(days), p=np.array(p))


@dataclass(frozen=True)
class ChainLaw:
    """Per-emulator tables for the persistence question (q3). A run has Poisson(
    month_rate[r, m]) clusters in month m, each counting with probability
    p[r, m], so by thinning its count is Poisson(lam[r] = sum_m month_rate p)."""

    month_rate: np.ndarray  # (n_emulators, 12) observed clusters per month
    p: np.ndarray           # (n_emulators, 12) probability that a cluster counts
    quadrature_error: float
    quadrature_lost_mass: float

    def run_pmf(self, rate_mode: bool = False) -> np.ndarray:
        """As MarginalSampler.run_pmf, with the Poisson characteristic function
        exp(-2 lam sin^2(t/2) - i lam sin t) and K = max_r (lam_r + 12 sqrt(lam_r)) + 30."""
        lam = np.sum(self.month_rate * self.p, axis=1)
        if rate_mode:
            hit = float(np.mean(-np.expm1(-lam)))
            return np.array([1.0 - hit, hit])
        k_max = int(np.ceil(np.max(lam + 12.0 * np.sqrt(lam)))) + 30
        size, sin2, sin_t = _dft_grid(k_max)
        cf = np.exp(-lam[:, None] * (2.0 * sin2 + 1j * sin_t)).mean(axis=0)
        return np.fft.irfft(cf, n=size)[:k_max + 1]


def chain_law(emulators: list[RunEmulator], target: float) -> ChainLaw:
    """Tables for the persistence question at a raw target level. A chain starts at
    a GP exceedance, x0 = u + gp_quantile(V), in the tail branch 1 - pi (1 - H) of
    the mixed distribution: on the Laplace scale -log(2 pi) + Exp(1). Each month's
    target is the raw one on the emulator's own Laplace scale. The error is p's
    largest change from cells twice as wide."""
    p, error, lost = [], 0.0, 0.0
    for e in emulators:
        if e.cev_model is None:
            raise ValueError(f"run {e.run_id}: the persistence question needs a conditional tail model")
        start, targets = -np.log(2.0 * e.mixed.pi), to_laplace(e.mixed, target, np.arange(1, 13))
        fine, fine_lost = hit_probability(e.cev_model, start, targets, CELL_WIDTH)
        coarse, _ = hit_probability(e.cev_model, start, targets, 2.0 * CELL_WIDTH)
        p.append(fine)
        error, lost = max(error, float(np.max(np.abs(fine - coarse)))), max(lost, float(np.max(fine_lost)))
    rate = np.array([e.cluster_set.month_cluster_counts for e in emulators], dtype=np.float64)
    return ChainLaw(month_rate=rate, p=np.array(p), quadrature_error=error, quadrature_lost_mass=lost)


def count_law(sampler: MarginalSampler | ChainLaw, n_srun: int, rate_mode: bool = False) -> np.ndarray:
    """P(S = s), s = 0..n_srun K, of the total count S of n_srun synthetic runs, each
    on a uniformly picked emulator: the n_srun-th convolution power of
    sampler.run_pmf, one FFT power, with rounding noise clipped at 0."""
    run = sampler.run_pmf(rate_mode)
    k_max = run.size - 1
    size = 1 << (n_srun * k_max).bit_length()
    law = np.fft.irfft(np.fft.rfft(run, n=size) ** n_srun, n=size)[:n_srun * k_max + 1]
    return np.maximum(law, 0.0)


def law_estimate(sampler: MarginalSampler | ChainLaw, config: SimulationConfig) -> EstimateResult:
    """Point and interval of e_bar = S / n_srun from the exact law of S (count_law):
    the law's mean, and s / n_srun at the smallest s whose CDF reaches alpha/2 and
    1 - alpha/2. A cluster counts once, so the declustered rate and the GP of
    cluster maxima carry the clustering and no extremal index enters. The
    samples are n_sim inverse-CDF draws of S from the stream of spawn key 0."""
    law = count_law(sampler, config.n_srun, config.rate_mode)
    ebar = np.arange(law.size) / config.n_srun
    cdf = np.cumsum(law)
    last = law.size - 1
    lo, hi = np.minimum(np.searchsorted(cdf, [config.alpha / 2.0, 1.0 - config.alpha / 2.0]), last)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    s = np.minimum(np.searchsorted(cdf, rng.random(config.n_sim), side="right"), last)
    return EstimateResult(point=float(ebar @ law), ci_low=float(ebar[lo]), ci_high=float(ebar[hi]),
                          ebar_samples=ebar[s], law_tail_mass=max(0.0, 1.0 - float(cdf[-1])))


def monte_carlo_estimate(emulators: list[RunEmulator], config: SimulationConfig,
                         combined: CombinedEstimates) -> EstimateResult:
    """The estimate of config.question over synthetic ensembles of n_srun runs, each
    run on a uniformly picked emulator, from the exact law of the ensemble's count
    (law_estimate), from emulators fitted for config.question."""
    if not emulators:
        raise ValueError("at least one emulator is required")
    if other := sorted({e.question for e in emulators} - {config.question}):
        raise ValueError(f"emulators fitted for question {', '.join(other)} cannot estimate {config.question}")
    if QUESTIONS[config.question].uses_chain:
        law = chain_law(emulators, config.target)
        return replace(law_estimate(law, config), quadrature_error=law.quadrature_error,
                       quadrature_lost_mass=law.quadrature_lost_mass)
    return law_estimate(marginal_sampler(emulators, combined.pi_hat, config.target, config.n_days), config)


def build_emulator(series: SummarySeries, question: str, tau: float = 0.95, run_length: int = 3,
                   shape_mode: str | None = None, month_conditional_bulk: bool = False) -> RunEmulator:
    """Fit every model component of one run's summary series for the given question."""
    spec = QUESTIONS.get(question)
    if spec is None:
        raise ValueError(f"question must be one of {sorted(QUESTIONS)}, got {question!r}")
    if not spec.uses_chain and month_conditional_bulk:
        raise ValueError(f"question {question} fits no conditional tail model, so it takes no "
                         "month-conditional bulk")
    mode = spec.shape_mode if shape_mode is None else shape_mode
    tm = fit_threshold(series, tau=tau)
    cs = run_decluster(series, tm, l=run_length)
    gp = fit_gp(cs, tm, shape_mode=mode)
    mixed = build_mixed(series, gp, pi=cs.pi_star_hat, month_conditional_bulk=month_conditional_bulk) \
        if spec.uses_chain else None
    cev = None if mixed is None else fit_cev(to_laplace(mixed, series.values, series.months))
    return RunEmulator(
        run_id=series.run_id, question=question, order_k=series.order_k, months=series.months,
        series_values=series.values, threshold_model=tm, gp_model=gp, mixed=mixed, cluster_set=cs,
        cev_model=cev,
    )
