"""Per-run emulators and the combination of fitted models into estimates.

Each run contributes a generative emulator (threshold + GP tail + mixed
distribution, plus the conditional tail model for the persistence
question). A synthetic ensemble has n_srun synthetic runs, each on an
emulator picked uniformly; its statistic is the mean count per run, e_bar.
Point and interval estimates are the mean and central quantiles of e_bar.

For the marginal questions the law of e_bar is exact and nothing is
sampled. By thinning, a run's count on emulator r is sum_m Binomial(n_days_m,
pi_hat * S_m(target - u_m)), with S_m the month-m GP survivor function, so
one run's pmf is the inverse DFT of the mean over emulators of a product of
binomial characteristic functions, and an ensemble's total is its n_srun-th
convolution power, one FFT power.
For the persistence question all chains of one synthetic ensemble advance
as one batch, and n_sim ensembles are simulated.

Randomness: every simulated ensemble t_sim >= 1 owns the stream
default_rng(SeedSequence(seed, spawn_key=(t_sim,))), so chunked or parallel
execution over t_sim reproduces the serial output bit for bit. The draws
from an exact law use spawn_key=(0,).
"""

from __future__ import annotations

import base64
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import decluster
from .cev import (PROB_CLIP, CEVModel, StackedCEV, count_chains, fit_cev, laplace_quantile,
                  stack_cev, to_laplace)
from .decluster import ClusterSet, run_decluster
from .gpd import GPModel, MixedDistribution, build_mixed, fit_gp, gp_cdf
from .ingest import Calendar, EnsembleRun, validate_ensemble
from .summarise import SummarySeries, spatial_order_statistic
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
    months: np.ndarray        # per-day month labels of the source run
    series_values: np.ndarray  # summary series the models were fitted on
    threshold_model: ThresholdModel
    gp_model: GPModel
    mixed: MixedDistribution
    cluster_set: ClusterSet
    cev_model: CEVModel | None = None


def pack_floats(a: np.ndarray) -> str:
    """Base64 text of an array's little-endian float64 bytes; unpack_floats inverts it exactly."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def unpack_floats(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8").astype(np.float64)


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
        "month_conditional_bulk": emulator.mixed.bulk_by_month is not None,
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
    # through the module: perfbench traces this module's run_decluster as the fit's stage
    cs = decluster.run_decluster(series, tm, l=run_length)
    if cs.n_clusters == 0:
        raise ValueError("the series never exceeds its thresholds, so the run has no clusters; "
                         "fit does not write such a run")
    mixed = build_mixed(series, gp, pi=cs.pi_star_hat, month_conditional_bulk=bulk)
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
    """Settings for the simulation-based estimate.

    n_days simulates runs shorter than the fitted ones (counts then refer
    to that window); None uses the full fitted run length. rate_mode turns
    the per-run count into an occurred/not indicator. The persistence
    question simulates whole runs, so it takes no n_days. workers splits
    the persistence question's simulation over processes; the marginal
    questions sample nothing and ignore it.
    """

    question: str
    target_level: float | None = None
    n_sim: int = 10_000
    n_srun: int = 50
    seed: int = 0
    alpha: float = 0.05
    rate_mode: bool = False
    n_days: int | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.question not in QUESTIONS:
            raise ValueError(f"question must be one of {sorted(QUESTIONS)}, got {self.question!r}")
        if self.target_level is not None and np.isnan(self.target_level):
            raise ValueError(f"target_level must be a number, got {self.target_level}")
        if self.n_sim < 1 or self.n_srun < 1:
            raise ValueError("n_sim and n_srun must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.n_days is not None and self.n_days < 1:
            raise ValueError("n_days must be >= 1 when given")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if QUESTIONS[self.question].uses_chain and self.n_days is not None:
            raise ValueError(f"question {self.question} simulates whole runs, so it takes no n_days")

    @property
    def target(self) -> float:
        """The raw target level: target_level, or else the question's own."""
        return QUESTIONS[self.question].target if self.target_level is None else self.target_level


@dataclass(frozen=True)
class EstimateResult:
    """Point and interval estimate of e_bar with n_sim draws of it.

    mc_se is the Monte Carlo standard error of the point: 0.0 when it comes
    from an exact law, else std(e_bar, ddof=1) / sqrt(n_sim), None for
    n_sim = 1. An exact law also reports the probability its table leaves
    out (truncation and rounding); a simulation reports None.
    """

    point: float
    ci_low: float
    ci_high: float
    ebar_samples: np.ndarray
    mc_se: float | None
    law_tail_mass: float | None = None


def combine_rates(emulators: list[RunEmulator], names: list[str] | None = None) -> CombinedEstimates:
    """Arithmetic means of the per-run declustered rates and extremal indices.

    The one check of which emulators share an estimate: there must be at
    least one, and all must share their question, order statistic and per-day
    months (day count and calendar). names labels the emulators in its errors
    (default: position and run id). Runs whose extremal index is undefined
    (no exceedances) are excluded; at least one defined run is required.
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
    defined = [e for e in emulators if e.cluster_set.theta_hat is not None]
    if not defined:
        raise ValueError("extremal index is undefined for every run")
    pi_hat = float(np.mean([e.cluster_set.pi_star_hat for e in defined]))
    theta_hat = float(np.mean([e.cluster_set.theta_hat for e in defined]))
    return CombinedEstimates(pi_hat=pi_hat, theta_hat=theta_hat)


@dataclass(frozen=True)
class MarginalSampler:
    """Per-emulator tables for the marginal questions (q1, q2).

    A day hosts a threshold exceedance with probability pi_hat and its GP
    excess passes the target with probability S_m(target - u_m), so by
    thinning a run's count is exactly sum_m Binomial(days[r, m], p[r, m]).
    """

    days: np.ndarray  # (n_emulators, 12) simulated days per month
    p: np.ndarray     # (n_emulators, 12) per-day probability of a target exceedance


def marginal_sampler(emulators: list[RunEmulator], pi_hat: float, target: float,
                     n_days: int | None = None) -> MarginalSampler:
    """Tables for runs of n_days simulated days (None: the fitted length).

    The target must sit above every monthly threshold, otherwise the GP
    tail cannot express the event and the mixed distribution is needed.
    """
    days, p = [], []
    for e in emulators:
        u = e.threshold_model.u_by_month
        if target <= float(np.max(u)):
            raise ValueError(
                f"target {target} is not above every monthly threshold (max {float(np.max(u)):.4f}); "
                "use the mixed distribution for sub-threshold levels"
            )
        if n_days is not None and n_days > e.months.size:
            raise ValueError(f"n_days={n_days} exceeds the fitted run length {e.months.size}")
        days.append(np.bincount(e.months[:n_days] - 1, minlength=12))
        p.append(pi_hat * (1.0 - gp_cdf(target - u, e.gp_model.sigma_by_month, e.gp_model.xi_by_month)))
    return MarginalSampler(days=np.array(days), p=np.array(p))


def _times_log(n, log_x):
    """n * log_x, 0 where n is 0 (also where log_x is -inf)."""
    return n * np.where(n == 0, 0.0, log_x)


def count_law(sampler: MarginalSampler, n_srun: int, rate_mode: bool = False) -> np.ndarray:
    """P(S = s), s = 0..len - 1, of the total count S of n_srun synthetic runs.

    A run on emulator r counts sum_m Binomial(days[r, m], p[r, m]), or in
    rate mode whether that sum is positive, and picks r uniformly, so one
    run's pmf is the mean over emulators and S's is its n_srun-th power
    under convolution. A run's count is cut at K = max_r (mean_r + 12 sd_r)
    + 30, beyond which it has negligible mass. Its pmf is the inverse rfft,
    of length 2**bit_length(K), of the mean over emulators of
    prod_m (1 - p + p e^-it)^d at t = 2 pi j / length, each factor taken in
    modulus/argument form: log|phi| = d/2 log1p(-4 p (1 - p) sin^2(t/2)),
    arg phi = d atan2(-p sin t, 1 - 2 p sin^2(t/2)). The table holds
    s <= n_srun K, and rounding noise is clipped at 0.
    """
    days, p = sampler.days, sampler.p
    if rate_mode:
        with np.errstate(divide="ignore"):
            log_none = np.sum(_times_log(days, np.log1p(-p)), axis=1)
        hit = float(np.mean(-np.expm1(log_none)))
        run, k_max = np.array([1.0 - hit, hit]), 1
    else:
        mean, var = np.sum(days * p, axis=1), np.sum(days * p * (1.0 - p), axis=1)
        k_max = int(min(np.ceil(np.max(mean + 12.0 * np.sqrt(var))) + 30, np.max(days.sum(axis=1))))
        # an inverse DFT longer than K folds back only a run's mass above K
        size = 1 << k_max.bit_length()
        t = 2.0 * np.pi * np.arange(size // 2 + 1) / size
        d, p, sin2 = days[..., None], p[..., None], np.sin(t / 2.0) ** 2
        with np.errstate(divide="ignore"):  # |phi| is 0 at p = 1/2, t = pi
            log_mod = _times_log(d / 2.0, np.log1p(-4.0 * p * (1.0 - p) * sin2))
        arg = d * np.arctan2(-p * np.sin(t), 1.0 - 2.0 * p * sin2)
        cf = np.exp(log_mod.sum(axis=1) + 1j * arg.sum(axis=1)).mean(axis=0)
        run = np.fft.irfft(cf, n=size)[:k_max + 1]
    size = 1 << (n_srun * k_max).bit_length()
    law = np.fft.irfft(np.fft.rfft(run, n=size) ** n_srun, n=size)[:n_srun * k_max + 1]
    return np.maximum(law, 0.0)


def law_estimate(sampler: MarginalSampler, config: SimulationConfig) -> EstimateResult:
    """Point and interval of e_bar = S / n_srun from the exact law of S (count_law).

    The point is the law's mean, sum_s (s / n_srun) P(S = s), and the interval
    ends are s / n_srun at the smallest s whose CDF reaches alpha/2 and
    1 - alpha/2. A cluster counts once, so the declustered rate and the GP of
    cluster maxima already carry the clustering and no extremal index enters.
    The samples are n_sim inverse-CDF draws of S from the stream of spawn key 0.
    """
    law = count_law(sampler, config.n_srun, config.rate_mode)
    ebar = np.arange(law.size) / config.n_srun
    cdf = np.cumsum(law)
    last = law.size - 1
    lo, hi = np.minimum(np.searchsorted(cdf, [config.alpha / 2.0, 1.0 - config.alpha / 2.0]), last)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    s = np.minimum(np.searchsorted(cdf, rng.random(config.n_sim), side="right"), last)
    return EstimateResult(point=float(ebar @ law), ci_low=float(ebar[lo]), ci_high=float(ebar[hi]),
                          ebar_samples=ebar[s], mc_se=0.0, law_tail_mass=max(0.0, 1.0 - float(cdf[-1])))


def laplace_targets(emulator: RunEmulator, target: float) -> np.ndarray:
    """Per-month Laplace-scale image of a raw target level under the
    emulator's own mixed distribution (margins are run- and month-specific)."""
    return to_laplace(emulator.mixed, target, np.arange(1, 13))


def chain_starts(v, pi):
    """Laplace-scale image of the chain start x0 = u + gp_quantile(v): x0 lies in the
    tail branch 1 - pi (1 - H) of the mixed distribution and H(x0 - u) = v."""
    return laplace_quantile(np.clip(1.0 - pi * (1.0 - v), PROB_CLIP, 1.0 - PROB_CLIP))


@dataclass(frozen=True)
class ChainSampler:
    """Per-emulator tables for the persistence question (q3).

    A run has Poisson(observed clusters in month m) clusters starting in
    month m, independently over months: a Poisson total split by the
    observed month shares. Each starts from a GP exceedance, the month only
    picks the Laplace-scale target, and it counts when its chain exceeds
    the target on two consecutive steps.
    """

    month_rate: np.ndarray  # (n_emulators, 12) observed clusters per month
    pi: np.ndarray          # (n_emulators,) tail weight of each mixed distribution
    targets: np.ndarray     # (n_emulators, 12) Laplace-scale target by month
    cev: StackedCEV

    def counts(self, rng: np.random.Generator, n_srun: int) -> np.ndarray:
        """Counting clusters of n_srun synthetic runs, all chains in one batch."""
        r = rng.integers(self.pi.size, size=n_srun)
        n_chains = rng.poisson(self.month_rate[r])  # (n_srun, 12)
        per_run = n_chains.sum(axis=1)
        j = np.repeat(r, per_run)
        y0 = chain_starts(rng.random(j.size), self.pi[j])
        target = np.repeat(self.targets[r], n_chains.ravel())
        hit = count_chains(self.cev, j, y0, target, rng)
        return np.bincount(np.repeat(np.arange(n_srun), per_run)[hit], minlength=n_srun)


def chain_sampler(emulators: list[RunEmulator], target: float) -> ChainSampler:
    """Tables for the persistence question at a raw target level."""
    for e in emulators:
        if e.cev_model is None:
            raise ValueError(f"run {e.run_id}: the persistence question needs a conditional tail model")
    return ChainSampler(
        month_rate=np.array([e.cluster_set.month_cluster_counts for e in emulators], dtype=np.float64),
        pi=np.array([e.mixed.pi for e in emulators]),
        targets=np.array([laplace_targets(e, target) for e in emulators]),
        cev=stack_cev([e.cev_model for e in emulators]),
    )


def _simulate_cells(sampler: ChainSampler, config: SimulationConfig, t_sims) -> np.ndarray:
    """Mean count per synthetic run, e_bar, for each synthetic ensemble in t_sims."""
    e_bar = np.empty(len(t_sims))
    for k, t_sim in enumerate(t_sims):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(t_sim,)))
        e = sampler.counts(rng, config.n_srun)
        e_bar[k] = (np.minimum(e, 1) if config.rate_mode else e).mean()
    return e_bar


def chain_estimate(sampler: ChainSampler, config: SimulationConfig) -> EstimateResult:
    """Simulate n_sim synthetic ensembles of the persistence question and summarise:
    the sample mean and central (alpha/2, 1 - alpha/2) quantiles of e_bar."""
    all_t_sims = list(range(1, config.n_sim + 1))
    if config.workers == 1:
        ebar = _simulate_cells(sampler, config, all_t_sims)
    else:
        n_chunks = min(config.workers * 4, config.n_sim)
        # plain ints: spawn keys must not depend on how the chunking was done
        chunks = [[int(t) for t in chunk] for chunk in np.array_split(all_t_sims, n_chunks)]
        with ProcessPoolExecutor(max_workers=min(config.workers, n_chunks)) as pool:
            ebar = np.concatenate(list(pool.map(_simulate_cells, repeat(sampler), repeat(config),
                                                chunks)))
    ci_low, ci_high = np.quantile(ebar, [config.alpha / 2.0, 1.0 - config.alpha / 2.0])
    mc_se = float(np.std(ebar, ddof=1) / np.sqrt(ebar.size)) if ebar.size > 1 else None
    return EstimateResult(point=float(np.mean(ebar)), ci_low=float(ci_low), ci_high=float(ci_high),
                          ebar_samples=ebar, mc_se=mc_se)


def monte_carlo_estimate(emulators: list[RunEmulator], config: SimulationConfig,
                         combined: CombinedEstimates) -> EstimateResult:
    """The estimate of config.question over synthetic ensembles of n_srun runs, each
    run on a uniformly picked emulator: from the exact law of the ensemble's count
    for the marginal questions (law_estimate), by simulating n_sim ensembles for the
    persistence question (chain_estimate), from emulators fitted for config.question."""
    if not emulators:
        raise ValueError("at least one emulator is required")
    if other := sorted({e.question for e in emulators} - {config.question}):
        raise ValueError(f"emulators fitted for question {', '.join(other)} cannot estimate {config.question}")
    if QUESTIONS[config.question].uses_chain:
        return chain_estimate(chain_sampler(emulators, config.target), config)
    sampler = marginal_sampler(emulators, combined.pi_hat, config.target, config.n_days)
    return law_estimate(sampler, config)


def build_emulator(series: SummarySeries, question: str, tau: float = 0.95, run_length: int = 3,
                   q_prob: float = 0.90, shape_mode: str | None = None, min_month_obs: int = 50,
                   min_month_maxima: int = 10, month_conditional_bulk: bool = False) -> RunEmulator:
    """Fit every model component of one run's summary series for the given question."""
    spec = QUESTIONS.get(question)
    if spec is None:
        raise ValueError(f"question must be one of {sorted(QUESTIONS)}, got {question!r}")
    if not spec.uses_chain and (q_prob != 0.90 or month_conditional_bulk):
        raise ValueError(f"question {question} fits no conditional tail model, so it takes no "
                         "q_prob but 0.90 and no month-conditional bulk")
    mode = spec.shape_mode if shape_mode is None else shape_mode
    tm = fit_threshold(series, tau=tau, min_month_obs=min_month_obs)
    cs = run_decluster(series, tm, l=run_length)
    gp = fit_gp(cs, tm, shape_mode=mode, min_month_maxima=min_month_maxima)
    mixed = build_mixed(series, gp, pi=cs.pi_star_hat, month_conditional_bulk=month_conditional_bulk)
    cev = fit_cev(to_laplace(mixed, series.values, series.months), q_prob=q_prob) if spec.uses_chain else None
    return RunEmulator(
        run_id=series.run_id, question=question, order_k=series.order_k, months=series.months,
        series_values=series.values, threshold_model=tm, gp_model=gp, mixed=mixed, cluster_set=cs,
        cev_model=cev,
    )


def run_question(question: str, runs: list[EnsembleRun], config: SimulationConfig,
                 order_k: int | None = None, **fit_kwargs) -> EstimateResult:
    """Full pipeline for one question: reduce each run to its order statistic (by
    default the question's), fit per-run emulators, combine, simulate."""
    validate_ensemble(runs)
    if config.question != question:
        config = replace(config, question=question)
    k = QUESTIONS[question].order_k if order_k is None else order_k
    emulators = [build_emulator(spatial_order_statistic(run, k), question, **fit_kwargs) for run in runs]
    combined = combine_rates(emulators)
    return monte_carlo_estimate(emulators, config, combined)
