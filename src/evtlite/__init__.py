"""Exceedance-probability estimation for climate-ensemble precipitation extremes.

Pipeline: reduce each daily spatial field to an order statistic, fit a
month-varying threshold by asymmetric-Laplace likelihood, decluster the
exceedances, fit generalized Pareto tails, optionally model day-to-day
extremal persistence, and combine the per-run fitted models into point and
interval estimates from the exact law of an ensemble's event count.
"""

from .cev import (
    CEVModel,
    fit_cev,
    fit_conditional_pairs,
    hit_probability,
    laplace_quantile,
    to_laplace,
)
from .decluster import ClusterSet, run_decluster
from .ensemble import (
    QUESTIONS,
    CombinedEstimates,
    EstimateResult,
    RunEmulator,
    SimulationConfig,
    build_emulator,
    chain_law,
    combine_rates,
    count_law,
    marginal_sampler,
    monte_carlo_estimate,
)
from .gpd import (
    GPModel,
    MixedDistribution,
    build_mixed,
    fit_gp,
    fit_gp_excesses,
    gp_cdf,
    gp_quantile,
    mixed_cdf,
    mixed_quantile,
    qq_envelope,
    qq_exponential,
)
from .ingest import Calendar, read_blocks, save_run
from .summarise import SummarySeries, read_series
from .synth import SynthSpec, event_truth, generate_run, iter_ensemble, per_day_probability
from .threshold import ThresholdModel, fit_threshold

__version__ = "0.1.0"
