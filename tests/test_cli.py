import argparse
import dataclasses
import glob
import hashlib
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evtlite as ev
from evtlite import cli
from evtlite.cev import LOST_MASS_TOLERANCE, Q_PROB
from evtlite.cli import emulator_from_dict, emulator_to_dict, main
from evtlite.ensemble import ARTIFACT_SCHEMA, pack_floats
from evtlite.gpd import MIN_MONTH_MAXIMA
from evtlite.threshold import MIN_MONTH_OBS

GOLDEN_ARTIFACT = Path(__file__).parent / "data" / "emulator_v2_q3.json"


def run_cli(*argv):
    return main([str(a) for a in argv])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_emulator(loaded, fitted):
    """Every array and scalar the estimate and diagnose read, bit for bit."""
    assert same_bits(loaded.series_values, fitted.series_values)
    assert same_bits(loaded.months, fitted.months)
    cs, ref = loaded.cluster_set, fitted.cluster_set
    for name in ("exceedance_days", "cluster_starts", "maxima", "maxima_days", "maxima_months"):
        assert same_bits(getattr(cs, name), getattr(ref, name)), name
    for name in ("run_length_l", "n_exceedances", "n_clusters", "theta_hat", "pi_star_hat"):
        assert getattr(cs, name) == getattr(ref, name), name
    for name in ("u_by_month", "log_zeta_by_month"):
        assert same_bits(getattr(loaded.threshold_model, name), getattr(fitted.threshold_model, name))
    assert same_bits(loaded.gp_model.log_sigma_by_month, fitted.gp_model.log_sigma_by_month)
    assert same_bits(loaded.gp_model.xi_by_month, fitted.gp_model.xi_by_month)
    assert (loaded.mixed is None) == (fitted.mixed is None)
    if fitted.mixed is not None:
        assert loaded.mixed.pi == fitted.mixed.pi
        assert same_bits(loaded.mixed.bulk_sorted, fitted.mixed.bulk_sorted)
        assert (loaded.mixed.bulk_by_month is None) == (fitted.mixed.bulk_by_month is None)
        for a, b in zip(loaded.mixed.bulk_by_month or (), fitted.mixed.bulk_by_month or ()):
            assert same_bits(a, b)
    assert (loaded.cev_model is None) == (fitted.cev_model is None)
    if fitted.cev_model is not None:
        assert same_bits(loaded.cev_model.residuals, fitted.cev_model.residuals)
        for name in ("beta0", "beta1", "q_threshold", "kde_bandwidth", "loglik"):
            assert getattr(loaded.cev_model, name) == getattr(fitted.cev_model, name), name


def assert_same_estimate(loaded, fitted, config):
    combined = ev.combine_rates(fitted)
    assert ev.combine_rates(loaded) == combined
    a = ev.monte_carlo_estimate(loaded, config, combined)
    b = ev.monte_carlo_estimate(fitted, config, combined)
    assert (a.point, a.ci_low, a.ci_high) == (b.point, b.ci_low, b.ci_high)
    assert same_bits(a.ebar_samples, b.ebar_samples)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic ensemble plus fitted emulator artifacts for q1."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    fits = root / "fits"
    rc = run_cli("synth", "--out", data, "--n-runs", 2, "--n-days", 7300,
                 "--n-sites", 4, "--order-k", 1, "--pi", 0.05, "--xi", 0.1,
                 "--sigma", 0.5, "--u0", "1,1,1,1,1,1.5,1.5,1.5,1,1,1,1",
                 "--seed", 5, "--targets", "4.0,5.0")
    assert rc == 0
    rc = run_cli("fit", "--out", fits, "--question", "q1", "--shape", "constant",
                 data / "run_1.csv", data / "run_2.csv")
    assert rc == 0
    return root, data, fits


@pytest.fixture(scope="module")
def three_site_run(tmp_path_factory):
    """The CSV of a synthetic 7,300-day run of 3 sites."""
    data = tmp_path_factory.mktemp("three_sites")
    assert run_cli("synth", "--out", data, "--n-runs", 1, "--n-days", 7300, "--n-sites", 3,
                   "--xi", 0.1, "--seed", 12) == 0
    return data / "run_1.csv"


class TestSynthCommand:
    def test_outputs_and_truth(self, workspace):
        _, data, _ = workspace
        assert (data / "run_1.csv").exists() and (data / "run_2.csv").exists()
        truth = json.loads((data / "truth.json").read_text())
        assert truth["spec"]["n_days"] == 7300
        assert len(truth["events"]) == 2
        assert truth["events"][0]["target"] == 4.0

    def test_same_seed_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            rc = run_cli("synth", "--out", tmp_path / sub, "--n-runs", 1, "--n-days", 400,
                         "--n-sites", 3, "--seed", 11)
            assert rc == 0
        assert (tmp_path / "a" / "run_1.csv").read_bytes() == (tmp_path / "b" / "run_1.csv").read_bytes()

    def test_output_bytes_pinned(self, tmp_path):
        """synth's bytes for one seed: its %.17g text and the order runs are drawn in are fixed.
        At pi = 1e-6 this seed draws no GP tail day, so the values pass only through the
        generator, ndtr and arithmetic, not through numpy's log1p and expm1, whose last bit
        differs between CPUs with and without AVX-512."""
        assert run_cli("synth", "--out", tmp_path, "--n-runs", 2, "--n-days", 800, "--n-sites", 6,
                       "--order-k", 3, "--rho", 0.7, "--xi", 0.1, "--pi", 1e-6, "--seed", 2027) == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()} == {
            "run_1.csv": "ce20845c159c139a9219d331c7f5cc5b59bb6a2b151f3ddf332f2bbd4a984db7",
            "run_2.csv": "527698f36e504b50168970ce91c9db84cc87d2b3682e5a70ac3748dc37364d9a",
            "truth.json": "e2826ac0d437ff856bb110687c2e605f49db91dc7b5a1a9e6dddebefb758964f",
        }

    @pytest.mark.parametrize("flag", ["--u0", "--sigma", "--xi", "--targets"])
    def test_non_finite_parameter_exit_2_before_writing(self, tmp_path, capsys, flag):
        # argparse refuses a non-finite list value as it parses (SystemExit), SynthSpec a non-finite xi
        try:
            code = run_cli("synth", "--out", tmp_path / "out", "--n-runs", 1, "--n-days", 400,
                           "--n-sites", 3, flag, "nan")
        except SystemExit as exc:
            code = exc.code
        assert code == 2 and flag.lstrip("-") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_tail_exit_2_before_writing(self, tmp_path, capsys):
        # a finite xi whose largest tail draw overflows used to be blamed on a data row
        assert run_cli("synth", "--out", tmp_path / "out", "--n-runs", 1, "--n-days", 400,
                       "--n-sites", 3, "--xi", 1e308) == 2
        assert "error: xi 1e+308 with sigma up to 0.5 and u0 up to 1.0 puts the largest tail draw " \
               "at inf" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFitCommand:
    def test_artifacts_written(self, workspace):
        _, _, fits = workspace
        for name in ("run_1.json", "run_2.json"):
            d = json.loads((fits / name).read_text())
            assert d["schema"] == ARTIFACT_SCHEMA and d["question"] == "q1"
            assert d["n_days"] == 7300 and d["month_lengths"] == list(ev.Calendar().month_lengths)
            assert d["run_length_l"] == 3 and "clusters" not in d and "months" not in d
            assert len(d["threshold"]["u_by_month"]) == 12
            assert d["cev"] is None

    def test_emulator_roundtrip(self, workspace):
        # fit -> write -> read gives back the fitted emulator, bit for bit
        _, data, fits = workspace
        fitted, loaded = [], []
        for i in (1, 2):
            series = ev.read_series(data / f"run_{i}.csv", 1, run_id=i)
            fitted.append(ev.build_emulator(series, "q1", shape_mode="constant"))
            d = json.loads((fits / f"run_{i}.json").read_text())
            emulator = emulator_from_dict(d)
            assert emulator.question == "q1"
            assert emulator_to_dict(emulator, ev.Calendar()) == d
            loaded.append(emulator)
            assert_same_emulator(emulator, fitted[-1])
        config = ev.SimulationConfig(question="q1", target_level=5.0, n_sim=50, n_srun=50,
                                     seed=4, n_days=1000)
        assert_same_estimate(loaded, fitted, config)

    @pytest.mark.parametrize("question", ["q1", "q2"])
    def test_marginal_emulators_hold_no_mixed_and_share_read_only_months(self, workspace, tmp_path,
                                                                         monkeypatch, question):
        # q1 and q2 read the GP tail alone, and every run of one fit and of one
        # estimate shares a single month array that no run can write to
        _, data, _ = workspace
        fitted, loaded = [], []
        build, combine = cli.build_emulator, cli.combine_rates
        monkeypatch.setattr(cli, "build_emulator", lambda *a, **kw: fitted.append(build(*a, **kw)) or fitted[-1])
        monkeypatch.setattr(cli, "combine_rates",
                            lambda emulators, *a, **kw: loaded.extend(emulators) or combine(emulators, *a, **kw))
        fits = tmp_path / "fits"
        assert run_cli("fit", "--out", fits, "--question", question, "--order-k", 1, "--shape", "constant",
                       data / "run_1.csv", data / "run_2.csv") == 0
        assert run_cli("estimate", "--out", tmp_path / "est", "--question", question, "--target", 5.0,
                       "--n-sim", 5, fits / "run_1.json", fits / "run_2.json") == 0
        for emulators in (fitted, loaded):
            assert len(emulators) == 2 and all(e.mixed is None for e in emulators)
            months = emulators[0].months
            assert emulators[1].months is months
            with pytest.raises(ValueError, match="read-only"):
                months[0] = 2

    def test_roundtrip_chain_model_custom_calendar(self, tmp_path):
        lengths = "30,30,30,30,30,30,30,30,30,30,30,31"
        calendar = ev.Calendar(tuple(int(t) for t in lengths.split(",")))
        data = tmp_path / "data"
        assert run_cli("synth", "--out", data, "--n-runs", 1, "--n-days", 14600, "--n-sites", 4,
                       "--order-k", 3, "--sigma", 0.6, "--u0", 1.2, "--rho", 0.5,
                       "--calendar", lengths, "--seed", 19) == 0
        fits = tmp_path / "fits"
        assert run_cli("fit", "--out", fits, "--question", "q3", "--order-k", 3, "--bulk", "monthly",
                       "--calendar", lengths, data / "run_1.csv") == 0
        series = ev.read_series(data / "run_1.csv", 3, calendar=calendar)
        fitted = ev.build_emulator(series, "q3", month_conditional_bulk=True)
        d = json.loads((fits / "run_1.json").read_text())
        assert d["month_lengths"] == list(calendar.month_lengths)
        loaded = emulator_from_dict(d)
        assert loaded.question == "q3" and loaded.months[360] == 12 and loaded.months[361] == 1
        assert_same_emulator(loaded, fitted)
        config = ev.SimulationConfig(question="q3", target_level=4.0, n_sim=20, n_srun=5, seed=3)
        assert_same_estimate([loaded], [fitted], config)
        with pytest.raises(ValueError, match="calendar"):
            emulator_to_dict(fitted, ev.Calendar())

    def test_golden_artifact_pins_the_format(self):
        # a 400-day q3 artifact from hand-built models: by-month GP shapes with July's on
        # XI_MAX, a CEV model with beta0 clamped to 0 and 7 residuals, month-conditional bulk
        text = GOLDEN_ARTIFACT.read_text()
        loaded = emulator_from_dict(json.loads(text))
        assert loaded.question == "q3" and loaded.months.size == 400
        assert loaded.gp_model.at_bound == ("xi[7]",) and loaded.cev_model.at_bound == ("beta0",)
        assert loaded.cev_model.residuals.size == 7 and loaded.mixed.bulk_by_month is not None
        again = json.dumps(emulator_to_dict(loaded, ev.Calendar()), indent=2, sort_keys=True)
        assert again + "\n" == text

    def test_shape_on_the_box_edge_warns(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli("synth", "--out", data, "--n-runs", 1, "--n-days", 7300, "--n-sites", 3,
                       "--xi", 3.0, "--seed", 2) == 0
        capsys.readouterr()
        assert run_cli("fit", "--out", tmp_path / "fits", "--question", "q1", "--shape", "constant",
                       data / "run_1.csv") == 0
        err = capsys.readouterr().err
        assert err.count("warning: run 1: fitted gp xi on the edge of the search box") == 1
        d = json.loads((tmp_path / "fits" / "run_1.json").read_text())
        assert d["gp"]["xi"] == 2.0 and d["gp"]["at_bound"] == ["xi"]

    def test_missing_file_exit_2(self, tmp_path):
        assert run_cli("fit", "--out", tmp_path, "--question", "q1", tmp_path / "nope.csv") == 2

    def test_q3_conditions_above_the_Q_PROB_laplace_quantile(self, three_site_run, tmp_path):
        assert run_cli("fit", "--out", tmp_path, "--question", "q3", "--order-k", 1, three_site_run) == 0
        d = json.loads((tmp_path / "run_1.json").read_text())
        assert d["cev"]["q_threshold"] == ev.laplace_quantile(Q_PROB)

    def test_degenerate_data_exit_1(self, tmp_path):
        path = tmp_path / "flat.csv"
        np.savetxt(path, np.full((7300, 3), 2.0), delimiter=",", fmt="%.3f")
        assert run_cli("fit", "--out", tmp_path / "out", "--question", "q1", path) == 1

    @pytest.mark.parametrize("flags, code", [
        (["--order-k", 9], 2),
        (["--tau", 1.5], 2),
        (["--run-length", 0], 2),
        (["--question", "q3"], 2),  # its default k = 23 exceeds the 3 sites
        (["--order-k", 0], 2),  # below the smallest order statistic, k = 1
        (["--tau", 0.995], 1),  # about 3 cluster maxima a month, fewer than q1's by_month shape needs
        (["--tau", 0.9995], 1),  # each month's threshold is its largest day: no cluster at all
    ])
    def test_configuration_errors_exit_2_and_data_errors_exit_1(self, three_site_run, tmp_path, capsys,
                                                                flags, code):
        # flat data exits 1 too: test_degenerate_data_exit_1
        assert run_cli("fit", "--out", tmp_path / "out", *flags, three_site_run) == code
        err = capsys.readouterr().err
        assert f"error: run 1 ({three_site_run}): " in err
        if flags == ["--tau", 0.9995]:
            assert err.endswith("no day lies above its month's threshold at tau = 0.9995\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_days, refusal", [
        (100, f"have fewer than {MIN_MONTH_OBS} observations"),  # months 5 to 12 have none
        (730, f"have fewer than {MIN_MONTH_MAXIMA} cluster maxima for shape_mode=by_month"),
    ])
    def test_thin_months_exit_1(self, three_site_run, tmp_path, capsys, n_days, refusal):
        path = tmp_path / "run.csv"
        path.write_text("".join(three_site_run.read_text().splitlines(keepends=True)[:n_days]))
        assert run_cli("fit", "--out", tmp_path / "out", path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: run 1 ({path}): months [") and err.endswith(f"] {refusal}\n")
        assert not (tmp_path / "out").exists()

    def test_no_run_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", "--out", tmp_path / "out", "--question", "q1")
        assert exc.value.code == 2 and "the following arguments are required: runs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("question", ["q1", "q2"])
    @pytest.mark.parametrize("flags", [["--bulk=monthly"], ["--bulk", "monthly"]])
    def test_marginal_questions_refuse_the_conditional_fit_options(self, three_site_run, tmp_path,
                                                                  capsys, question, flags):
        # in either spelling, it sets up q3's conditional tail model, which q1 and q2 do not fit
        assert run_cli("fit", "--out", tmp_path / "out", "--question", question, "--order-k", 1,
                       *flags, three_site_run) == 2
        assert f"question {question} fits no conditional tail model" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_args_file_with_flag_override(self, tmp_path, workspace):
        _, data, _ = workspace
        args = tmp_path / "fit.args"
        args.write_text("--question=q1\n--tau=0.90\n--run-length=2\n--bulk=monthly\n")
        out = tmp_path / "fits"
        rc = run_cli("fit", "--out", out, f"@{args}", "--tau", 0.95, "--bulk", "pooled",
                     data / "run_1.csv")
        assert rc == 0
        d = json.loads((out / "run_1.json").read_text())
        assert d["threshold"]["tau"] == 0.95  # a flag after the file wins
        assert d["month_conditional_bulk"] is False  # so does a choice
        assert d["run_length_l"] == 2  # the file's argument applies

    @pytest.mark.parametrize("case", ["unknown option", "missing file", "no --out"])
    def test_bad_args_file_exit_2(self, tmp_path, workspace, capsys, case):
        # argparse refuses these as it refuses a bad flag: exit 2 through SystemExit
        message = {"unknown option": "unrecognized arguments: --no-such-option=1",
                   "missing file": "No such file or directory",
                   "no --out": "the following arguments are required: --out"}[case]
        _, data, _ = workspace
        args = tmp_path / "fit.args"
        args.write_text("--no-such-option=1\n" if case == "unknown option" else "--tau=0.9\n")
        at = tmp_path / "missing.args" if case == "missing file" else args
        out = [] if case == "no --out" else ["--out", tmp_path / "out"]
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", *out, f"@{at}", data / "run_1.csv")
        assert exc.value.code == 2 and message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fit_idempotent(self, tmp_path, workspace):
        _, data, _ = workspace
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli("fit", "--out", out, "--question", "q1", "--shape", "constant",
                           data / "run_1.csv") == 0
            outs.append((out / "run_1.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
    def test_fit_memory_does_not_grow_with_sites(self, tmp_path):
        # fit reduces each block of rows as it is read, so it never holds a run's
        # (n_days, n_sites) values: at 200 sites these are 16 MB, and a partitioned copy 16 MB more.
        # VmHWM is the peak of the new interpreter alone; ru_maxrss would keep this process's,
        # as Linux carries it over fork and exec
        code = ("import re, sys\nfrom evtlite.cli import main\nassert main(sys.argv[1:]) == 0\n"
                "print(re.search(r'VmHWM:\\s+(\\d+) kB', open('/proc/self/status').read())[1])")
        env = {**os.environ, "PYTHONPATH": str(Path(ev.__file__).resolve().parents[1])}
        peak_mb = {}
        for n_sites in (200, 2):
            data = tmp_path / f"data_{n_sites}"
            assert run_cli("synth", "--out", data, "--n-runs", 1, "--n-days", 10_000,
                           "--n-sites", n_sites, "--seed", 7) == 0
            argv = ["fit", "--out", tmp_path / f"fits_{n_sites}", "--question", "q1", "--shape", "constant",
                    data / "run_1.csv"]
            proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], capture_output=True,
                                  text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            peak_mb[n_sites] = int(proc.stdout.split()[-1]) / 1024
        assert abs(peak_mb[200] - peak_mb[2]) < 8, peak_mb

    def test_custom_calendar(self, tmp_path):
        data = tmp_path / "data"
        lengths = "30,30,30,30,30,30,30,30,30,30,30,31"
        assert run_cli("synth", "--out", data, "--n-runs", 1, "--n-days", 400,
                       "--n-sites", 2, "--calendar", lengths, "--seed", 1) == 0
        series = ev.read_series(data / "run_1.csv", 1,
                                calendar=ev.Calendar(tuple(int(t) for t in lengths.split(","))))
        assert series.months[29] == 1 and series.months[30] == 2
        # 361-day year: day 362 wraps to month 1
        assert series.months[361] == 1

    def test_header_flag(self, tmp_path):
        path = tmp_path / "hdr.csv"
        body = "\n".join("0.1,0.2,0.3" for _ in range(40))
        path.write_text("a,b,c\n" + body + "\n")
        # fit will fail statistically on tiny flat data, but ingestion must
        # succeed with --header and fail without it
        rc_no_header = run_cli("fit", "--out", tmp_path / "x", path)
        assert rc_no_header == 2
        rc_header = run_cli("fit", "--header", "--out", tmp_path / "y", path)
        assert rc_header == 1

    @pytest.mark.parametrize("line, message", [
        ("", "row 3: empty row"),
        ("# note", "row 3: expected 3 columns, found 1"),
        ("0.1,0.2,0.3 # note", "row 3: non-numeric value '0.3 # note' in column 3"),
        # float() reads both, np.loadtxt neither, and the row is named as the parser refuses it
        ("0.1,1_000,0.3", "row 3: non-numeric value '1_000' in column 2"),
        ('0.1,"1",0.3', """row 3: non-numeric value '"1"' in column 2"""),
    ])
    def test_blank_or_comment_line_exit_2(self, tmp_path, capsys, line, message):
        # months fold over the row index, so a skipped line would shift every later month
        rows = ["0.1,0.2,0.3"] * 40
        path = tmp_path / "gap.csv"
        path.write_text("\n".join(rows[:2] + [line] + rows[2:]) + "\n")
        assert run_cli("fit", "--out", tmp_path / "x", path) == 2
        assert capsys.readouterr().err == f"error: run 1 ({path}): {message}\n"
        path.write_text("\n".join(rows) + "\n")  # one trailing newline is fine
        assert run_cli("fit", "--out", tmp_path / "y", path) == 1  # 40 days fail the month floor


class TestEstimateCommand:
    def test_estimate_and_determinism(self, workspace, tmp_path):
        _, _, fits = workspace
        out = tmp_path / "est"
        args = ("estimate", "--out", out, "--question", "q1", "--target", 5.0,
                "--n-sim", 150, "--n-srun", 50, "--seed", 33, "--sim-days", 1000,
                "--c-samples", fits / "run_1.json", fits / "run_2.json")
        assert run_cli(*args) == 0
        first = (out / "estimate_q1.json").read_bytes()
        samples_first = (out / "c_samples_q1.csv").read_bytes()
        assert run_cli(*args) == 0
        assert (out / "estimate_q1.json").read_bytes() == first
        assert (out / "c_samples_q1.csv").read_bytes() == samples_first
        payload = json.loads(first)
        assert payload["question"] == "q1"
        assert payload["ci_low"] <= payload["point"] <= payload["ci_high"]
        assert payload["c_samples_path"].endswith("c_samples_q1.csv")
        assert 0.0 <= payload["law_tail_mass"] <= 1e-12

    def test_golden_q3_estimate_is_pinned(self, tmp_path):
        # the golden artifact's q3 estimate at the defaults (target 5), as the dense chain
        # quadrature gave it, so that no change to the quadrature moves it unseen; the last
        # bits differ across CPUs and summation orders, so the figures hold to 1e-12
        # relative, and quadrature_error, a difference of two P of 0.035, to 1e-14 in P
        assert run_cli("estimate", "--out", tmp_path, "--question", "q3", GOLDEN_ARTIFACT) == 0
        d = json.loads((tmp_path / "estimate_q3.json").read_text())
        assert d["point"] == pytest.approx(0.14638281721835106, rel=1e-12)
        assert (d["ci_low"], d["ci_high"]) == pytest.approx((0.06, 0.26), rel=1e-12)
        assert d["quadrature_lost_mass"] == pytest.approx(5.347213125051525e-13, rel=1e-12)
        assert d["quadrature_error"] == pytest.approx(7.98290461990342e-06, rel=0.0, abs=1e-14)

    def test_mc_se_reported(self, workspace, tmp_path):
        # every point comes from the exact law of e_bar, so it has no Monte Carlo
        # error to report (no mc_se); q3 reports how far its chain quadrature may be off
        _, _, fits = workspace
        runs = {"q1": ["--target", 5.0, "--sim-days", 1000, "--n-srun", 50, fits / "run_1.json",
                       fits / "run_2.json"],
                "q3": ["--target", 2.0, "--n-srun", 10, GOLDEN_ARTIFACT]}
        for question, args in runs.items():
            for n_sim in (60, 1):
                out = tmp_path / f"{question}_n{n_sim}"
                assert run_cli("estimate", "--out", out, "--question", question, "--n-sim", n_sim,
                               "--seed", 3, "--c-samples", *args) == 0
                d = json.loads((out / f"estimate_{question}.json").read_text())
                c = np.loadtxt(out / f"c_samples_{question}.csv", delimiter=",", skiprows=1,
                               ndmin=2)[:, 0]
                assert c.size == n_sim
                assert 0.0 <= d["law_tail_mass"] <= 1e-12
                assert not {"mc_se", "prob_ebar_above_1", "correction"} & set(d)
                quadrature = {"quadrature_error", "quadrature_lost_mass"}
                if question == "q1":
                    assert not quadrature & set(d)
                else:
                    assert 0.0 < d["quadrature_error"] <= 1e-3 and 0.0 <= d["quadrature_lost_mass"] <= 1e-9

    def test_mass_lost_above_the_cells_warns(self, tmp_path, capsys):
        # with beta1 = -5 a chain near 0 steps far above the cells, so P reads low
        # by up to the lost mass; estimate still writes its files but says so
        d = json.loads(GOLDEN_ARTIFACT.read_text())
        d["cev"].update(beta0=0.5, beta1=-5.0)
        path = tmp_path / "run_1.json"
        path.write_text(json.dumps(d))
        for artifact, out in ((GOLDEN_ARTIFACT, tmp_path / "golden"), (path, tmp_path / "steep")):
            assert run_cli("estimate", "--out", out, "--question", "q3", artifact) == 0
        err = capsys.readouterr().err
        golden, steep = (json.loads((tmp_path / name / "estimate_q3.json").read_text()) for name in ("golden", "steep"))
        assert golden["quadrature_lost_mass"] <= golden["quadrature_error"]
        assert steep["quadrature_lost_mass"] > 0.1 > steep["quadrature_error"]
        assert err.count("warning: the chain quadrature lost mass") == 1 and "may read low" in err

    def test_mass_lost_at_rounding_level_is_silent(self, tmp_path, capsys):
        # a 10-year 3-site run fits a q3 model whose estimate is exactly 0 with a quadrature
        # error of 0; the ~1e-12 start mass above the cells is not worth a warning
        data, fits, out = tmp_path / "data", tmp_path / "fits", tmp_path / "est"
        assert run_cli("synth", "--out", data, "--n-runs", 1, "--n-days", 3650, "--n-sites", 3) == 0
        assert run_cli("fit", "--out", fits, "--question", "q3", "--order-k", 1, data / "run_1.csv") == 0
        capsys.readouterr()
        assert run_cli("estimate", "--out", out, "--question", "q3", fits / "run_1.json") == 0
        d = json.loads((out / "estimate_q3.json").read_text())
        assert d["point"] == d["quadrature_error"] == 0.0
        assert d["quadrature_error"] < d["quadrature_lost_mass"] <= LOST_MASS_TOLERANCE
        assert "warning" not in capsys.readouterr().err

    def test_alpha_nesting(self, workspace, tmp_path):
        _, _, fits = workspace
        widths = {}
        for alpha in (0.05, 0.5):
            out = tmp_path / f"alpha_{alpha}"
            rc = run_cli("estimate", "--out", out, "--question", "q1", "--target", 5.0,
                         "--n-sim", 200, "--n-srun", 50, "--seed", 2, "--sim-days", 1000,
                         "--alpha", alpha, fits / "run_1.json", fits / "run_2.json")
            assert rc == 0
            d = json.loads((out / f"estimate_q1.json").read_text())
            widths[alpha] = d["ci_high"] - d["ci_low"]
        assert widths[0.5] <= widths[0.05]

    def test_question_mismatch_exit_2(self, workspace, tmp_path):
        _, _, fits = workspace
        rc = run_cli("estimate", "--out", tmp_path, "--question", "q2",
                     fits / "run_1.json")
        assert rc == 2

    def test_correction_and_rate_mode_flags(self, workspace, tmp_path, capsys):
        # the extremal-index correction is gone
        _, _, fits = workspace
        out = tmp_path / "alt"
        args = ("estimate", "--out", out, "--question", "q1", "--target", 5.0,
                "--n-sim", 40, "--n-srun", 5, "--seed", 6, "--sim-days", 1000,
                "--rate-mode", fits / "run_1.json", fits / "run_2.json")
        with pytest.raises(SystemExit) as exc:
            run_cli(*args, "--correction", "power")
        assert exc.value.code == 2 and "unrecognized arguments: --correction power" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli(*args) == 0
        d = json.loads((out / "estimate_q1.json").read_text())
        assert d["rate_mode"] is True
        assert 0.0 <= d["point"] <= 1.0

    def test_no_artifacts_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:  # argparse refuses it, as it refuses a bad flag
            run_cli("estimate", "--out", tmp_path, "--question", "q1")
        assert exc.value.code == 2
        assert "the following arguments are required: emulators" in capsys.readouterr().err

    def test_emulators_of_other_length_exit_2(self, workspace, tmp_path, capsys):
        # combine_rates refuses emulators of different run lengths, so the command does too
        _, _, fits = workspace
        assert run_cli("synth", "--out", tmp_path / "long", "--n-runs", 1, "--n-days", 10950,
                       "--n-sites", 4, "--xi", 0.1, "--seed", 6) == 0
        assert run_cli("fit", "--out", tmp_path / "long_fits", "--question", "q1", "--shape", "constant",
                       tmp_path / "long" / "run_1.csv") == 0
        capsys.readouterr()
        out = tmp_path / "est"
        long_path = tmp_path / "long_fits" / "run_1.json"
        assert run_cli("estimate", "--out", out, "--question", "q1", "--target", 6.0, "--n-sim", 10,
                       fits / "run_1.json", long_path) == 2
        err = capsys.readouterr().err
        assert (f"{long_path} (question q1, k = 1, 10950 days) does not match {fits / 'run_1.json'} "
                "(question q1, k = 1, 7300 days)") in err
        assert not out.exists()

    def test_artifacts_of_other_order_statistics_exit_2(self, workspace, tmp_path, capsys):
        # the largest and the third largest site value are different events
        _, data, fits = workspace
        k3 = tmp_path / "k3"
        assert run_cli("fit", "--out", k3, "--question", "q1", "--shape", "constant", "--order-k", 3,
                       data / "run_2.csv") == 0
        capsys.readouterr()
        out = tmp_path / "est"
        assert run_cli("estimate", "--out", out, "--question", "q1", "--target", 5.0, "--n-sim", 10,
                       "--sim-days", 1000, fits / "run_1.json", k3 / "run_1.json") == 2
        assert (f"{k3 / 'run_1.json'} (question q1, k = 3, 7300 days) does not match {fits / 'run_1.json'} "
                "(question q1, k = 1, 7300 days)") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--sim-days", 100], ["--correction", "power"]])
    def test_q3_refuses_a_window_and_a_correction(self, tmp_path, capsys, flags):
        # q3 would record a window without applying it; and no question takes an
        # extremal-index correction, so argparse refuses the option
        out = tmp_path / "est"
        args = ("estimate", "--out", out, "--question", "q3", "--n-sim", 5, *flags, GOLDEN_ARTIFACT)
        if flags[0] == "--correction":
            with pytest.raises(SystemExit) as exc:
                run_cli(*args)
            assert exc.value.code == 2 and "unrecognized arguments: --correction" in capsys.readouterr().err
        else:
            assert run_cli(*args) == 2
            assert "question q3 simulates whole runs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("question", ["q1", "q3"])
    def test_nan_target_exit_2(self, workspace, tmp_path, capsys, question):
        # NaN fails every comparison, so q3 would read it as the threshold itself
        artifact = workspace[2] / "run_1.json" if question == "q1" else GOLDEN_ARTIFACT
        out = tmp_path / "est"
        assert run_cli("estimate", "--out", out, "--question", question, "--target", "nan",
                       "--n-sim", 5, artifact) == 2
        assert "target_level must be a finite number, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["inf", "-inf"])
    @pytest.mark.parametrize("question", ["q1", "q3"])
    def test_infinite_target_exit_2(self, workspace, tmp_path, capsys, question, target):
        # strict JSON has no Infinity, so estimate_<q>.json could not hold it
        artifact = workspace[2] / "run_1.json" if question == "q1" else GOLDEN_ARTIFACT
        out = tmp_path / "est"
        assert run_cli("estimate", "--out", out, "--question", question, f"--target={target}",
                       "--n-sim", 5, artifact) == 2
        assert f"target_level must be a finite number, got {target}" in capsys.readouterr().err
        assert not out.exists()

    def test_args_files_serve_fit_and_estimate(self, workspace, tmp_path):
        # out, runs and emulators come from the files too, one file per command
        _, data, _ = workspace
        out = tmp_path / "files"
        fit_args, estimate_args = tmp_path / "fit.args", tmp_path / "estimate.args"
        fit_args.write_text(f"--out={out}\n--question=q1\n--shape=constant\n--run-length=2\n"
                            f"{data / 'run_1.csv'}\n{data / 'run_2.csv'}\n")
        estimate_args.write_text(f"--out={out}\n--question=q1\n--target=5.0\n--n-sim=40\n--n-srun=50\n"
                                 f"--seed=8\n--sim-days=1000\n--c-samples\n"
                                 f"{out / 'run_1.json'}\n{out / 'run_2.json'}\n")
        assert run_cli("fit", f"@{fit_args}") == 0
        assert run_cli("estimate", f"@{estimate_args}") == 0
        flags = tmp_path / "flags"
        assert run_cli("fit", "--out", flags, "--question", "q1", "--shape", "constant",
                       "--run-length", 2, data / "run_1.csv", data / "run_2.csv") == 0
        assert run_cli("estimate", "--out", flags, "--question", "q1", "--target", 5.0,
                       "--n-sim", 40, "--n-srun", 50, "--seed", 8, "--sim-days", 1000,
                       "--c-samples", flags / "run_1.json", flags / "run_2.json") == 0
        for name in ("run_1.json", "run_2.json", "c_samples_q1.csv"):
            assert (out / name).read_bytes() == (flags / name).read_bytes(), name
        from_files, from_flags = (json.loads((d / "estimate_q1.json").read_text()) for d in (out, flags))
        assert from_files.pop("c_samples_path") != from_flags.pop("c_samples_path")
        assert from_files == from_flags and from_files["n_sim"] == 40


OPTION_SAMPLES = {
    "out": ["o"], "runs": ["a.csv", "b.csv"], "emulators": ["a.json", "b.json"], "emulator": ["a.json"],
    "question": ["q2"], "calendar": ["30,30,30,30,30,30,30,30,30,30,30,31"], "seed": ["7"],
    "tau": ["0.9"], "run_length": ["2"], "shape": ["by_month"], "bulk": ["monthly"],
    "order_k": ["2"], "header": [],
    "target": ["6.5"], "n_sim": ["12"], "n_srun": ["3"], "alpha": ["0.1"], "rate_mode": [],
    "sim_days": ["100"], "workers": ["2"], "c_samples": [],
    "n_runs": ["2"], "n_days": ["400"], "n_sites": ["3"], "pi": ["0.1"], "xi": ["0.2"],
    "sigma": ["0.7"], "u0": ["1,1,1,1,1,1.5,1.5,1.5,1,1,1,1"], "rho": ["0.3"], "targets": ["4,5"],
}


@pytest.mark.parametrize("command", ["fit", "estimate", "synth", "diagnose"])
def test_every_option_takes_effect(tmp_path, command):
    # no option is a silent no-op: each sample value lands in the command's arguments,
    # differs from the default, and reads the same from an @FILE as from the command line
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in subparsers.choices[command]._actions if a.dest != "help"]
    assert {a.dest for a in actions} <= set(OPTION_SAMPLES)
    argv = [token for a in actions for token in a.option_strings[:1] + OPTION_SAMPLES[a.dest]]
    path = tmp_path / f"{command}.args"
    path.write_text("".join(f"{token}\n" for token in argv))
    required = {"fit": ["r.csv"], "estimate": ["r.json"], "diagnose": ["e.json"]}.get(command, [])
    defaults = vars(parser.parse_args([command, "--out", "d", *required]))
    from_flags = vars(parser.parse_args([command, *argv]))
    assert vars(parser.parse_args([command, f"@{path}"])) == from_flags
    for a in actions:
        assert from_flags[a.dest] != defaults[a.dest], a.dest


def test_cli_defaults_equal_the_library_defaults():
    # each default is declared in argparse and in a library signature; they must agree
    def parsed(command, *extra):
        return vars(cli.build_parser().parse_args([command, "--out", "o", *extra]))

    def default(func, name):
        return inspect.signature(func).parameters[name].default

    fit = parsed("fit", "r.csv")
    for name, stage, param in (("tau", ev.fit_threshold, "tau"), ("run_length", ev.run_decluster, "l")):
        assert fit[name] == default(ev.build_emulator, name) == default(stage, param), name
    # no --order-k: fit reads each run at the question's own k, QUESTIONS[question].order_k
    assert (fit["shape"], fit["order_k"]) == (default(ev.build_emulator, "shape_mode"), None)
    for func in (ev.build_emulator, ev.build_mixed):
        assert (fit["bulk"] == "monthly") == default(func, "month_conditional_bulk")

    estimate = parsed("estimate", "r.json")
    fields = {f.name: f.default for f in dataclasses.fields(ev.SimulationConfig)}
    for name, field in (("target", "target_level"), ("n_sim", "n_sim"), ("n_srun", "n_srun"),
                        ("seed", "seed"), ("alpha", "alpha"), ("rate_mode", "rate_mode"),
                        ("sim_days", "n_days")):
        assert estimate[name] == fields[field], name

    synth, spec = parsed("synth"), ev.SynthSpec()
    for name in ("n_runs", "n_days", "n_sites", "order_k", "pi", "xi", "rho", "calendar"):
        assert synth[name] == getattr(spec, name), name
    for name, field in (("sigma", "sigma_by_month"), ("u0", "u0_by_month")):
        assert np.array_equal(np.broadcast_to(synth[name], (12,)), getattr(spec, field)), name


class TestDiagnoseCommand:
    def test_outputs(self, workspace, tmp_path):
        _, _, fits = workspace
        out = tmp_path / "diag"
        assert run_cli("diagnose", "--out", out, fits / "run_1.json") == 0
        thresholds = (out / "thresholds.csv").read_text().strip().splitlines()
        assert len(thresholds) == 13  # header + 12 months
        qq = np.loadtxt(out / "qq.csv", delimiter=",", skiprows=1)
        assert qq.shape[1] == 2
        env = np.loadtxt(out / "qq_envelope.csv", delimiter=",", skiprows=1)
        assert env.shape[1] == 3
        assert np.all(env[:, 1] <= env[:, 2])

    def test_envelope_calibration_well_specified(self, tmp_path):
        # cluster maxima drawn exactly from the stored model, on isolated days
        # of a series that is otherwise below the threshold: at most ~5% of QQ
        # points should leave the 95% pointwise envelope
        n_days, u, sigma, xi = 20000, 1.0, 0.5, 0.1
        rng = np.random.default_rng(14)
        values = np.linspace(0.0, u, n_days)
        values[::33][:600] = u + ev.gp_quantile(rng.random(600), sigma, xi)
        series = ev.SummarySeries(1, 1, values, ev.Calendar().months_for(n_days))
        tm = ev.ThresholdModel(0.95, np.full(12, u), np.zeros(12), 0.0)
        gp = ev.GPModel(np.full(12, np.log(sigma)), "constant", np.full(12, xi), tm, 0.0)
        cs = ev.run_decluster(series, tm, l=3)
        assert cs.n_clusters == 600
        em = ev.RunEmulator(run_id=1, question="q1", order_k=1, months=series.months, series_values=values,
                            threshold_model=tm, gp_model=gp, mixed=None, cluster_set=cs)
        path = tmp_path / "well_specified.json"
        path.write_text(json.dumps(emulator_to_dict(em, ev.Calendar())))
        out = tmp_path / "diag"
        assert run_cli("diagnose", "--out", out, path) == 0
        qq = np.loadtxt(out / "qq.csv", delimiter=",", skiprows=1)
        env = np.loadtxt(out / "qq_envelope.csv", delimiter=",", skiprows=1)
        assert qq.shape == (600, 2)
        outside = np.mean((qq[:, 1] < env[:, 1]) | (qq[:, 1] > env[:, 2]))
        assert outside <= 0.05

    @staticmethod
    def artifact(values, u):
        return {
            "schema": ARTIFACT_SCHEMA, "run_id": 1, "question": "q1", "order_k": 1,
            "n_days": values.size, "month_lengths": list(ev.Calendar().month_lengths),
            "values": pack_floats(values), "month_conditional_bulk": False, "run_length_l": 3,
            "threshold": {"tau": 0.95, "u_by_month": [u] * 12, "log_zeta_by_month": [0.0] * 12,
                          "loglik": 0.0},
            "gp": {"log_sigma_by_month": [0.0] * 12, "shape_mode": "constant", "xi": 0.0,
                   "loglik": 0.0, "at_bound": []},
            "cev": None,
        }

    def test_empty_cluster_artifact_refused(self, tmp_path, capsys):
        # a series that never exceeds its thresholds rebuilds an empty cluster set;
        # fit never writes one, since fit_gp refuses it
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(self.artifact(np.linspace(0.0, 1.0, 400), 9.0)))
        assert run_cli("estimate", "--out", tmp_path / "e", "--question", "q1", path) == 2
        assert run_cli("diagnose", "--out", tmp_path / "d", path) == 2
        assert capsys.readouterr().err.count(f"{path}: the series never exceeds its thresholds") == 2
        assert not (tmp_path / "e").exists() and not (tmp_path / "d").exists()

    @pytest.mark.parametrize("schema", ["evtlite-emulator-v1", None])
    def test_other_schema_refused(self, tmp_path, capsys, schema):
        d = self.artifact(np.linspace(0.0, 2.0, 400), 1.0)
        if schema is None:
            del d["schema"]
        else:
            d["schema"] = schema
        path = tmp_path / "run_1.json"
        path.write_text(json.dumps(d))
        assert run_cli("estimate", "--out", tmp_path / "e", "--question", "q1", path) == 2
        assert run_cli("diagnose", "--out", tmp_path / "d", path) == 2
        err = capsys.readouterr().err
        assert err.count(f"{path}: artifact schema {schema!r}") == 2 and "refit" in err

    @pytest.mark.parametrize("breakage, message", [
        ("threshold null", "malformed artifact: TypeError"),
        ("gp list", "malformed artifact: TypeError"),
        ("values number", "malformed artifact: TypeError"),
        ("top-level list", "malformed artifact: a JSON list"),
        ("no cev key", "malformed artifact: KeyError('cev')"),
        ("xi null", "GP parameters must be finite"),
        # diagnose used to write its files, and estimate to exit 2 without the path
        ("question q9", "malformed artifact: question 'q9' is not one of ['q1', 'q2', 'q3']"),
        # non-finite or out-of-range numbers used to read as a point of 0.0 or pass diagnose
        ("values nan", "summary series values must be finite"),
        ("cev beta0 nan", "beta0 must lie in [0, 1], got nan"),
        ("cev beta0 7", "beta0 must lie in [0, 1], got 7.0"),
        ("cev beta1 1", "beta1 must lie in [-5.0, 0.999999], got 1.0"),
        ("cev q_threshold inf", "q_threshold must be positive and finite, got inf"),
        ("cev kde_bandwidth -1", "kde_bandwidth must be non-negative and finite, got -1.0"),
        ("cev residual nan", "the residual pool must be a non-empty 1-D array of finite values"),
        ("cev residuals empty", "the residual pool must be a non-empty 1-D array of finite values"),
        # estimate used to exit 2 without the path or 0 with a stray cev, diagnose to
        # exit 0 and skip the cev files or write them for a question that fits none
        ("q3 without cev", "malformed artifact: question q3 needs a cev"),
        ("q1 with cev", "malformed artifact: question q1 takes no cev"),
        # q1 and q2 build no mixed distribution, so the flag would be dropped unread
        ("q1 with monthly bulk", "malformed artifact: question q1 takes no month-conditional bulk"),
        ("q2 with monthly bulk", "malformed artifact: question q2 takes no month-conditional bulk"),
    ])
    def test_malformed_artifact_exit_2(self, tmp_path, capsys, breakage, message):
        d = self.artifact(np.linspace(0.0, 2.0, 400), 1.0)
        question = "q1"
        if breakage.startswith("cev "):
            d, question = json.loads(GOLDEN_ARTIFACT.read_text()), "q3"
            name, value = breakage.split()[1:]
            if name == "residual":
                d["cev"]["residuals"] = pack_floats(np.r_[1.0, np.nan])
            elif name == "residuals":
                d["cev"]["residuals"] = pack_floats(np.empty(0))
            else:
                d["cev"][name] = float(value)
        elif breakage == "q3 without cev":
            d, question = json.loads(GOLDEN_ARTIFACT.read_text()), "q3"
            d["cev"] = None
        elif breakage == "q1 with cev":
            d["cev"] = json.loads(GOLDEN_ARTIFACT.read_text())["cev"]
        elif breakage.endswith("with monthly bulk"):
            question = d["question"] = breakage.split()[0]
            d["month_conditional_bulk"] = True
        elif breakage == "values nan":
            d["values"] = pack_floats(np.r_[np.nan, np.linspace(0.0, 2.0, 399)])
        elif breakage == "threshold null":
            d["threshold"] = None
        elif breakage == "gp list":
            d["gp"] = [1, 2]
        elif breakage == "values number":
            d["values"] = 5
        elif breakage == "top-level list":
            d = [d]
        elif breakage == "no cev key":
            del d["cev"]
        elif breakage == "question q9":
            d["question"] = "q9"
        else:
            d["gp"]["xi"] = None
        path = tmp_path / "run_1.json"
        path.write_text(json.dumps(d))
        assert run_cli("estimate", "--out", tmp_path / "e", "--question", question, path) == 2
        assert run_cli("diagnose", "--out", tmp_path / "d", path) == 2
        assert capsys.readouterr().err.count(f"error: {path}: {message}") == 2
        assert not (tmp_path / "e").exists() and not (tmp_path / "d").exists()


class TestQ3Pipeline:
    def test_fit_estimate_diagnose_chain(self, tmp_path):
        data = tmp_path / "data"
        rc = run_cli("synth", "--out", data, "--n-runs", 1, "--n-days", 14600,
                     "--n-sites", 4, "--order-k", 3, "--pi", 0.05, "--xi", 0.0,
                     "--sigma", 0.6, "--u0", 1.2, "--rho", 0.5, "--seed", 19)
        assert rc == 0
        fits = tmp_path / "fits"
        assert run_cli("fit", "--out", fits, "--question", "q3", "--order-k", 3,
                       data / "run_1.csv") == 0
        d = json.loads((fits / "run_1.json").read_text())
        assert d["cev"] is not None
        assert 0.0 <= d["cev"]["beta0"] <= 1.0
        out = tmp_path / "est"
        assert run_cli("estimate", "--out", out, "--question", "q3", "--target", 4.0,
                       "--n-sim", 30, "--n-srun", 5, "--seed", 3,
                       fits / "run_1.json") == 0
        payload = json.loads((out / "estimate_q3.json").read_text())
        assert payload["point"] >= 0.0
        diag = tmp_path / "diag"
        assert run_cli("diagnose", "--out", diag, fits / "run_1.json") == 0
        band = np.loadtxt(diag / "cev_band.csv", delimiter=",", skiprows=1)
        assert band.shape[1] == 3
        assert np.all(band[:, 1] <= band[:, 2])
        assert (diag / "cev_scatter_raw.csv").exists()
        assert (diag / "cev_fit.csv").exists()


def test_import_leaves_out_scipy_signal_and_stats(tmp_path):
    # importing the package and running fit, estimate and diagnose loads numpy
    # only; synth alone imports scipy.special, when it draws. scipy's modules add
    # tens of MB and about half a second to every command that loads them
    src = str(Path(ev.__file__).resolve().parents[1])

    def fresh(code):
        """The last line that code prints in a new interpreter."""
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": src}).stdout.strip().rsplit("\n", 1)[-1]

    def run_main(*commands):
        return ("import sys; from evtlite.cli import main\n"
                + "".join(f"assert main({[str(a) for a in argv]!r}) == 0\n" for argv in commands))

    loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert fresh("import sys, evtlite, evtlite.cli; " + loaded) == "[]"
    data, fits, out = tmp_path / "data", tmp_path / "fits", tmp_path / "out"
    fresh(run_main(("synth", "--out", data, "--n-runs", 1, "--n-days", 14600, "--n-sites", 4, "--pi", 0.05,
                    "--sigma", 0.6, "--u0", 1.2, "--rho", 0.5, "--seed", 19)))
    commands = [
        ("fit", "--out", fits / "q1", "--question", "q1", "--shape", "constant", data / "run_1.csv"),
        ("fit", "--out", fits / "q3", "--question", "q3", "--order-k", 1, data / "run_1.csv"),
        ("estimate", "--out", out / "q1", "--question", "q1", "--target", 4.0, "--sim-days", 365,
         "--n-sim", 30, "--n-srun", 50, fits / "q1" / "run_1.json"),
        ("estimate", "--out", out / "q3", "--question", "q3", "--target", 4.0, "--n-sim", 10, "--n-srun", 5,
         fits / "q3" / "run_1.json"),
        ("diagnose", "--out", out / "diag1", fits / "q1" / "run_1.json"),
        ("diagnose", "--out", out / "diag3", fits / "q3" / "run_1.json"),
    ]
    assert fresh("import sys, evtlite\n" + run_main(*commands) + loaded) == "[]"
    assert (out / "q3" / "estimate_q3.json").exists() and (out / "diag3" / "cev_band.csv").exists()


def test_q3_estimate_loads_no_scipy_special(tmp_path):
    # the chain quadrature tabulates Phi with math.erf; scipy.special alone would add
    # about 22 MB to the estimate's peak RSS
    code = ("import sys; from evtlite.cli import main\n"
            f"assert main(['estimate', '--out', {str(tmp_path)!r}, '--question', 'q3', {str(GOLDEN_ARTIFACT)!r}]) == 0\n"
            "print('scipy.special' in sys.modules)")
    src = str(Path(ev.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip().rsplit("\n", 1)[-1] == "False"
    assert json.loads((tmp_path / "estimate_q3.json").read_text())["quadrature_error"] >= 0.0


def readme_commands():
    """The shell lines of the README's "Command line" example, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def test_readme_command_line_example_runs(tmp_path, monkeypatch):
    commands = readme_commands()
    assert [argv[:2] for argv in commands] == [["evtlite", c] for c in ("synth", "fit", "estimate", "diagnose")]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if "--n-days" in argv:  # a shorter ensemble, long enough for by-month shapes
            argv[argv.index("--n-days") + 1] = "14600"
        args = [path for arg in argv[1:] for path in (sorted(glob.glob(arg)) if "*" in arg else [arg])]
        assert main(args) == 0, argv
