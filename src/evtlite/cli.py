"""Batch command line: fit, estimate, synth, diagnose.

Options come from flags, an optional flat key=value config file, then
built-in defaults, in that precedence order. All randomness in a command
derives from its --seed and fits are exact or profiled, with no random
restarts, so every command is idempotent given identical inputs.

Exit codes: 0 success, 1 statistical failure (non-convergence, degenerate
data), 2 I/O or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .cev import to_laplace
from .ensemble import (
    QUESTIONS,
    RunEmulator,
    SimulationConfig,
    build_emulator,
    combine_rates,
    emulator_from_dict,
    emulator_to_dict,
    monte_carlo_estimate,
)
from .gpd import qq_envelope, qq_exponential
from .ingest import Calendar, load_run
from .summarise import SummarySeries
from .synth import SynthSpec, event_truth, generate_ensemble

_CONFIG_KEYS = {
    "question", "tau", "run_length", "q_prob", "shape", "bulk", "order_k",
    "header", "calendar", "min_month_obs", "min_month_maxima",
    "target", "n_sim", "n_srun", "seed", "alpha", "rate_mode", "correction",
    "sim_days", "workers", "c_samples",
    "n_runs", "n_days", "n_sites", "pi", "xi", "sigma", "u0", "rho", "targets",
    "n_boot", "out", "runs",
}

_DEFAULTS = {
    "question": "q1", "tau": 0.95, "run_length": 3, "q_prob": 0.90,
    "shape": None, "bulk": "pooled", "order_k": None, "header": False,
    "calendar": "noleap", "min_month_obs": 50, "min_month_maxima": 10,
    "target": None, "n_sim": 10_000, "n_srun": 50, "seed": 0, "alpha": 0.05,
    "rate_mode": False, "correction": "power", "sim_days": None, "workers": 1,
    "c_samples": False,
    "n_runs": 4, "n_days": 60225, "n_sites": 25, "pi": 0.05, "xi": 0.0,
    "sigma": "0.5", "u0": "1.0", "rho": 0.0, "targets": None, "n_boot": 200,
}

_BOOL_KEYS = {"header", "rate_mode", "c_samples"}
_INT_KEYS = {"run_length", "order_k", "min_month_obs", "min_month_maxima",
             "n_sim", "n_srun", "seed", "sim_days", "workers",
             "n_runs", "n_days", "n_sites", "n_boot"}
_FLOAT_KEYS = {"tau", "q_prob", "target", "alpha", "pi", "xi", "rho"}


def _parse_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    if key in _BOOL_KEYS:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"config key {key!r}: expected a boolean, got {value!r}")
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    return value


def _merge_options(args: argparse.Namespace, keys) -> dict:
    file_values = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    merged = {}
    for key in keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None and flag_value is not False:
            merged[key] = flag_value
        elif key in file_values:
            merged[key] = _coerce(key, file_values[key])
        else:
            merged[key] = _DEFAULTS[key]
    return merged


def _parse_calendar(spec) -> Calendar:
    if spec is None or spec == "noleap":
        return Calendar()
    lengths = [int(tok) for tok in str(spec).split(",")]
    return Calendar(month_lengths=tuple(lengths))


def _parse_float_list(spec, n: int) -> np.ndarray:
    vals = [float(tok) for tok in str(spec).split(",")]
    if len(vals) == 1:
        return np.full(n, vals[0])
    if len(vals) != n:
        raise ValueError(f"expected 1 or {n} comma-separated values, got {len(vals)}")
    return np.asarray(vals)


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])


def _read_emulator(path) -> tuple[RunEmulator, str]:
    with open(path) as fh:
        try:
            return emulator_from_dict(json.load(fh))
        except ValueError as exc:  # JSONDecodeError included
            raise ValueError(f"{path}: {exc}") from exc


def cmd_fit(args: argparse.Namespace) -> int:
    opts = _merge_options(args, ["question", "tau", "run_length", "q_prob", "shape", "bulk",
                                 "order_k", "header", "calendar", "min_month_obs",
                                 "min_month_maxima"])
    paths = list(args.runs)
    if not paths and getattr(args, "config", None):
        conf = _parse_config_file(args.config)
        if "runs" in conf:
            paths = [p.strip() for p in conf["runs"].split(",")]
    if not paths:
        raise ValueError("no run CSV files given")
    out = Path(args.out)
    calendar = _parse_calendar(opts["calendar"])
    print(f"question {opts['question']}: fitting {len(paths)} run(s)")
    for i, path in enumerate(paths, start=1):
        run = load_run(path, run_id=i, calendar=calendar, skip_header=opts["header"])
        try:
            emulator = build_emulator(
                run, opts["question"], order_k=opts["order_k"], tau=opts["tau"],
                run_length=opts["run_length"], q_prob=opts["q_prob"],
                shape_mode=opts["shape"], min_month_obs=opts["min_month_obs"],
                min_month_maxima=opts["min_month_maxima"],
                month_conditional_bulk=opts["bulk"] == "monthly",
            )
        except (ValueError, RuntimeError) as exc:
            raise RuntimeError(f"run {i} ({path}): {exc}") from exc
        artifact = out / f"run_{i}.json"
        _write_json(artifact, emulator_to_dict(emulator, opts["question"], calendar))
        models = (("gp", emulator.gp_model), ("cev", emulator.cev_model))
        edges = [f"{name} {p}" for name, model in models if model is not None for p in model.at_bound]
        if edges:
            print(f"warning: run {i}: fitted {', '.join(edges)} on the edge of the search box",
                  file=sys.stderr)
        cs = emulator.cluster_set  # fit_gp has refused an empty one, so theta is defined
        print(f"  run {i}: n_exceed={cs.n_exceedances} n_clusters={cs.n_clusters} "
              f"pi_star={cs.pi_star_hat:.5f} theta={cs.theta_hat:.4f} -> {artifact}")
        sig = emulator.gp_model.sigma_by_month
        xi = emulator.gp_model.xi_by_month
        u = emulator.threshold_model.u_by_month
        print("    month:  " + " ".join(f"{m:>7d}" for m in range(1, 13)))
        print("    u:      " + " ".join(f"{v:7.3f}" for v in u))
        print("    sigma:  " + " ".join(f"{v:7.3f}" for v in sig))
        print("    xi:     " + " ".join(f"{v:7.3f}" for v in xi))
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    opts = _merge_options(args, ["question", "target", "n_sim", "n_srun", "seed", "alpha",
                                 "rate_mode", "correction", "sim_days", "workers", "c_samples"])
    if not args.emulators:
        raise ValueError("no emulator artifacts given")
    emulators = []
    for path in args.emulators:
        emulator, question = _read_emulator(path)
        if question != opts["question"]:
            raise ValueError(f"{path}: fitted for question {question}, requested {opts['question']}")
        emulators.append(emulator)
    combined = combine_rates(emulators)
    target = opts["target"]
    if target is None:
        target = QUESTIONS[opts["question"]].target
    config = SimulationConfig(
        question=opts["question"], target_level=float(target), n_sim=opts["n_sim"],
        n_srun=opts["n_srun"], seed=opts["seed"], alpha=opts["alpha"],
        rate_mode=bool(opts["rate_mode"]), correction=opts["correction"],
        n_days=opts["sim_days"], workers=opts["workers"],
    )
    result = monte_carlo_estimate(emulators, config, combined)
    out = Path(args.out)
    samples_path = None
    if opts["c_samples"]:
        samples_path = str(out / f"c_samples_{config.question}.csv")
        _write_csv(Path(samples_path), ["c", "mean_e"],
                   zip(result.c_samples, result.mean_e_samples))
    payload = {
        "question": config.question,
        "point": result.point,
        "ci_low": result.ci_low,
        "ci_high": result.ci_high,
        "mc_se": result.mc_se,
        "n_sim": config.n_sim,
        "n_srun": config.n_srun,
        "seed": config.seed,
        "alpha": config.alpha,
        "target_level": config.target_level,
        "theta_hat": combined.theta_hat,
        "pi_hat": combined.pi_hat,
        "correction": config.correction,
        "rate_mode": config.rate_mode,
        "sim_days": config.n_days,
        "c_samples_path": samples_path,
    }
    estimate_path = out / f"estimate_{config.question}.json"
    _write_json(estimate_path, payload)
    print(f"{config.question}  point={result.point:.4f}  "
          f"ci=({result.ci_low:.4f}, {result.ci_high:.4f})  -> {estimate_path}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    opts = _merge_options(args, ["n_runs", "n_days", "n_sites", "order_k", "pi", "xi",
                                 "sigma", "u0", "rho", "seed", "calendar", "targets"])
    out = Path(args.out)
    order_k = opts["order_k"] if opts["order_k"] is not None else 1
    spec = SynthSpec(
        n_runs=opts["n_runs"], n_days=opts["n_days"], n_sites=opts["n_sites"],
        order_k=order_k, pi=opts["pi"],
        u0_by_month=_parse_float_list(opts["u0"], 12),
        sigma_by_month=_parse_float_list(opts["sigma"], 12),
        xi=opts["xi"], rho=opts["rho"], calendar=_parse_calendar(opts["calendar"]),
    )
    runs = generate_ensemble(spec, seed=opts["seed"])
    out.mkdir(parents=True, exist_ok=True)
    for run in runs:
        np.savetxt(out / f"run_{run.run_id}.csv", run.values, delimiter=",", fmt="%.17g")
    truth = {"seed": opts["seed"], "spec": spec.to_dict(), "events": []}
    if opts["targets"]:
        for tok in str(opts["targets"]).split(","):
            truth["events"].append(event_truth(spec, float(tok)))
    _write_json(out / "truth.json", truth)
    print(f"wrote {spec.n_runs} run(s) of {spec.n_days} x {spec.n_sites} to {out}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    opts = _merge_options(args, ["n_boot", "seed"])
    emulator, _question = _read_emulator(args.emulator)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    tm = emulator.threshold_model
    _write_csv(out / "thresholds.csv", ["month", "u", "zeta", "sigma", "xi"],
               [(m, tm.u_by_month[m - 1], np.exp(tm.log_zeta_by_month[m - 1]),
                 emulator.gp_model.sigma_by_month[m - 1], emulator.gp_model.xi_by_month[m - 1])
                for m in range(1, 13)])

    cs = emulator.cluster_set
    if cs.n_clusters == 0:
        print("warning: empty cluster set, skipping QQ output", file=sys.stderr)
    else:
        qq = qq_exponential(emulator.gp_model, cs)
        _write_csv(out / "qq.csv", ["theoretical", "empirical"], qq)
        env = qq_envelope(emulator.gp_model, cs, n_boot=opts["n_boot"], seed=opts["seed"])
        _write_csv(out / "qq_envelope.csv", ["theoretical", "lower", "upper"], env)

    cev = emulator.cev_model
    if cev is not None:
        raw_x = emulator.series_values[:-1]
        raw_y = emulator.series_values[1:]
        _write_csv(out / "cev_scatter_raw.csv", ["x", "y"], zip(raw_x, raw_y))
        lap = to_laplace(SummarySeries(emulator.run_id, emulator.order_k,
                                       emulator.series_values, emulator.months),
                         emulator.mixed)
        _write_csv(out / "cev_scatter_laplace.csv", ["x", "y"],
                   zip(lap.values[:-1], lap.values[1:]))
        grid = np.linspace(cev.q_threshold, max(lap.values.max(), cev.q_threshold + 1.0), 101)
        mean_z = float(np.mean(cev.residuals))
        lo_z, hi_z = np.quantile(cev.residuals, [0.025, 0.975])
        line = cev.beta0 * grid + grid ** cev.beta1 * mean_z
        lower = cev.beta0 * grid + grid ** cev.beta1 * lo_z
        upper = cev.beta0 * grid + grid ** cev.beta1 * hi_z
        _write_csv(out / "cev_fit.csv", ["x", "mean"], zip(grid, line))
        _write_csv(out / "cev_band.csv", ["x", "lower", "upper"], zip(grid, lower, upper))
    print(f"diagnostics written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evtlite",
                                     description="exceedance-probability estimation for climate ensembles")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value config file; flags win")
        p.add_argument("--out", required=True, help="output directory")

    p_fit = sub.add_parser("fit", help="fit per-run emulators from run CSVs")
    add_common(p_fit)
    p_fit.add_argument("runs", nargs="*", help="run CSV files, one per climate run")
    p_fit.add_argument("--question", choices=sorted(QUESTIONS))
    p_fit.add_argument("--tau", type=float)
    p_fit.add_argument("--run-length", dest="run_length", type=int)
    p_fit.add_argument("--q-prob", dest="q_prob", type=float)
    p_fit.add_argument("--shape", choices=["constant", "by_month"])
    p_fit.add_argument("--bulk", choices=["pooled", "monthly"])
    p_fit.add_argument("--order-k", dest="order_k", type=int)
    p_fit.add_argument("--header", action="store_true", default=None,
                       help="skip one header line in each CSV")
    p_fit.add_argument("--calendar", help='"noleap" or 12 comma-separated month lengths')
    p_fit.add_argument("--min-month-obs", dest="min_month_obs", type=int)
    p_fit.add_argument("--min-month-maxima", dest="min_month_maxima", type=int)

    p_est = sub.add_parser("estimate", help="combine emulator artifacts into an estimate")
    add_common(p_est)
    p_est.add_argument("emulators", nargs="*", help="emulator JSON artifacts")
    p_est.add_argument("--question", choices=sorted(QUESTIONS))
    p_est.add_argument("--target", type=float)
    p_est.add_argument("--n-sim", dest="n_sim", type=int)
    p_est.add_argument("--n-srun", dest="n_srun", type=int)
    p_est.add_argument("--seed", type=int)
    p_est.add_argument("--alpha", type=float)
    p_est.add_argument("--rate-mode", dest="rate_mode", action="store_true", default=None,
                       help="count at most one event per simulated run")
    p_est.add_argument("--correction", choices=["power", "multiplicative"])
    p_est.add_argument("--sim-days", dest="sim_days", type=int,
                       help="simulate runs of this many days (default: fitted length)")
    p_est.add_argument("--workers", type=int)
    p_est.add_argument("--c-samples", dest="c_samples", action="store_true", default=None,
                       help="also dump per-simulation statistics to CSV")

    p_syn = sub.add_parser("synth", help="generate a synthetic ensemble with known truth")
    add_common(p_syn)
    p_syn.add_argument("--n-runs", dest="n_runs", type=int)
    p_syn.add_argument("--n-days", dest="n_days", type=int)
    p_syn.add_argument("--n-sites", dest="n_sites", type=int)
    p_syn.add_argument("--order-k", dest="order_k", type=int)
    p_syn.add_argument("--pi", type=float)
    p_syn.add_argument("--xi", type=float)
    p_syn.add_argument("--sigma", help="GP scale: one value or 12 comma-separated")
    p_syn.add_argument("--u0", help="tail start: one value or 12 comma-separated")
    p_syn.add_argument("--rho", type=float, help="AR(1) copula coefficient in [0, 1)")
    p_syn.add_argument("--seed", type=int)
    p_syn.add_argument("--calendar")
    p_syn.add_argument("--targets", help="comma-separated target levels for truth.json")

    p_diag = sub.add_parser("diagnose", help="export QQ and dependence diagnostics")
    add_common(p_diag)
    p_diag.add_argument("emulator", help="emulator JSON artifact")
    p_diag.add_argument("--n-boot", dest="n_boot", type=int)
    p_diag.add_argument("--seed", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"fit": cmd_fit, "estimate": cmd_estimate, "synth": cmd_synth,
                "diagnose": cmd_diagnose}
    try:
        return handlers[args.command](args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
