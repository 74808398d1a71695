"""Batch command line: fit, estimate, synth, diagnose.

build_parser is the one place that names an option, its type, its choices
and its default. An argument @FILE stands for the arguments in FILE, one per
line, such as --tau=0.9 or a run path (argparse's fromfile_prefix_chars).
Each line is one whole argument, so a file holds no comments or blank
lines, and it serves the one command whose flags it holds. A flag given
after @FILE wins over the file's, as a later flag always does. argparse
checks a file's arguments as it checks typed ones and exits 2 on a bad one
or a missing file, naming no line. Any argument that starts with @ is read
as a file. synth and estimate's --c-samples draw from --seed, diagnose's QQ
envelope from a fixed stream, and fits are exact or profiled, with no random
restarts, so every command is idempotent given identical inputs.

Exit codes: 0 success, 1 statistical failure (non-convergence, degenerate
data), 2 I/O or usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .cev import LOST_MASS_TOLERANCE, to_laplace
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
from .gpd import SHAPE_MODES, qq_envelope, qq_exponential
from .ingest import Calendar, save_run
from .summarise import read_series
from .synth import SynthSpec, event_truth, iter_ensemble


def calendar(spec: str) -> Calendar:
    """Type of --calendar: "noleap" or 12 comma-separated month lengths."""
    if spec == "noleap":
        return Calendar()
    return Calendar(month_lengths=tuple(int(tok) for tok in spec.split(",")))


def float_list(spec: str) -> list[float]:
    """Type of a comma-separated list of finite numbers."""
    values = [float(tok) for tok in spec.split(",")]
    if not np.all(np.isfinite(values)):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {spec}")
    return values


def monthly_floats(spec: str) -> list[float]:
    """Type of a per-month value: one for every month or 12 comma-separated."""
    values = float_list(spec)
    if len(values) not in (1, 12):
        raise argparse.ArgumentTypeError(f"expected 1 or 12 comma-separated values, got {len(values)}")
    return values


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


def _read_emulator(path) -> RunEmulator:
    with open(path) as fh:
        try:
            return emulator_from_dict(json.load(fh))
        except ValueError as exc:  # JSONDecodeError included
            raise ValueError(f"{path}: {exc}") from exc


def cmd_fit(args: argparse.Namespace) -> int:
    out = Path(args.out)
    k = QUESTIONS[args.question].order_k if args.order_k is None else args.order_k
    print(f"question {args.question}: fitting {len(args.runs)} run(s)")
    for i, path in enumerate(args.runs, start=1):
        try:
            series = read_series(path, k, run_id=i, calendar=args.calendar, skip_header=args.header)
            emulator = build_emulator(series, args.question, tau=args.tau, run_length=args.run_length,
                                      shape_mode=args.shape, month_conditional_bulk=args.bulk == "monthly")
        except (ValueError, RuntimeError) as exc:
            raise type(exc)(f"run {i} ({path}): {exc}") from exc
        artifact = out / f"run_{i}.json"
        _write_json(artifact, emulator_to_dict(emulator, args.calendar))
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
    emulators = [_read_emulator(path) for path in args.emulators]
    combined = combine_rates(emulators, names=args.emulators)
    config = SimulationConfig(
        question=args.question, target_level=args.target, n_sim=args.n_sim,
        n_srun=args.n_srun, seed=args.seed, alpha=args.alpha,
        rate_mode=args.rate_mode, n_days=args.sim_days,
    )
    result = monte_carlo_estimate(emulators, config, combined)
    out = Path(args.out)
    samples_path = None
    if args.c_samples:
        samples_path = str(out / f"c_samples_{config.question}.csv")
        _write_csv(Path(samples_path), ["c", "mean_e"],
                   zip(result.ebar_samples, result.ebar_samples))
    payload = {
        "question": config.question,
        "point": result.point,
        "ci_low": result.ci_low,
        "ci_high": result.ci_high,
        "n_sim": config.n_sim,
        "n_srun": config.n_srun,
        "seed": config.seed,
        "alpha": config.alpha,
        "target_level": config.target,
        "theta_hat": combined.theta_hat,
        "pi_hat": combined.pi_hat,
        "rate_mode": config.rate_mode,
        "sim_days": config.n_days,
        "c_samples_path": samples_path,
        "law_tail_mass": result.law_tail_mass,
    }
    if result.quadrature_error is not None:  # q3: how far its chain quadrature may be off
        payload.update(quadrature_error=result.quadrature_error, quadrature_lost_mass=result.quadrature_lost_mass)
        if result.quadrature_lost_mass > max(result.quadrature_error, LOST_MASS_TOLERANCE):
            print(f"warning: the chain quadrature lost mass {result.quadrature_lost_mass:.3g} above its "
                  f"cells, more than its quadrature error {result.quadrature_error:.3g}, so the point "
                  "may read low", file=sys.stderr)
    estimate_path = out / f"estimate_{config.question}.json"
    _write_json(estimate_path, payload)
    print(f"{config.question}  point={result.point:.4f}  "
          f"ci=({result.ci_low:.4f}, {result.ci_high:.4f})  -> {estimate_path}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    out = Path(args.out)
    spec = SynthSpec(
        n_runs=args.n_runs, n_days=args.n_days, n_sites=args.n_sites,
        order_k=args.order_k, pi=args.pi, u0_by_month=args.u0, sigma_by_month=args.sigma,
        xi=args.xi, rho=args.rho, calendar=args.calendar,
    )
    out.mkdir(parents=True, exist_ok=True)
    for run_id, values in enumerate(iter_ensemble(spec, seed=args.seed), start=1):  # written before the next is drawn
        save_run(values, out / f"run_{run_id}.csv")
    truth = {"seed": args.seed, "spec": spec.to_dict(),
             "events": [event_truth(spec, target) for target in args.targets or ()]}
    _write_json(out / "truth.json", truth)
    print(f"wrote {spec.n_runs} run(s) of {spec.n_days} x {spec.n_sites} to {out}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    emulator = _read_emulator(args.emulator)
    cs = emulator.cluster_set
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    tm = emulator.threshold_model
    _write_csv(out / "thresholds.csv", ["month", "u", "zeta", "sigma", "xi"],
               [(m, tm.u_by_month[m - 1], np.exp(tm.log_zeta_by_month[m - 1]),
                 emulator.gp_model.sigma_by_month[m - 1], emulator.gp_model.xi_by_month[m - 1])
                for m in range(1, 13)])

    _write_csv(out / "qq.csv", ["theoretical", "empirical"], qq_exponential(emulator.gp_model, cs))
    _write_csv(out / "qq_envelope.csv", ["theoretical", "lower", "upper"], qq_envelope(cs.n_clusters))

    cev = emulator.cev_model
    if cev is not None:
        raw_x = emulator.series_values[:-1]
        raw_y = emulator.series_values[1:]
        _write_csv(out / "cev_scatter_raw.csv", ["x", "y"], zip(raw_x, raw_y))
        lap = to_laplace(emulator.mixed, emulator.series_values, emulator.months)
        _write_csv(out / "cev_scatter_laplace.csv", ["x", "y"], zip(lap[:-1], lap[1:]))
        grid = np.linspace(cev.q_threshold, max(lap.max(), cev.q_threshold + 1.0), 101)
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
    """The parser of every command: the only place an option is named."""
    parser = argparse.ArgumentParser(prog="evtlite", fromfile_prefix_chars="@",
                                     description="exceedance-probability estimation for climate ensembles")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, handler):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--out", required=True, help="output directory")
        return p.add_argument

    fit = command("fit", "fit per-run emulators from run CSVs", cmd_fit)
    estimate = command("estimate", "combine emulator artifacts into an estimate", cmd_estimate)
    synth = command("synth", "generate a synthetic ensemble with known truth", cmd_synth)
    diagnose = command("diagnose", "export QQ and dependence diagnostics", cmd_diagnose)
    for add in (fit, estimate):
        add("--question", choices=sorted(QUESTIONS), default="q1")
    for add in (fit, synth):
        add("--calendar", type=calendar, default="noleap",
            help='"noleap" or 12 comma-separated month lengths')
    for add in (estimate, synth):
        add("--seed", type=int, default=0)

    fit("runs", nargs="+", help="run CSV files, one per climate run")
    fit("--tau", type=float, default=0.95)
    fit("--run-length", type=int, default=3)
    fit("--shape", choices=SHAPE_MODES, help="default: the question's")
    fit("--bulk", choices=["pooled", "monthly"], default="pooled")
    fit("--order-k", type=int, help="default: the question's")
    fit("--header", action="store_true", help="skip one header line in each CSV")

    estimate("emulators", nargs="+", help="emulator JSON artifacts")
    estimate("--target", type=float, help="default: the question's")
    estimate("--n-sim", type=int, default=10_000, help="draws of e_bar for --c-samples; estimates are exact")
    estimate("--n-srun", type=int, default=50)
    estimate("--alpha", type=float, default=0.05)
    estimate("--rate-mode", action="store_true", help="count at most one event per simulated run")
    estimate("--sim-days", type=int, help="simulate runs of this many days (default: fitted length)")
    estimate("--workers", type=int, default=1, help="accepted for old scripts; has no effect")
    estimate("--c-samples", action="store_true",
             help="also write n_sim draws of e_bar to CSV, in both its columns c and mean_e")

    synth("--n-runs", type=int, default=4)
    synth("--n-days", type=int, default=60225)
    synth("--n-sites", type=int, default=25)
    synth("--order-k", type=int, default=1)
    synth("--pi", type=float, default=0.05)
    synth("--xi", type=float, default=0.0)
    synth("--sigma", type=monthly_floats, default="0.5", help="GP scale: one value or 12 comma-separated")
    synth("--u0", type=monthly_floats, default="1.0", help="tail start: one value or 12 comma-separated")
    synth("--rho", type=float, default=0.0, help="AR(1) copula coefficient in [0, 1)")
    synth("--targets", type=float_list, help="comma-separated target levels for truth.json")

    diagnose("emulator", help="emulator JSON artifact")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
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
