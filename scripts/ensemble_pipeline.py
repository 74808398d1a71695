#!/usr/bin/env python3
"""Full three-question pipeline over a directory of ensemble run CSVs.

Expects one CSV per climate run (rows = days, columns = sites, no header by
default). Fits per-run emulators for each question, writes estimates and
diagnostics under --out, and prints a summary table.

    python scripts/ensemble_pipeline.py --data /path/to/runs --out results
"""

import argparse
import json
from pathlib import Path

from evtlite.cli import main as cli
from evtlite.ensemble import QUESTIONS


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", required=True, help="directory containing run CSVs")
    parser.add_argument("--out", default="results")
    parser.add_argument("--n-sim", type=int, default=10_000)
    parser.add_argument("--n-srun", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--header", action="store_true")
    args = parser.parse_args(argv)

    run_csvs = sorted(str(p) for p in Path(args.data).glob("*.csv"))
    if not run_csvs:
        raise SystemExit(f"no CSV files found in {args.data}")
    out = Path(args.out)
    rows = []
    for question in QUESTIONS:
        fits = out / question / "fits"
        fit_args = ["fit", "--out", str(fits), "--question", question]
        if args.header:
            fit_args.append("--header")
        if cli(fit_args + run_csvs) != 0:
            raise SystemExit(f"{question}: fitting failed")
        artifacts = sorted(str(p) for p in fits.glob("run_*.json"))
        est = out / question
        rc = cli(["estimate", "--out", str(est), "--question", question, "--n-sim", str(args.n_sim),
                  "--n-srun", str(args.n_srun), "--seed", str(args.seed), "--c-samples", *artifacts])
        if rc != 0:
            raise SystemExit(f"{question}: estimation failed")
        cli(["diagnose", "--out", str(out / question / "diagnostics"), artifacts[0]])
        rows.append(json.loads((est / f"estimate_{question}.json").read_text()))

    print()
    print(f"{'question':>8} {'target':>8} {'point':>8} {'95% interval':>20}")
    for payload in rows:  # each question's estimate at its built-in target
        interval = f"({payload['ci_low']:.3f}, {payload['ci_high']:.3f})"
        print(f"{payload['question']:>8} {payload['target_level']:>8.1f} {payload['point']:>8.3f} {interval:>20}")


if __name__ == "__main__":
    run()
