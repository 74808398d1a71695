#!/usr/bin/env python3
"""End-to-end demo on synthetic data: synth -> fit -> estimate -> diagnose.

Generates an ensemble with a known per-day event probability, fits per-run
emulators, estimates q1 from the exact law of the ensemble count and
compares the estimate against the generator's closed-form truth.

    python scripts/synthetic_demo.py --out demo_out
"""

import argparse
import json
from pathlib import Path

from evtlite import Calendar
from evtlite.cli import main as cli


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_out")
    parser.add_argument("--n-days", type=int, default=14600)
    parser.add_argument("--n-runs", type=int, default=4)
    parser.add_argument("--target", type=float, default=4.5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    out = Path(args.out)
    data, fits, est, diag = out / "data", out / "fits", out / "estimate", out / "diagnostics"

    assert cli(["synth", "--out", str(data), "--n-runs", str(args.n_runs),
                "--n-days", str(args.n_days), "--n-sites", "25", "--order-k", "1",
                "--pi", "0.05", "--xi", "0.1", "--sigma", "0.5",
                "--u0", "1.0,1.0,1.0,1.1,1.3,1.5,1.6,1.5,1.3,1.1,1.0,1.0",
                "--seed", str(args.seed), "--targets", str(args.target)]) == 0

    run_csvs = [str(data / f"run_{i}.csv") for i in range(1, args.n_runs + 1)]
    assert cli(["fit", "--out", str(fits), "--question", "q1", "--shape", "constant",
                *run_csvs]) == 0

    artifacts = [str(fits / f"run_{i}.json") for i in range(1, args.n_runs + 1)]
    assert cli(["estimate", "--out", str(est), "--question", "q1",
                "--target", str(args.target), "--n-sim", "2000", "--n-srun", "50",
                "--sim-days", "1000", "--seed", str(args.seed), "--c-samples",
                *artifacts]) == 0

    assert cli(["diagnose", "--out", str(diag), artifacts[0]]) == 0

    truth = json.loads((data / "truth.json").read_text())["events"][0]
    estimate = json.loads((est / "estimate_q1.json").read_text())
    expected = truth["per_day_by_month"]
    true_count = float(sum(expected[m - 1] for m in Calendar().months_for(1000)))
    print()
    print(f"target level            : {args.target}")
    print(f"analytic expected count : {true_count:.4f}  (per simulated 1000-day run)")
    print(f"estimated point         : {estimate['point']:.4f}")
    print(f"95% interval            : ({estimate['ci_low']:.4f}, {estimate['ci_high']:.4f})")
    print(f"pi_hat / theta_hat      : {estimate['pi_hat']:.4f} / {estimate['theta_hat']:.4f}")
    print(f"diagnostics             : {diag}")


if __name__ == "__main__":
    run()
