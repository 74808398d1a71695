"""Fit-and-estimate benchmark of the evtlite command line.

    python3 perfbench/run.py --workload q1-full --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The run pins itself to one core, synthesises the workload's inputs from
``--seed`` in one child process (one synth per run, timed for ``setup_s``),
then times ``evtlite fit`` and ``evtlite estimate`` in a second, fresh
child process and checks every output. Fit and estimate repeat until
``--seconds`` are spent (at least once each) and medians are reported;
with ``--trace 1`` each repeat is an untraced and a traced command, and
per-layer self times are reported. Every time is scaled to a reference
core speed by a probe sampled while the command runs (gauge.py). The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, whose names and units are
those listed in BENCHMARK.json.

A run record (machine, seeds, parameters, operations, counts) and, when
traced, the spans are written under ``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import N_RUNS, N_SRUN, PAPER_N_SIM, WORKLOADS  # noqa: E402

DEADLINE_S = 170.0
SETUP_TIMEOUT_S = 60.0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_phase(phase: str, args: list[str], timeout: float, env: dict) -> None:
    """Run one worker phase; a non-zero exit or a timeout raises."""
    cmd = [sys.executable, str(HERE / "worker.py"), phase, *args]
    # the child's output goes to stderr so that the result stays the last stdout line
    subprocess.run(cmd, check=True, timeout=timeout, env=env, stdout=sys.stderr)


def derived_line(w, estimate_s: float, mc_s: float) -> str:
    """estimate_s with its Monte Carlo part scaled to the paper's n_sim."""
    factor = PAPER_N_SIM / w.n_sim
    paper_s = estimate_s - mc_s + mc_s * factor
    return (f"derived {w.name}: estimate at paper defaults (n_sim={PAPER_N_SIM}, n_srun={N_SRUN}) "
            f"~ {paper_s:.1f} s, EXTRAPOLATED: Monte Carlo {mc_s:.3f} s x{factor:g} plus the "
            f"rest of estimate_s {estimate_s - mc_s:.3f} s, at n_sim={w.n_sim}; "
            f"re-anchor baseline: {w.baseline}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="evtlite fit-and-estimate benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evtlite" / "cli.py").is_file():
        print(f"error: no evtlite sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)

    # a terminated run still stops its child and removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # inherited by both children
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = ROOT / ".bench_work" / stem
    records = ROOT / ".bench_work" / "records"
    records.mkdir(parents=True, exist_ok=True)
    spans_path = records / f"{stem}-spans.json"
    common = ["--workload", w.name, "--seed", str(args.seed), "--dir", str(work)]
    start = time.monotonic()
    try:
        work.mkdir(parents=True)
        try:
            run_phase("setup", common, SETUP_TIMEOUT_S, env)
            run_phase("measure", common + ["--seconds", str(args.seconds),
                                           "--trace", str(args.trace), "--spans", str(spans_path)],
                      DEADLINE_S - (time.monotonic() - start), env)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        setup = json.loads((work / "setup.json").read_text())
        result = json.loads((work / "measure.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    estimate_s = result["estimate_s"]
    if trace:
        values = result["per_layer"]
        wanted = declared["per_layer"]
    else:
        values = {
            # set-up of all the workload's runs, from the median synth of one run
            "setup_s": N_RUNS * statistics.median(t["s"] for t in setup["setup_timings"]),
            "fit_s": result["fit_s"],
            "estimate_s": estimate_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "machine": {"nproc": os.cpu_count(), "pinned_cpu": cpu, "cpu_model": cpu_model(),
                    "platform": platform.platform(), **result["versions"]},
        "workload": w.to_dict(),
        "seeds": {"workload": args.seed, "synth_per_run": setup["run_seeds"],
                  "estimate": args.seed},
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "setup_timings": setup["setup_timings"],
        "commands": result["commands"],
        "counts_computed": result["counts"],
        "truth": result["truth"],
        "observed_consecutive_clusters": result["observed_consecutive_clusters"],
        "absent_layers": result.get("absent_layers", []),
        "trace_overhead": result.get("trace_overhead"),
        "derived": derived_line(w, estimate_s, result["mc_s"]),
        "metrics": metrics,
    }
    (records / f"{stem}.json").write_text(json.dumps(record, indent=2))

    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name in record["absent_layers"]:
        print(f"absent layer: {name} (not wrapped; its metrics read 0)")
    overhead = result.get("trace_overhead")
    if overhead is not None and not overhead["resolved"]:
        print(f"trace overhead {overhead['frac']:+.3f} is unresolved: traced and untraced "
              f"times overlap ({overhead['pairs']} traced commands)")
    print(record["derived"])
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
