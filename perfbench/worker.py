"""The two child-process phases of the benchmark, each in a fresh interpreter.

    python3 perfbench/worker.py setup   --workload q1-full --seed 1 --dir DIR
    python3 perfbench/worker.py measure --workload q1-full --seed 1 --dir DIR \
        --seconds 30 --trace 0 --spans FILE

``setup`` synthesises the workload's run CSVs, one ``evtlite synth`` per
run, and times each; ``measure`` runs ``evtlite fit`` and ``evtlite
estimate`` through ``evtlite.cli.main`` until the window is spent and
checks what each command wrote. Every command runs under the host-speed
gauge (gauge.py), and its time is reported scaled to the gauge's
reference speed; the wall time is kept in the run record. Each phase
writes ``DIR/<phase>.json``; run.py reads it. Set-up runs in its own
process so that the measuring process's peak RSS is that of fit and
estimate alone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from evtlite import cli  # noqa: E402

import checks  # noqa: E402
import gauge  # noqa: E402
import spans  # noqa: E402
from workloads import N_DAYS, N_RUNS, N_SRUN, PI, SIGMA, TAU, U0, WORKLOADS  # noqa: E402

KINDS = ("fit", "estimate")
# per-layer metric -> span whose self time per command it reports
SELF_TIME_METRICS = {
    "ingest.load_s": "ingest.load",
    "summarise.reduce_s": "summarise.reduce",
    "threshold.fit_s": "threshold.fit",
    "decluster.s": "decluster",
    "gpd.fit_s": "gpd.fit",
    "gpd.build_mixed_s": "gpd.build_mixed",
    "gpd.mixed_cdf_s": "gpd.mixed_cdf",
    "cev.to_laplace_s": "cev.to_laplace",
    "cev.fit_s": "cev.fit",
    "cli.fit_self_s": "cli.fit",
    "cli.artifact_read_s": "cli.artifact_read",
    "cli.estimate_self_s": "cli.estimate",
    "ensemble.build_emulator_s": "ensemble.build_emulator",
    "ensemble.combine_s": "ensemble.combine",
    "ensemble.laplace_targets_s": "ensemble.laplace_targets",
    "ensemble.mc_s": "ensemble.mc",
}


def run_seed(seed: int, run: int) -> int:
    """Synth seed of run ``run`` (1-based) of the workload seed ``seed``."""
    return seed * 1000 + run


def run_cli(argv: list[str], tracer: spans.Tracer | None = None, root: str = "",
            command: str = "") -> tuple[int, dict, str]:
    """(exit code, timing, captured output) of one evtlite.cli.main call.

    The timing is gauge.Gauge.record: wall seconds and seconds scaled to
    the reference speed (``s``). An exception escaping main counts as exit
    code -1; its traceback is in the output. A traced call is timed by its
    root span.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf), \
            gauge.Gauge() as g:
        if tracer is not None:
            tracer.command = tracer.op = command
            index = tracer.start(root)
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.stop(index)
            span = tracer.spans[index]
            elapsed = span.end - span.start
    return rc, g.record(elapsed), buf.getvalue()


class Capture:
    """Keeps what cli.build_emulator and cli.combine_rates return, for the
    checks, and times cli.monte_carlo_estimate, for the derived line."""

    def __init__(self) -> None:
        self.fitted = []        # emulators built by fit, in run order
        self.loaded = None      # emulators estimate read back from the artifacts
        self.combined = None
        self.mc_s = None

    def __enter__(self) -> "Capture":
        self._saved = (cli.build_emulator, cli.combine_rates, cli.monte_carlo_estimate)
        build, combine, mc = self._saved

        def capture_build(*args, **kwargs):
            emulator = build(*args, **kwargs)
            self.fitted.append(emulator)
            return emulator

        def capture_combine(emulators, *args, **kwargs):
            combined = combine(emulators, *args, **kwargs)
            self.loaded, self.combined = list(emulators), combined
            return combined

        def timed_mc(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return mc(*args, **kwargs)
            finally:
                self.mc_s = time.perf_counter() - t0

        cli.build_emulator, cli.combine_rates, cli.monte_carlo_estimate = \
            capture_build, capture_combine, timed_mc
        return self

    def __exit__(self, *exc) -> None:
        cli.build_emulator, cli.combine_rates, cli.monte_carlo_estimate = self._saved


def digests(d: Path) -> dict[str, str]:
    if not d.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir()) if p.is_file()}


def setup(w, seed: int, d: Path) -> dict:
    """One synth per run; each is one set-up sample."""
    data = d / "data"
    data.mkdir(parents=True)
    timings, truths = [], []
    for i in range(1, N_RUNS + 1):
        out = d / f"synth_{i}"
        rc, timing, output = run_cli(w.synth_args(str(out), run_seed(seed, i)))
        if rc != 0:
            raise RuntimeError(f"synth exited {rc}:\n{output}")
        timings.append(timing)
        truths.append(json.loads((out / "truth.json").read_text())["events"][0])
        (out / "run_1.csv").rename(data / f"run_{i}.csv")
        shutil.rmtree(out)
    csvs = [data / f"run_{i}.csv" for i in range(1, N_RUNS + 1)]
    # flush the inputs to disk now, so that their write-back does not run
    # on the pinned core while fit is timed
    for p in csvs:
        with open(p, "rb") as fh:
            os.fsync(fh.fileno())
    return {
        "setup_timings": timings,
        "run_seeds": [run_seed(seed, i) for i in range(1, N_RUNS + 1)],
        "csvs": [str(p) for p in csvs],
        "csv_bytes": sum(p.stat().st_size for p in csvs),
        "truth": truths,
    }


class Session:
    """Runs one workload's fit and estimate commands and checks each one.

    Every fit must write the same bytes as the first fit, and every estimate
    the same bytes as the first estimate, traced or not.
    """

    def __init__(self, w, seed: int, d: Path, csvs: list[str]) -> None:
        self.w, self.seed, self.csvs = w, seed, csvs
        self.fits, self.est = d / "fits", d / "est"
        self.artifacts = [str(self.fits / f"run_{i}.json") for i in range(1, N_RUNS + 1)]
        self.reference = {"fit": None, "estimate": None}
        self.observed = None    # q3: consecutive-day clusters per run, from the first fit
        self.counts = {}
        self.samples: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.absent: list[str] = []

    def run(self, kind: str, tracer: spans.Tracer | None) -> None:
        w = self.w
        out = self.fits if kind == "fit" else self.est
        shutil.rmtree(out, ignore_errors=True)
        n = sum(s["kind"] == kind for s in self.samples) + 1
        argv = (w.fit_args(str(out), self.csvs) if kind == "fit"
                else w.estimate_args(str(out), self.seed, self.artifacts))
        gc.collect()
        patched = spans.Patched(tracer) if tracer is not None else contextlib.nullcontext()
        with Capture() as cap, patched as layers:
            rc, timing, output = run_cli(argv, tracer, f"cli.{kind}", f"{kind}#{n}")
        if tracer is not None:
            self.absent = layers.absent
        # the Monte Carlo part at the command's mean speed, for the derived line
        self.samples.append({"kind": kind, "traced": tracer is not None, **timing,
                             "mc_s": None if cap.mc_s is None else cap.mc_s * timing["speed"]})
        failed = self.check_fit(cap, rc, output) if kind == "fit" else \
            {"estimate": self.check_estimate(cap, rc, output)}
        failed = {op: why for op, why in failed.items() if why is not None}
        self.attempted += N_RUNS if kind == "fit" else 1
        self.failures += [f"{kind} #{n} {op}: {why}" for op, why in failed.items()]
        print(f"  {kind} #{n}{' traced' if tracer is not None else ''}: {timing['s']:.3f} s "
              f"scaled, {timing['wall_s']:.3f} s wall, {len(failed)} failed "
              f"(median probe {timing['probe_ms_median']:.3f} ms)", file=sys.stderr)

    def changed(self, kind: str) -> list[str]:
        """Outputs whose bytes differ from those of the first command of this kind."""
        got = digests(self.fits if kind == "fit" else self.est)
        if self.reference[kind] is None:
            self.reference[kind] = got
        ref = self.reference[kind]
        return sorted(n for n in set(got) | set(ref) if got.get(n) != ref.get(n))

    def check_fit(self, cap: Capture, rc: int, output: str) -> dict[str, str | None]:
        w = self.w
        if self.observed is None and len(cap.fitted) == N_RUNS:
            # the reduced series is the exact synthetic scalar for these inputs
            self.observed = [checks.consecutive_clusters(e.series_values, w.target)
                             for e in cap.fitted]
            self.counts.update(self.fit_counts(cap.fitted))
        tol = checks.threshold_tolerance(checks.month_days(N_DAYS), w.rho, TAU, PI, SIGMA, U0)
        changed = self.changed("fit")
        failed = {}
        for i in range(1, N_RUNS + 1):
            artifact = Path(self.artifacts[i - 1])
            if i > len(cap.fitted) or not artifact.is_file():
                failed[f"run_{i}"] = f"fit exited {rc} before writing run {i}: {output.strip()[-300:]}"
                continue
            u = cap.fitted[i - 1].threshold_model.u_by_month
            failed[f"run_{i}"] = checks.check_thresholds(u, U0, tol) or (
                f"{artifact.name} differs from the first fit's bytes"
                if artifact.name in changed else None)
        return failed

    def check_estimate(self, cap: Capture, rc: int, output: str) -> str | None:
        w = self.w
        if rc != 0:
            return f"estimate exited {rc}: {output.strip()[-300:]}"
        try:
            result = json.loads((self.est / f"estimate_{w.question}.json").read_text())
            samples = np.loadtxt(self.est / f"c_samples_{w.question}.csv", delimiter=",",
                                 skiprows=1, ndmin=2)
        except (OSError, ValueError, KeyError) as exc:
            return f"estimate output unreadable: {exc}"
        if w.question == "q3":
            reason = "no fitted series to count events in" if self.observed is None else \
                checks.check_chain_estimate(result["point"], result["ci_low"], result["ci_high"],
                                            float(np.mean(self.observed)))
        else:
            loaded = cap.loaded
            mean, var = checks.marginal_count_moments(
                np.array([e.threshold_model.u_by_month for e in loaded]),
                np.array([e.gp_model.sigma_by_month for e in loaded]),
                np.array([e.gp_model.xi_by_month for e in loaded]),
                cap.combined.pi_hat, w.target, checks.month_days(w.days_per_cell))
            reason = checks.check_mean_e(samples[:, 1], N_SRUN, mean, var)
        changed = self.changed("estimate")
        return reason or (f"{changed} differ from the first estimate's bytes" if changed else None)

    def fit_counts(self, fitted) -> dict:
        """Work counts of one fit, computed from its inputs and fitted models."""
        return {
            "csv_bytes": sum(Path(p).stat().st_size for p in self.csvs),
            "artifact_bytes": sum(Path(p).stat().st_size for p in self.artifacts
                                  if Path(p).is_file()),
            "cells": self.w.n_sim * N_SRUN,
            "days_per_cell": self.w.days_per_cell,
            "exceedances": sum(int(e.cluster_set.n_exceedances) for e in fitted),
            "clusters": sum(int(e.cluster_set.n_clusters) for e in fitted),
            "cev_pairs": sum(len(e.cev_model.residuals) for e in fitted
                             if e.cev_model is not None),
        }

    def times(self, kind: str, traced: bool = False, field: str = "s") -> list[float]:
        """Scaled seconds (or another timing field) of the commands of one kind."""
        return [s[field] for s in self.samples if s["kind"] == kind and s["traced"] == traced]

    def next_kind(self, elapsed: float, seconds: float, per_step: int) -> str | None:
        """The other kind than the last one run, else the same kind, whichever
        first has an expected duration (``per_step`` commands) that still fits
        in the window."""
        last = self.samples[-1]["kind"]
        for kind in sorted(KINDS, key=lambda k: k == last):
            if elapsed + per_step * statistics.median(self.times(kind, field="wall_s")) <= seconds:
                return kind
        return None


def trace_overhead(session: Session) -> dict:
    """Traced against untraced time of one fit plus one estimate, from medians.

    It is resolved only with at least two pairs of each kind and when every
    traced command was slower than every untraced one of its kind, or every
    one faster.
    """
    untraced = {k: session.times(k) for k in KINDS}
    traced = {k: session.times(k, traced=True) for k in KINDS}
    frac = (sum(statistics.median(traced[k]) for k in KINDS)
            / sum(statistics.median(untraced[k]) for k in KINDS) - 1.0)
    resolved = all(len(traced[k]) >= 2 for k in KINDS) and (
        all(min(traced[k]) > max(untraced[k]) for k in KINDS)
        or all(max(traced[k]) < min(untraced[k]) for k in KINDS))
    return {"frac": frac, "resolved": resolved, "pairs": {k: len(traced[k]) for k in KINDS}}


def per_layer(span_list: list[dict], session: Session) -> dict:
    """Per-layer metrics of the traced commands, per command of each kind.

    Self times are averaged over the traced commands, so that together they
    add up to trace.fit_s plus trace.estimate_s, the mean traced durations.
    All three are scaled to the gauge's reference speed by one factor per
    kind: the traced commands' scaled seconds over their wall seconds.
    """
    counts = session.counts
    speed = {f"cli.{k}": sum(session.times(k, True)) / sum(session.times(k, True, "wall_s"))
             for k in KINDS}
    factor = [speed[span_list[r]["name"]] for r in spans.roots(span_list)]
    by_name = spans.per_command(span_list, [v * f for v, f in
                                            zip(spans.self_times(span_list), factor)])
    span_counts = spans.counts_by_name(span_list)
    inclusive = spans.per_command(span_list, [(s["end"] - s["start"]) * f
                                              for s, f in zip(span_list, factor)])
    metrics = {name: by_name.get(span, 0.0) for name, span in SELF_TIME_METRICS.items()}
    load_s = metrics["ingest.load_s"]
    metrics.update({
        "ingest.mb_per_s": counts["csv_bytes"] / 1e6 / load_s if load_s > 0 else 0.0,
        "decluster.exceedances": span_counts.get("decluster.exceedances", 0),
        "decluster.clusters": span_counts.get("decluster.clusters", 0),
        "cev.pairs": span_counts.get("cev.fit.pairs", 0),
        "cli.artifact_mb": counts["artifact_bytes"] / 1e6,
        "ensemble.mc_us_per_cell": inclusive.get("ensemble.mc", 0.0) / counts["cells"] * 1e6,
        "ensemble.cells": counts["cells"],
        "ensemble.days_per_cell": counts["days_per_cell"],
        "trace.fit_s": speed["cli.fit"] * statistics.mean(session.times("fit", True, "wall_s")),
        "trace.estimate_s": (speed["cli.estimate"]
                             * statistics.mean(session.times("estimate", True, "wall_s"))),
        "trace_overhead_frac": trace_overhead(session)["frac"],
    })
    return metrics


def measure(w, seed: int, d: Path, seconds: float, trace: bool, spans_path: Path | None) -> dict:
    """Fit and estimate until ``seconds`` are spent, at least once each.

    Untraced, each step is one command; traced, each step is one untraced
    and one traced command of the same kind, in alternating order. Steps
    alternate between fit and estimate while both fit in the window; the
    rest of it is filled with the kind that still fits.
    """
    setup_info = json.loads((d / "setup.json").read_text())
    session = Session(w, seed, d, setup_info["csvs"])
    tracer = spans.Tracer() if trace else None
    t0 = time.perf_counter()
    steps = 0

    def step(kind: str) -> None:
        nonlocal steps
        order = [None, tracer] if steps % 2 == 0 else [tracer, None]
        for t in (order if trace else [None]):
            session.run(kind, t)
        steps += 1

    for kind in KINDS:
        step(kind)
    while (kind := session.next_kind(time.perf_counter() - t0, seconds, 2 if trace else 1)):
        step(kind)

    result = {
        "commands": session.samples,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "failures": session.failures,
        "counts": session.counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "truth": setup_info["truth"],
        "observed_consecutive_clusters": session.observed,
        "fit_s": statistics.median(session.times("fit")),
        "estimate_s": statistics.median(session.times("estimate")),
        "mc_s": statistics.median(s["mc_s"] or 0.0 for s in session.samples
                                  if s["kind"] == "estimate" and not s["traced"]),
    }
    if trace:
        span_list = tracer.to_list()
        result["per_layer"] = per_layer(span_list, session)
        result["trace_overhead"] = trace_overhead(session)
        result["absent_layers"] = session.absent
        spans_path.write_text(json.dumps(span_list))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.phase == "setup":
        result = setup(w, args.seed, args.dir)
    else:
        result = measure(w, args.seed, args.dir, args.seconds, bool(args.trace), args.spans)
    (args.dir / f"{args.phase}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
