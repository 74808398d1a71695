"""Host-speed gauge: a fixed probe sampled while a command runs.

The benchmark's host shares its cores, and the speed of a pinned core
changes by up to about 1.6x for seconds to minutes at a time, with CPU
time equal to wall time (the core runs slower; the process is not
descheduled). Wall time alone then measures the host as much as the
program. The gauge runs a fixed probe every ``INTERVAL_S`` seconds of a
command from a SIGALRM handler, and once before and once after it. The
probe is a pure-Python loop followed by a loop of NumPy calls on an
8-element array: interpreter work and the per-call cost of small NumPy
operations, which is what evtlite's fits and its Monte Carlo spend their
time on. Of the probes tried on this benchmark's commands, this pair
followed their speed most closely. A command's scaled time is its wall
time, less the time spent in the probes, times the mean speed the probes
saw relative to ``REFERENCE_MS``:

    scaled_s = (wall_s - probe_busy_s) * mean(REFERENCE_MS / probe_ms)

So a command that does the same work reads the same in a fast and a slow
phase, and a command that does more work reads more in either. Scaled
times are seconds on a reference core where the probe takes
``REFERENCE_MS``; that constant is fixed, so scaled times of two commits
compare directly.

The handler runs between bytecodes of the main thread, so a probe falls
at most one C call late and touches no state of the program. At the
default interval the probes take about 0.6% of a command.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
PROBE_LOOPS = 1500
PROBE_NUMPY_CALLS = 40
REFERENCE_MS = 0.25
_SMALL = np.linspace(0.1, 0.8, 8)


def probe() -> float:
    """Seconds taken by one fixed Python loop and one fixed loop of NumPy calls."""
    t0 = time.perf_counter()
    sum(i * i for i in range(PROBE_LOOPS))
    for _ in range(PROBE_NUMPY_CALLS):
        (np.exp(_SMALL) + _SMALL).sum()
    return time.perf_counter() - t0


def scale(wall_s: float, busy_s: float, probes_s: list[float]) -> float:
    """Wall time less probe time, at the reference speed."""
    speed = statistics.fmean(REFERENCE_MS / (p * 1e3) for p in probes_s)
    return (wall_s - busy_s) * speed


class Gauge:
    """Context manager that samples the probe while its block runs.

    ``probes_s`` holds every probe time, ``busy_s`` the time the handler
    spent inside the block, to be taken out of the block's wall time.
    """

    def __init__(self) -> None:
        self.probes_s: list[float] = []
        self.busy_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes_s.append(probe())
        self.busy_s += time.perf_counter() - t0

    def __enter__(self) -> "Gauge":
        self.probes_s.append(probe())
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self.probes_s.append(probe())

    def record(self, wall_s: float) -> dict:
        """What the run record keeps of one gauged command; ``s`` is its scaled time."""
        s = scale(wall_s, self.busy_s, self.probes_s)
        return {"wall_s": wall_s, "s": s, "speed": s / (wall_s - self.busy_s),
                "probe_busy_s": self.busy_s, "probes": len(self.probes_s),
                "probe_ms_median": statistics.median(self.probes_s) * 1e3}
