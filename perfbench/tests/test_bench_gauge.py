"""The host-speed gauge: scaling arithmetic and sampling during a block."""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gauge  # noqa: E402


def test_scale_takes_out_probe_time_and_applies_the_mean_speed():
    ref = gauge.REFERENCE_MS / 1e3
    # at the reference speed, scaled time is wall time less the probes
    assert gauge.scale(10.0, 0.5, [ref, ref]) == pytest.approx(9.5)
    # half the time at half speed, half at full speed: 0.75 of the reference work rate
    assert gauge.scale(8.0, 0.0, [ref, 2 * ref]) == pytest.approx(6.0)
    # the same work in a phase twice as slow reads the same
    assert gauge.scale(2 * 4.0, 0.0, [2 * ref] * 5) == pytest.approx(gauge.scale(4.0, 0.0, [ref] * 5))


def test_gauge_samples_during_its_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with gauge.Gauge() as g:
        t0 = time.perf_counter()
        time.sleep(0.3)
        wall = time.perf_counter() - t0
    # one probe before, one after and about six in between
    assert len(g.probes_s) >= 5
    assert 0.0 < g.busy_s < wall
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    record = g.record(wall)
    assert record["wall_s"] == wall and record["s"] > 0.0
