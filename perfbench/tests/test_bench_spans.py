"""Span bookkeeping of the benchmark: nesting, self time and patching."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


def span(name, start, end, parent, op="op"):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": op, "counts": {}}


def self_time_by_name(tree):
    return spans.per_command(tree, spans.self_times(tree))


def test_self_time_subtracts_only_direct_children():
    tree = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)


def test_self_time_by_name_sums_repeated_layers():
    tree = [
        span("root", 0.0, 10.0, -1),
        span("load", 0.0, 2.0, 0),
        span("load", 3.0, 4.5, 0),
    ]
    totals = self_time_by_name(tree)
    assert totals == pytest.approx({"root": 6.5, "load": 3.5})


def test_layers_are_reported_per_command_of_each_kind():
    tree = [
        span("cli.fit", 0.0, 10.0, -1),
        span("load", 1.0, 3.0, 0),
        span("cli.fit", 10.0, 16.0, -1),
        span("load", 11.0, 15.0, 2),
        span("cli.estimate", 20.0, 25.0, -1),
        span("load", 20.0, 21.0, 4),
    ]
    tree[1]["counts"] = {"rows": 6}
    tree[3]["counts"] = {"rows": 6}
    # two fits: load is (2 + 4) / 2 = 3 per fit, plus 1 in the one estimate
    totals = self_time_by_name(tree)
    assert totals == pytest.approx({"cli.fit": 5.0, "load": 4.0, "cli.estimate": 4.0})
    # the layers of one fit and one estimate add up to their mean durations
    assert sum(totals.values()) == pytest.approx((10.0 + 6.0) / 2 + 5.0)
    assert spans.counts_by_name(tree) == pytest.approx({"load.rows": 6.0})
    assert spans.roots(tree) == [0, 0, 2, 2, 4, 4]


def test_tracer_nests_wrapped_calls_and_records_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.command = "fit#1"
    inner = tracer.wrap(lambda n: list(range(n)), spans.Layer("m", "inner", "inner",
                                                              counts=lambda r: {"items": len(r)}))
    outer = tracer.wrap(lambda: inner(3) + inner(2), spans.Layer("m", "outer", "outer",
                                                                 op=lambda a, k: "run_1"))
    assert outer() == [0, 1, 2, 0, 1]
    got = tracer.to_list()
    assert [s["name"] for s in got] == ["outer", "inner", "inner"]
    assert [s["parent"] for s in got] == [-1, 0, 0]
    assert {s["op"] for s in got} == {"fit#1/run_1"}
    assert spans.counts_by_name(got) == {"inner.items": 5}
    # outer spans ticks 0..5, inner calls 1..2 and 3..4
    assert self_time_by_name(got) == pytest.approx({"outer": 3.0, "inner": 2.0})


def test_patched_restores_originals_and_reports_absent_names(monkeypatch):
    module = types.ModuleType("fake_layer_module")
    module.work = lambda x: x + 1
    original = module.work
    monkeypatch.setitem(sys.modules, "fake_layer_module", module)
    tracer = spans.Tracer()
    layers = (spans.Layer("fake_layer_module", "work", "work"),
              spans.Layer("fake_layer_module", "gone", "gone"),
              spans.Layer("no_such_module_here", "work", "work"))
    with spans.Patched(tracer, layers) as patched:
        assert module.work(1) == 2
        assert module.work is not original
    assert module.work is original
    assert patched.absent == ["fake_layer_module.gone", "no_such_module_here.work"]
    assert [s.name for s in tracer.spans] == ["work"]
