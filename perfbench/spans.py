"""In-memory spans around the public functions of each evtlite layer.

A span records name, start, end, parent span and operation id. Spans are
kept in a list while the traced commands run and written out when the
benchmark ends. The benchmark wraps each layer's function at the module
attribute the caller looks it up from (for example
``evtlite.ensemble.fit_threshold``, the name ``build_emulator`` calls), so
no program file is edited. A name that no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Layer:
    """One wrapped function: where it is looked up and what its span is called."""

    module: str
    attr: str               # attribute path below the module, e.g. "json.load"
    span: str
    counts: object = None   # result -> {name: int}, recorded on the span
    op: object = None       # (args, kwargs) -> operation started by this call, within the command


def _decluster_counts(cs) -> dict:
    return {"exceedances": int(cs.n_exceedances), "clusters": int(cs.n_clusters)}


def _cev_counts(model) -> dict:
    return {"pairs": int(len(model.residuals))}


def _fit_run_op(args, kwargs) -> str:
    return f"run_{kwargs.get('run_id', args[1] if len(args) > 1 else '?')}"


# Layers called once per Monte Carlo cell (simulate_*_run, gp_quantile) are
# not wrapped: their span cost would rival their own. mixed_cdf_by_day is
# called once per cell on the chain question and is wrapped because its
# share of the chain cost is what the Monte Carlo redesign targets.
LAYERS = (
    Layer("evtlite.cli", "load_run", "ingest.load", op=_fit_run_op),
    Layer("evtlite.cli", "build_emulator", "ensemble.build_emulator"),
    Layer("evtlite.ensemble", "spatial_order_statistic", "summarise.reduce"),
    Layer("evtlite.ensemble", "fit_threshold", "threshold.fit"),
    Layer("evtlite.ensemble", "run_decluster", "decluster", counts=_decluster_counts),
    Layer("evtlite.ensemble", "fit_gp", "gpd.fit"),
    Layer("evtlite.ensemble", "build_mixed", "gpd.build_mixed"),
    Layer("evtlite.cli", "build_mixed", "gpd.build_mixed"),
    Layer("evtlite.ensemble", "mixed_cdf", "gpd.mixed_cdf"),
    Layer("evtlite.ensemble", "mixed_cdf_by_day", "gpd.mixed_cdf"),
    Layer("evtlite.cev", "mixed_cdf_by_day", "gpd.mixed_cdf"),
    Layer("evtlite.ensemble", "to_laplace", "cev.to_laplace"),
    Layer("evtlite.ensemble", "fit_cev", "cev.fit", counts=_cev_counts),
    Layer("evtlite.cli", "json.load", "cli.artifact_read"),
    Layer("evtlite.cli", "emulator_from_dict", "cli.artifact_read"),
    Layer("evtlite.cli", "combine_rates", "ensemble.combine"),
    Layer("evtlite.ensemble", "laplace_targets", "ensemble.laplace_targets"),
    Layer("evtlite.cli", "monte_carlo_estimate", "ensemble.mc"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 for a root
    op: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects nested spans of one thread in call order."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.command = ""   # id of the command being traced, e.g. "fit#1"
        self.op = ""
        self._stack: list[int] = []

    def start(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def stop(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def wrap(self, func, layer: Layer):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if layer.op is not None:
                self.op = f"{self.command}/{layer.op(args, kwargs)}"
            index = self.start(layer.span)
            try:
                result = func(*args, **kwargs)
            finally:
                self.stop(index)
            if layer.counts is not None:
                try:
                    self.spans[index].counts = layer.counts(result)
                except (AttributeError, TypeError):
                    pass  # a result type that lost a counted field leaves the count absent
            return result
        return traced

    def to_list(self) -> list[dict]:
        return [vars(s).copy() for s in self.spans]


def _resolve(layer: Layer):
    """(owner object, final attribute name) for a layer, or None if absent."""
    try:
        owner = importlib.import_module(layer.module)
    except ImportError:
        return None
    *path, name = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if callable(getattr(owner, name, None)) else None


class Patched:
    """Context manager that installs tracing wrappers and restores the originals.

    ``absent`` lists the layers whose function could not be found.
    """

    def __init__(self, tracer: Tracer, layers=LAYERS) -> None:
        self.tracer = tracer
        self.layers = layers
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patched":
        for layer in self.layers:
            found = _resolve(layer)
            if found is None:
                self.absent.append(f"{layer.module}.{layer.attr}")
                continue
            owner, name = found
            original = getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self.tracer.wrap(original, layer))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The tracer is single-threaded and closes spans in LIFO order, so the
    children of a span are disjoint and lie inside it.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def roots(spans: list[dict]) -> list[int]:
    """Index of each span's root span, the command it belongs to."""
    out: list[int] = []
    for i, s in enumerate(spans):
        out.append(i if s["parent"] < 0 else out[s["parent"]])
    return out


def per_command(spans: list[dict], values: list[float]) -> dict[str, float]:
    """Sum of ``values`` by span name, per command.

    A root span is one command. Each span's value is divided by the number
    of root spans that share its root's name, so that, with several traced
    fit and estimate commands, the result is the figure for one command of
    each kind.
    """
    n_roots: dict[str, int] = {}
    for s in spans:
        if s["parent"] < 0:
            n_roots[s["name"]] = n_roots.get(s["name"], 0) + 1
    totals: dict[str, float] = {}
    for s, value, root in zip(spans, values, roots(spans)):
        totals[s["name"]] = totals.get(s["name"], 0.0) + value / n_roots[spans[root]["name"]]
    return totals


def counts_by_name(spans: list[dict]) -> dict[str, float]:
    """Every recorded count per command, keyed ``<span name>.<count name>``."""
    totals: dict[str, float] = {}
    for key in sorted({key for s in spans for key in s["counts"]}):
        per = per_command(spans, [s["counts"].get(key, 0) for s in spans])
        totals.update({f"{s['name']}.{key}": per[s["name"]] for s in spans if key in s["counts"]})
    return totals
