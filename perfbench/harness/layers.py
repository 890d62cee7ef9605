"""Per-layer attribution for the traced run.

The benchmark records spans only from its own code. Set-up spans open
around its calls into ``benchcircuits``, ``faults``, ``sampling`` and
``core.symbolic``; everything inside a campaign chunk is reached by
patching each name where its caller looks it up (for example
``repro.core.engine.gate_output_difference``) with a wrapper that opens
a span. Spans go into a private :class:`repro.obs.trace.Tracer` — never
the global one, so the program's internal spans stay off in both runs —
and are aggregated with :func:`repro.obs.profile.aggregate`. Every
patched name is restored when the run ends, exception or not.

Two wrappers record selectively, so the per-call cost stays off the
hottest paths: the BDD operators record only when called directly from
``DifferencePropagation.analyze`` (the seed and the PO union), and
``OperationCache.maybe_evict`` only when the table is over its bound.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Sequence

import repro.core.engine as core_engine
import repro.experiments.campaigns as campaigns
from repro.bdd.cache import OperationCache
from repro.bdd.manager import BDDManager
from repro.core.engine import DifferencePropagation
from repro.core.metrics import FaultAnalysis
from repro.obs.profile import aggregate
from repro.obs.trace import Tracer
from repro.simulation.bitparallel import BitParallelSimulator

ANALYZE = "engine.analyze"


class LayerTracer:
    """A private tracer plus the patches that feed it (a context manager)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.tracer = Tracer()
        self.engines: list[DifferencePropagation] = []
        self._names: list[str] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------
    def span(self, name: str):
        return _Scope(self, name)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with _Scope(self, name):
                return fn(*args, **kwargs)

        return traced

    def _wrap_direct(self, name: str, fn: Callable) -> Callable:
        """Record only calls made directly from ``engine.analyze``."""
        names = self._names

        def traced(*args, **kwargs):
            if names and names[-1] == ANALYZE:
                with _Scope(self, name):
                    return fn(*args, **kwargs)
            return fn(*args, **kwargs)

        return traced

    # -- patching ------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        wrap = self._wrap
        self._patch(
            core_engine,
            "gate_output_difference",
            wrap("engine.propagate", core_engine.gate_output_difference),
        )
        analyze = DifferencePropagation.analyze
        engines = self.engines

        def traced_analyze(engine, fault):
            if not engines or engines[-1] is not engine:
                engines.append(engine)
            with _Scope(self, ANALYZE):
                return analyze(engine, fault)

        self._patch(DifferencePropagation, "analyze", traced_analyze)
        self._patch(
            BDDManager, "apply_or", self._wrap_direct("engine.po_union", BDDManager.apply_or)
        )
        for op in ("apply_and", "apply_not"):
            self._patch(
                BDDManager, op, self._wrap_direct("engine.seed", getattr(BDDManager, op))
            )
        detectability = vars(FaultAnalysis)["detectability"]
        self._patch(
            FaultAnalysis,
            "detectability",
            property(wrap("metrics.detectability", detectability.fget)),
        )
        self._patch(
            campaigns,
            "detectability_upper_bound",
            wrap("metrics.upper_bound", campaigns.detectability_upper_bound),
        )
        self._patch(
            campaigns,
            "is_stuck_at_equivalent",
            wrap("metrics.stuck_eq", campaigns.is_stuck_at_equivalent),
        )
        self._patch(BDDManager, "gc", wrap("bdd.gc", BDDManager.gc))
        self._patch(BDDManager, "sift", wrap("bdd.sift", BDDManager.sift))
        maybe_evict = OperationCache.maybe_evict

        def traced_evict(cache):
            if len(cache.data) > cache.bound:
                with _Scope(self, "bdd.evict"):
                    return maybe_evict(cache)
            return maybe_evict(cache)

        self._patch(OperationCache, "maybe_evict", traced_evict)
        self._patch(
            BitParallelSimulator,
            "simulate",
            wrap("simulation.simulate", BitParallelSimulator.simulate),
        )

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> bool:
        self.restore()
        return False

    def events(self) -> list[dict]:
        """The recorded spans, each stamped with the run's id."""
        return [{**event, "run": self.run_id} for event in self.tracer.events]


class _Scope:
    """One span on the private tracer, with the layer-name stack kept in
    step (the direct-call wrappers read its top)."""

    __slots__ = ("_owner", "_name", "_span")

    def __init__(self, owner: LayerTracer, name: str) -> None:
        self._owner = owner
        self._name = name

    def __enter__(self) -> "_Scope":
        self._owner._names.append(self._name)
        self._span = self._owner.tracer.span(self._name)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.__exit__(exc_type, exc, tb)
        self._owner._names.pop()
        return False


#: Span name → per-layer time metric (inclusive seconds).
TIMED_SPANS = {
    "circuit.load": "circuit.load_s",
    "faults.enumerate": "faults.enumerate_s",
    "faults.sample": "faults.sample_s",
    "symbolic.build": "symbolic.build_s",
    ANALYZE: "engine.analyze_s",
    "engine.propagate": "engine.propagate_s",
    "engine.po_union": "engine.po_union_s",
    "engine.seed": "engine.seed_s",
    "metrics.detectability": "metrics.detectability_s",
    "metrics.upper_bound": "metrics.upper_bound_s",
    "metrics.stuck_eq": "metrics.stuck_eq_s",
    "bdd.gc": "bdd.gc_s",
    "bdd.evict": "bdd.evict_s",
    "bdd.sift": "bdd.sift_s",
    "simulation.simulate": "simulation.simulate_s",
    "experiments.chunk": "experiments.chunk_s",
}

#: Per-layer metric → unit. The order is the print order.
UNITS: dict[str, str] = {
    **{metric: "s" for metric in TIMED_SPANS.values()},
    "symbolic.good_nodes": "count",
    "engine.faults": "count",
    "engine.fault_ms.p50": "ms",
    "engine.fault_ms.tail": "ms",
    "engine.fault_ms.tail_pct": "percentile",
    "engine.gates_evaluated": "count",
    "bdd.steps": "count",
    "bdd.steps.and": "count",
    "bdd.steps.or": "count",
    "bdd.steps.xor": "count",
    "bdd.steps.not": "count",
    "bdd.cache_lookups": "count",
    "bdd.cache_hit_ratio": "ratio",
    "bdd.gc.runs": "count",
    "bdd.gc.reclaimed": "count",
    "bdd.evictions": "count",
    "bdd.nodes.peak_live": "count",
    "bdd.nodes.peak_allocated": "count",
    "simulation.words": "count",
    "simulation.words_per_s": "1/s",
    "sampling.patterns": "count",
    "sampling.rounds": "count",
    "sampling.patterns_per_fault": "count",
    "experiments.self_s": "s",
    "trace.self_sum_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Tail percentiles tried, highest first: the reported tail is the
#: highest with at least ten faults beyond it (else the median).
TAIL_PERCENTILES = (99, 95, 90, 75)


def tail_percentile(count: int) -> int:
    for pct in TAIL_PERCENTILES:
        if count * (100 - pct) / 100 >= 10:
            return pct
    return 50


def percentile(values: Sequence[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(
    events: Sequence[dict], cells: Sequence, pass_, engines: Sequence
) -> dict[str, float]:
    """Fold one traced pass into the per-layer metric table."""
    stats = aggregate(events)
    metrics: dict[str, float] = {
        metric: stats[name].cum if name in stats else 0.0
        for name, metric in TIMED_SPANS.items()
    }
    chunk = stats.get("experiments.chunk")
    metrics["experiments.self_s"] = chunk.self_time if chunk else 0.0
    chunk_ids = {e["id"] for e in events if e["name"] == "experiments.chunk"}
    by_id = {e["id"]: e for e in events}

    def under_chunk(event: dict) -> bool:
        while event is not None:
            if event["id"] in chunk_ids:
                return True
            event = by_id.get(event["parent"])
        return False

    inside = [e for e in events if under_chunk(e)]
    self_sum = sum(s.self_time for s in aggregate(inside).values())
    metrics["trace.self_sum_frac"] = (
        self_sum / metrics["experiments.chunk_s"] if metrics["experiments.chunk_s"] else 0.0
    )

    fault_ms = [1000 * e["dur"] for e in events if e["name"] == ANALYZE]
    pct = tail_percentile(len(fault_ms))
    metrics["engine.faults"] = len(fault_ms)
    metrics["engine.fault_ms.p50"] = percentile(fault_ms, 50)
    metrics["engine.fault_ms.tail"] = percentile(fault_ms, pct)
    metrics["engine.fault_ms.tail_pct"] = pct if fault_ms else 0
    metrics["engine.gates_evaluated"] = (
        stats["engine.propagate"].calls if "engine.propagate" in stats else 0
    )

    counts: dict[str, int] = {}
    for outcome in pass_.outcomes:
        for key, value in outcome.counts.items():
            if key == "peak_allocated":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    steps = sum(v for k, v in counts.items() if k.startswith("steps."))
    metrics["bdd.steps"] = steps
    for op in ("and", "or", "xor", "not"):
        metrics[f"bdd.steps.{op}"] = counts.get(f"steps.{op}", 0)
    lookups = counts.get("cache_hits", 0) + counts.get("cache_misses", 0)
    metrics["bdd.cache_lookups"] = lookups
    metrics["bdd.cache_hit_ratio"] = counts.get("cache_hits", 0) / lookups if lookups else 0.0
    metrics["bdd.gc.runs"] = counts.get("gc_runs", 0)
    metrics["bdd.gc.reclaimed"] = counts.get("gc_reclaimed", 0)
    metrics["bdd.evictions"] = counts.get("evictions", 0)
    metrics["bdd.nodes.peak_live"] = max((e.peak_live_nodes for e in engines), default=0)
    metrics["bdd.nodes.peak_allocated"] = counts.get("peak_allocated", 0)
    good_nodes: dict[str, int] = {}  # exact cells of one circuit share a build
    for cell in cells:
        good_nodes[cell.part.circuit] = max(good_nodes.get(cell.part.circuit, 0), cell.good_nodes)
    metrics["symbolic.good_nodes"] = sum(good_nodes.values())

    words = counts.get("words", 0)
    metrics["simulation.words"] = words
    simulate_s = metrics["simulation.simulate_s"]
    metrics["simulation.words_per_s"] = words / simulate_s if simulate_s else 0.0
    patterns = counts.get("patterns", 0)
    sampled_faults = sum(
        len(o.records) for c, o in zip(cells, pass_.outcomes) if c.part.mode == "sampled"
    )
    metrics["sampling.patterns"] = patterns
    metrics["sampling.rounds"] = counts.get("rounds", 0)
    metrics["sampling.patterns_per_fault"] = patterns / sampled_faults if sampled_faults else 0.0
    return metrics
