"""Metrics registry: named counters, gauges, and histograms.

This is the single vocabulary for numeric telemetry. The BDD manager
counts its own work (:class:`~repro.bdd.cache.ManagerStats`), each
campaign chunk carries its share as a
:class:`~repro.experiments.campaigns.ChunkStat`, and
``ChunkStat.to_metrics()`` names every field once as a metric of a
:class:`MetricsRegistry`. Campaign aggregates, ``telemetry_report()``
and the exporters read the merged registry by metric name.

Three instrument kinds, chosen for their *merge* semantics (the whole
point of the registry is deterministic aggregation of per-chunk
payloads shipped home from pool workers):

* **counter** — monotone total; merges by summing. Cache hits, GC
  sweeps, faults analyzed, CPU seconds.
* **gauge** — level snapshot; merges by ``max`` (every gauge in this
  codebase is a peak/footprint: node peaks, live nodes) or ``last``.
* **histogram** — summary of an observed distribution (count / sum /
  min / max plus p50/p95/p99 from a bounded sample store); merges by
  combining the summaries. Per-chunk wall seconds, per-fault costs.

Histogram percentiles are *deterministic under merge*: the sample
store keeps at most :data:`SAMPLE_CAP` **weighted** order statistics —
compression thins the sorted pool to evenly-spaced cumulative-weight
midpoints, and each survivor carries the weight of the samples it
stands for. Weights are what keep quantiles honest: an order statistic
representing 100 samples must count 100× in the rank walk, otherwise a
long-running histogram drifts toward whatever arrived after the last
compression. The whole scheme is a deterministic function of the
weighted sample multiset, so folding the same snapshots in the same
order always reproduces the same quantiles (the registry's contract
everywhere else). The profiler's hotspot table reads p50/p95/p99 from
these pools.

Snapshots are plain JSON-able dicts, so a registry round-trips through
pickle (worker → driver) and through ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

_GAUGE_MODES = ("max", "last")


class Counter:
    """Monotone numeric total (ints or floats)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time level; ``mode`` picks the merge rule."""

    __slots__ = ("value", "mode")

    def __init__(self, value: float = 0, mode: str = "max") -> None:
        if mode not in _GAUGE_MODES:
            raise ValueError(f"gauge mode must be one of {_GAUGE_MODES}")
        self.value = value
        self.mode = mode

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, value: float) -> None:
        if self.mode == "max":
            self.value = max(self.value, value)
        else:
            self.value = value


#: Weighted order statistics a histogram keeps for percentile queries.
#: Beyond twice this the sorted pool is compressed to evenly-spaced
#: cumulative-weight midpoints — deterministic, so merged snapshots
#: always agree on quantiles.
SAMPLE_CAP = 512


class Histogram:
    """Streaming summary (count/sum/min/max + percentiles) of values."""

    __slots__ = ("count", "total", "min", "max", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        #: bounded, sorted-on-demand pool of ``[value, weight]`` pairs;
        #: a compressed survivor's weight is the number of original
        #: samples it stands for
        self.samples: list[list[float]] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.samples.append([value, 1.0])
        if len(self.samples) > 2 * SAMPLE_CAP:
            self._compress()

    def _compress(self) -> None:
        """Thin the pool to :data:`SAMPLE_CAP` weighted order statistics.

        Survivors sit at evenly-spaced *cumulative-weight* midpoints of
        the sorted pool and each carries an equal share of the total
        weight, so the weighted CDF is preserved to within one share.
        The result depends only on the weighted multiset of samples at
        compression time — no randomness, no order effects.
        """
        pool = sorted(self.samples)
        if len(pool) <= SAMPLE_CAP:
            self.samples = pool
            return
        total = sum(weight for _, weight in pool)
        share = total / SAMPLE_CAP
        thinned: list[list[float]] = []
        cursor = iter(pool)
        value, weight = next(cursor)
        cum = weight
        for i in range(SAMPLE_CAP):
            target = (i + 0.5) * share
            while cum < target:
                value, weight = next(cursor)
                cum += weight
            thinned.append([value, share])
        self.samples = thinned

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Weighted nearest-rank ``q``-th percentile (``None`` if empty).

        Identical to classic nearest-rank while the pool is raw (unit
        weights, i.e. fewer than ``2 * SAMPLE_CAP`` observations).
        """
        if not self.samples:
            return None
        if not 0 <= q <= 100:
            raise ValueError("percentile q must be within [0, 100]")
        pool = sorted(self.samples)
        self.samples = pool  # keep the sort for the next query
        total = sum(weight for _, weight in pool)
        target = q / 100.0 * total
        cum = 0.0
        for value, weight in pool:
            cum += weight
            if cum >= target:
                return value
        return pool[-1][0]  # float rounding left cum just under total

    @property
    def p50(self) -> float | None:
        return self.percentile(50)

    @property
    def p95(self) -> float | None:
        return self.percentile(95)

    @property
    def p99(self) -> float | None:
        return self.percentile(99)

    def combine(self, other: Mapping[str, Any]) -> None:
        if not other.get("count"):
            return
        self.count += other["count"]
        self.total += other["sum"]
        for field, pick in (("min", min), ("max", max)):
            theirs = other.get(field)
            ours = getattr(self, field)
            setattr(
                self, field, theirs if ours is None else pick(ours, theirs)
            )
        # Pre-percentile snapshots carry no sample pool; their values
        # simply don't contribute quantiles (count/sum/min/max still do).
        self.samples.extend(
            [value, weight] for value, weight in other.get("samples", ())
        )
        if len(self.samples) > 2 * SAMPLE_CAP:
            self._compress()

    def summary(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "samples": sorted([value, weight] for value, weight in self.samples),
        }


class MetricsRegistry:
    """Create-on-first-use registry of named instruments."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instruments ----------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_fresh(name)
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str, mode: str = "max") -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_fresh(name)
            instrument = self._gauges[name] = Gauge(mode=mode)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_fresh(name)
            instrument = self._histograms[name] = Histogram()
        return instrument

    def _check_fresh(self, name: str) -> None:
        if (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        ):
            raise ValueError(
                f"metric {name!r} already registered as a different kind"
            )

    # -- reading --------------------------------------------------------
    def counter_value(self, name: str, default: float = 0) -> float:
        instrument = self._counters.get(name)
        return default if instrument is None else instrument.value

    def gauge_value(self, name: str, default: float = 0) -> float:
        instrument = self._gauges.get(name)
        return default if instrument is None else instrument.value

    def names(self) -> list[str]:
        return sorted(
            [*self._counters, *self._gauges, *self._histograms]
        )

    def ratio(self, numerator: str, denominators: Iterable[str]) -> float:
        """``numerator / sum(denominators)`` over counters (0 when empty)."""
        total = sum(self.counter_value(name) for name in denominators)
        return self.counter_value(numerator) / total if total else 0.0

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy: picklable, JSON-able, mergeable."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: {"value": g.value, "mode": g.mode}
                for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        """Fold one snapshot in (sum/max/combine per instrument kind)."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, payload in snapshot.get("gauges", {}).items():
            self.gauge(name, mode=payload.get("mode", "max")).merge(
                payload["value"]
            )
        for name, summary in snapshot.get("histograms", {}).items():
            self.histogram(name).combine(summary)
        return self

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "MetricsRegistry":
        return cls().merge_snapshot(snapshot)

    @classmethod
    def merged(
        cls, snapshots: Iterable[Mapping[str, Any]]
    ) -> "MetricsRegistry":
        """Deterministic aggregate of snapshots, in the order given."""
        registry = cls()
        for snapshot in snapshots:
            registry.merge_snapshot(snapshot)
        return registry
