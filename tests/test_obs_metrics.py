"""Metrics registry semantics and the campaign telemetry rendered into it.

Two layers under test: the instruments themselves (counter/gauge/
histogram merge algebra, snapshot round-trips) and the campaign side —
``ChunkStat.to_metrics()`` as the one place a chunk field gets its
metric name, and ``CampaignResult.metrics()`` as the single source
every aggregate (total seconds, node peaks, cache hit rate, the
``telemetry_report()`` table) reads by name.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
def test_counter_is_monotone():
    counter = Counter()
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_merge_modes():
    peak = Gauge(mode="max")
    peak.merge(10)
    peak.merge(4)
    assert peak.value == 10
    last = Gauge(mode="last")
    last.merge(10)
    last.merge(4)
    assert last.value == 4
    with pytest.raises(ValueError):
        Gauge(mode="sum")


def test_histogram_observe_and_combine():
    hist = Histogram()
    assert hist.mean == 0.0
    for value in (3.0, 1.0, 2.0):
        hist.observe(value)
    assert (hist.count, hist.total, hist.min, hist.max) == (3, 6.0, 1.0, 3.0)
    assert hist.mean == 2.0
    hist.combine({"count": 2, "sum": 10.0, "min": 0.5, "max": 8.0})
    assert (hist.count, hist.total, hist.min, hist.max) == (5, 16.0, 0.5, 8.0)
    hist.combine({"count": 0, "sum": 0, "min": None, "max": None})  # no-op
    assert hist.count == 5


def test_registry_rejects_kind_collisions():
    registry = MetricsRegistry()
    registry.counter("bdd.cache.hits")
    with pytest.raises(ValueError):
        registry.gauge("bdd.cache.hits")
    with pytest.raises(ValueError):
        registry.histogram("bdd.cache.hits")


def test_registry_ratio():
    registry = MetricsRegistry()
    assert registry.ratio("hits", ("hits", "misses")) == 0.0
    registry.counter("hits").inc(3)
    registry.counter("misses").inc(1)
    assert registry.ratio("hits", ("hits", "misses")) == 0.75


# ----------------------------------------------------------------------
# Snapshot / merge algebra
# ----------------------------------------------------------------------
counter_maps = st.dictionaries(
    st.sampled_from(("a", "b", "c")),
    st.integers(min_value=0, max_value=1000),
    max_size=3,
)


@given(st.lists(counter_maps, min_size=1, max_size=5))
def test_merged_counters_equal_columnwise_sums(maps):
    snapshots = [{"counters": m} for m in maps]
    merged = MetricsRegistry.merged(snapshots)
    for name in ("a", "b", "c"):
        assert merged.counter_value(name) == sum(m.get(name, 0) for m in maps)


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1))
def test_merged_gauges_take_the_max(values):
    snapshots = [
        {"gauges": {"peak": {"value": v, "mode": "max"}}} for v in values
    ]
    merged = MetricsRegistry.merged(snapshots)
    assert merged.gauge_value("peak") == max(values)


@given(st.lists(counter_maps, min_size=2, max_size=5), st.randoms())
def test_counter_merge_is_order_invariant(maps, rng):
    snapshots = [{"counters": m} for m in maps]
    shuffled = list(snapshots)
    rng.shuffle(shuffled)
    assert (
        MetricsRegistry.merged(snapshots).snapshot()
        == MetricsRegistry.merged(shuffled).snapshot()
    )


def test_snapshot_roundtrips_json_and_pickle():
    registry = MetricsRegistry()
    registry.counter("campaign.faults").inc(7)
    registry.gauge("bdd.nodes.peak_allocated").set(123)
    registry.histogram("campaign.chunk_seconds").observe(0.25)
    snapshot = registry.snapshot()
    assert json.loads(json.dumps(snapshot)) == snapshot
    assert pickle.loads(pickle.dumps(snapshot)) == snapshot
    rebuilt = MetricsRegistry.from_snapshot(snapshot)
    assert rebuilt.snapshot() == snapshot


# ----------------------------------------------------------------------
# ChunkStat rendered into a registry
# ----------------------------------------------------------------------
#: every numeric ChunkStat telemetry field and its one metric name
CHUNK_FIELD_METRICS = {
    "num_faults": "campaign.faults",
    "seconds": "campaign.seconds",
    "peak_nodes": "bdd.nodes.peak_allocated",
    "peak_live_nodes": "bdd.nodes.peak_live",
    "live_nodes": "bdd.nodes.live",
    "reclaimed_nodes": "bdd.gc.reclaimed_nodes",
    "gc_runs": "bdd.gc.runs",
    "reorder_runs": "bdd.reorder.runs",
    "reorder_swaps": "bdd.reorder.swaps",
    "reorder_nodes_before": "bdd.reorder.nodes_before",
    "reorder_nodes_after": "bdd.reorder.nodes_after",
    "cache_hits": "bdd.cache.hits",
    "cache_misses": "bdd.cache.misses",
    "cache_evictions": "bdd.cache.evictions",
    "words_simulated": "sim.words_simulated",
    "batches": "sim.batches",
    "batch_size": "sim.batch_size",
    "patterns_spent": "sampling.patterns_spent",
    "sampling_rounds": "sampling.rounds",
}

#: numeric fields that identify the chunk rather than measure it
CHUNK_IDENTITY_FIELDS = {"index", "worker_pid"}


def _stat(**overrides):
    from repro.experiments.campaigns import ChunkStat

    base = dict(
        index=2,
        num_faults=40,
        seconds=1.5,
        peak_nodes=9000,
        worker_pid=4242,
        live_nodes=800,
        reclaimed_nodes=300,
        gc_runs=2,
        cache_hits=60,
        cache_misses=40,
        cache_evictions=5,
    )
    base.update(overrides)
    return ChunkStat(**base)


def test_chunkstat_emits_each_field_once_under_its_metric_name():
    from repro.experiments.campaigns import ChunkStat

    numeric = [
        spec.name
        for spec in dataclasses.fields(ChunkStat)
        if spec.type in ("int", "float")
    ]
    # A new telemetry field must be given a metric name (and this map
    # an entry) — no field may travel unrendered.
    assert set(numeric) == set(CHUNK_FIELD_METRICS) | CHUNK_IDENTITY_FIELDS
    values = {name: 1000 + i for i, name in enumerate(numeric)}
    stat = ChunkStat(**values, ci_widths=(0.25, 0.5))

    snapshot = stat.to_metrics().snapshot()
    emitted = [
        *snapshot["counters"].items(),
        *((name, gauge["value"]) for name, gauge in snapshot["gauges"].items()),
    ]
    assert sorted(emitted) == sorted(
        (metric, values[name]) for name, metric in CHUNK_FIELD_METRICS.items()
    )
    for name in CHUNK_IDENTITY_FIELDS:
        assert values[name] not in dict(emitted).values()
    histograms = snapshot["histograms"]
    assert histograms["campaign.chunk_seconds"]["count"] == 1
    assert histograms["campaign.chunk_seconds"]["sum"] == values["seconds"]
    assert histograms["sampling.ci_width"]["count"] == 2


def test_campaign_aggregates_are_views_over_metrics():
    from repro.circuit import CircuitBuilder
    from repro.experiments.campaigns import CampaignResult, FaultResult
    from repro.faults.lines import Line
    from repro.faults.stuck_at import StuckAtFault

    builder = CircuitBuilder("tiny")
    a, b = builder.inputs("a", "b")
    builder.output(builder.and_(a, b, name="y"))
    circuit = builder.build()

    results = (
        FaultResult(
            fault=StuckAtFault(Line("a"), True),
            detectability=Fraction(1, 4),
            upper_bound=Fraction(1, 2),
            observable_pos=frozenset({"y"}),
        ),
        FaultResult(
            fault=StuckAtFault(Line("y"), False),
            detectability=Fraction(0),
            upper_bound=Fraction(1, 4),
            observable_pos=frozenset(),
        ),
    )
    chunks = (
        _stat(
            index=0,
            seconds=1.0,
            peak_nodes=5000,
            peak_live_nodes=900,
            cache_hits=30,
            cache_misses=10,
        ),
        _stat(
            index=1,
            seconds=0.5,
            peak_nodes=9000,
            peak_live_nodes=850,
            cache_hits=30,
            cache_misses=30,
        ),
    )
    campaign = CampaignResult(
        circuit=circuit, results=results, exact=True, chunk_stats=chunks
    )

    assert campaign.total_seconds() == pytest.approx(1.5)
    registry = campaign.metrics()
    # gauges take the max across chunks, counters the sum
    assert registry.gauge_value("bdd.nodes.peak_allocated") == 9000
    assert registry.gauge_value("bdd.nodes.peak_live") == 900
    assert registry.gauge_value("bdd.nodes.live") == 800
    assert registry.counter_value("bdd.gc.reclaimed_nodes") == 600
    assert registry.counter_value("bdd.gc.runs") == 4
    assert registry.ratio(
        "bdd.cache.hits", ("bdd.cache.hits", "bdd.cache.misses")
    ) == pytest.approx(60 / 100)
    assert registry.counter_value("campaign.results") == 2
    assert registry.counter_value("campaign.detectable") == 1
    chunk_seconds = registry.histogram("campaign.chunk_seconds")
    assert chunk_seconds.count == 2
    assert chunk_seconds.summary()["max"] == 1.0


def test_telemetry_report_renders_from_metrics():
    from repro.experiments import campaigns
    from repro.experiments.config import get_scale

    campaigns.clear_campaign_caches()
    try:
        campaigns.stuck_at_campaign("c17", get_scale("smoke"))
        lines = campaigns.telemetry_report()
    finally:
        campaigns.clear_campaign_caches()
    assert any(line.lstrip().startswith("circuit") for line in lines)
    header = next(line for line in lines if line.lstrip().startswith("circuit"))
    assert "peak-alloc" in header.split() and "peak-live" in header.split()
    row = next(line for line in lines if "c17" in line)
    assert "stuck-at" in row and "%" in row


# ----------------------------------------------------------------------
# Histogram percentiles (feed the profiler's hotspot table)
# ----------------------------------------------------------------------
def test_percentiles_nearest_rank_on_small_pools():
    hist = Histogram()
    assert hist.p50 is None and hist.percentile(99) is None
    for value in (4.0, 1.0, 3.0, 2.0):
        hist.observe(value)
    assert hist.percentile(0) == 1.0  # rank clamps to the first stat
    assert hist.p50 == 2.0
    assert hist.percentile(75) == 3.0
    assert hist.p95 == 4.0 and hist.p99 == 4.0
    assert hist.percentile(100) == 4.0
    with pytest.raises(ValueError):
        hist.percentile(101)


def test_percentiles_on_a_known_distribution():
    hist = Histogram()
    for value in range(1, 101):  # 1..100, uniform
        hist.observe(float(value))
    assert hist.p50 == 50.0
    assert hist.p95 == 95.0
    assert hist.p99 == 99.0


def test_sample_store_stays_bounded_and_quantiles_stay_close():
    from repro.obs.metrics import SAMPLE_CAP

    hist = Histogram()
    n = 10 * SAMPLE_CAP
    for value in range(n):
        hist.observe(float(value))
    assert len(hist.samples) <= 2 * SAMPLE_CAP
    assert hist.count == n
    # Compression keeps evenly spaced order statistics: quantiles stay
    # within one compression step of the exact answer.
    step = n / SAMPLE_CAP
    assert abs(hist.p50 - 0.50 * n) <= 2 * step
    assert abs(hist.p99 - 0.99 * n) <= 2 * step
    assert hist.min == 0.0 and hist.max == float(n - 1)


def test_snapshot_carries_samples_and_percentiles():
    registry = MetricsRegistry()
    hist = registry.histogram("campaign.chunk_seconds")
    for value in (0.3, 0.1, 0.2):
        hist.observe(value)
    summary = registry.snapshot()["histograms"]["campaign.chunk_seconds"]
    assert summary["p50"] == 0.2
    assert summary["p95"] == 0.3
    assert summary["samples"] == [[0.1, 1.0], [0.2, 1.0], [0.3, 1.0]]
    rebuilt = MetricsRegistry.from_snapshot(registry.snapshot())
    assert rebuilt.histogram("campaign.chunk_seconds").p50 == 0.2


def test_combine_merges_sample_pools():
    ours = Histogram()
    for value in (1.0, 2.0):
        ours.observe(value)
    theirs = Histogram()
    for value in (3.0, 4.0, 5.0, 6.0):
        theirs.observe(value)
    ours.combine(theirs.summary())
    assert ours.count == 6
    assert ours.p50 == 3.0
    assert ours.max == 6.0


def test_combine_tolerates_pre_percentile_snapshots():
    hist = Histogram()
    hist.observe(1.0)
    # A legacy summary without a sample pool merges its count/sum/min/
    # max but contributes nothing to quantiles.
    hist.combine({"count": 3, "sum": 30.0, "min": 9.0, "max": 11.0})
    assert hist.count == 4
    assert hist.p50 == 1.0  # only the local sample is in the pool
    assert hist.max == 11.0


@given(
    st.lists(
        st.lists(
            st.floats(min_value=0, max_value=1000, allow_nan=False),
            max_size=50,
        ),
        min_size=2,
        max_size=5,
    ),
    st.randoms(),
)
def test_histogram_merge_percentiles_are_deterministic(chunks, rng):
    """Same snapshots, same order → identical quantiles, every time."""

    def merged(snapshots):
        registry = MetricsRegistry.merged(
            {"histograms": {"h": s}} for s in snapshots
        )
        hist = registry.histogram("h")
        return (hist.p50, hist.p95, hist.p99, sorted(hist.samples))

    snapshots = []
    for chunk in chunks:
        hist = Histogram()
        for value in chunk:
            hist.observe(value)
        snapshots.append(hist.summary())
    assert merged(snapshots) == merged(snapshots)
    # Order-invariance of the *sorted pool* (and hence the quantiles):
    # the pool is a function of the sample multiset only.
    shuffled = list(snapshots)
    rng.shuffle(shuffled)
    assert merged(shuffled)[3] == merged(snapshots)[3]
