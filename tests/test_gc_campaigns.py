"""Campaign-level GC acceptance: collections must be invisible.

The tentpole claim of the incremental-GC engine is that memory
management never changes an answer: a campaign run with an aggressively
tiny GC threshold — collecting every few faults — produces
detectabilities bit-identical to an engine that never collects at all
(and to the brute-force truth-table oracle), while keeping the live
node population bounded. The slow-marked test is the full C432
acceptance criterion.
"""

from __future__ import annotations

import pytest

from repro.benchcircuits import get_circuit
from repro.core.engine import DifferencePropagation
from repro.experiments import campaigns, parallel
from repro.experiments.config import get_scale
from repro.faults.stuck_at import collapsed_checkpoint_faults
from repro.simulation.truthtable import TruthTableSimulator

SCALE = get_scale("ci")

#: Forces a collection every few faults even on small circuits.
TINY_GC_LIMIT = 300

#: Large enough that the no-GC reference engine never collects.
NEVER = 10**9


@pytest.fixture(scope="module", autouse=True)
def _fresh_campaign_state():
    campaigns.clear_campaign_caches()
    yield
    campaigns.clear_campaign_caches()


def _detectabilities(engine, faults):
    return [engine.analyze(f).detectability for f in faults]


# ----------------------------------------------------------------------
# Engine-level equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ("c95", "alu181"))
def test_gc_engine_matches_no_gc_engine(name):
    """Tiny-threshold GC runs many sweeps yet changes no detectability."""
    circuit = get_circuit(name)
    faults = collapsed_checkpoint_faults(circuit)
    gc_engine = DifferencePropagation(circuit, gc_node_limit=TINY_GC_LIMIT)
    ref_engine = DifferencePropagation(circuit, gc_node_limit=NEVER)
    assert _detectabilities(gc_engine, faults) == _detectabilities(
        ref_engine, faults
    )
    assert (
        gc_engine.functions.manager.gc_runs > 0
    ), "threshold never tripped — test is vacuous"
    assert ref_engine.functions.manager.gc_runs == 0


def test_gc_engine_matches_truth_table_oracle():
    """Differential check: GC'd engine vs brute-force simulation."""
    c95 = get_circuit("c95")
    engine = DifferencePropagation(c95, gc_node_limit=TINY_GC_LIMIT)
    simulator = TruthTableSimulator(c95)
    for fault in collapsed_checkpoint_faults(c95):
        assert engine.analyze(fault).detectability == (
            simulator.detectability(fault)
        )
    assert engine.functions.manager.gc_runs > 0


def test_gc_bounds_live_nodes_and_allocation():
    """Collections keep both the live population and the slot store small."""
    c95 = get_circuit("c95")
    faults = collapsed_checkpoint_faults(c95)
    gc_engine = DifferencePropagation(c95, gc_node_limit=TINY_GC_LIMIT)
    ref_engine = DifferencePropagation(c95, gc_node_limit=NEVER)
    _detectabilities(gc_engine, faults)
    _detectabilities(ref_engine, faults)
    gc_stats = gc_engine.functions.manager.stats()
    ref_stats = ref_engine.functions.manager.stats()
    assert gc_stats.reclaimed_nodes > 0
    # Slot reuse: the collected manager's allocation high-water mark
    # stays well below the monotonically growing reference store.
    assert gc_stats.allocated_nodes < ref_stats.allocated_nodes
    # The adaptive threshold bounds the steady state (it only rises
    # when a sweep finds the store mostly live).
    assert gc_stats.live_nodes <= gc_engine._gc_threshold


def test_fault_analyses_held_across_gc_stay_valid():
    """Caller-retained analyses pin their roots through collections."""
    c95 = get_circuit("c95")
    faults = collapsed_checkpoint_faults(c95)
    engine = DifferencePropagation(c95, gc_node_limit=TINY_GC_LIMIT)
    held = [engine.analyze(f) for f in faults[:8]]
    snapshots = [a.tests.density() for a in held]
    for fault in faults[8:]:
        engine.analyze(fault)
    assert engine.functions.manager.gc_runs > 0
    assert [a.tests.density() for a in held] == snapshots


# ----------------------------------------------------------------------
# Telemetry surfaces
# ----------------------------------------------------------------------
def test_serial_campaign_reports_gc_telemetry():
    campaigns.clear_campaign_caches()
    result = campaigns.stuck_at_campaign("c95", SCALE)
    assert len(result.chunk_stats) == 1
    stat = result.chunk_stats[0]
    assert stat.live_nodes > 0
    assert stat.cache_misses > 0
    assert 0.0 <= stat.cache_hit_rate <= 1.0
    metrics = result.metrics()
    assert metrics.gauge_value("bdd.nodes.live") == stat.live_nodes
    assert metrics.gauge_value("bdd.nodes.peak_live") == stat.peak_live_nodes
    assert stat.peak_live_nodes >= stat.live_nodes
    assert metrics.counter_value("bdd.gc.runs") == stat.gc_runs
    assert metrics.ratio(
        "bdd.cache.hits", ("bdd.cache.hits", "bdd.cache.misses")
    ) == stat.cache_hit_rate


@pytest.mark.parallel
def test_parallel_campaign_reports_gc_telemetry():
    campaigns.clear_campaign_caches()
    circuit = get_circuit("c95")
    faults = collapsed_checkpoint_faults(circuit)
    result = parallel.run_campaign(
        circuit, "c95", SCALE, faults, bridging=False, n_workers=2
    )
    assert len(result.chunk_stats) > 1
    for stat in result.chunk_stats:
        assert stat.live_nodes > 0
        assert 0.0 <= stat.cache_hit_rate <= 1.0
    # Aggregates fold every chunk.
    metrics = result.metrics()
    assert metrics.gauge_value("bdd.nodes.live") == max(
        s.live_nodes for s in result.chunk_stats
    )
    assert metrics.counter_value("bdd.gc.runs") == sum(
        s.gc_runs for s in result.chunk_stats
    )


def test_telemetry_report_lists_cached_campaigns():
    campaigns.clear_campaign_caches()
    assert campaigns.telemetry_report() == [
        "campaign telemetry: no campaigns cached in this process"
    ]
    campaigns.stuck_at_campaign("c95", SCALE)
    lines = campaigns.telemetry_report()
    assert any("c95" in line and "stuck-at" in line for line in lines)


# ----------------------------------------------------------------------
# Full C432 acceptance criterion (slow)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_c432_campaign_gc_is_bit_identical():
    """A full C432 checkpoint campaign at the default campaign
    thresholds triggers incremental GC, keeps the steady-state live
    node count bounded by the (adaptive) threshold, and reproduces the
    never-collected baseline bit for bit."""
    circuit = get_circuit("c432")
    faults = collapsed_checkpoint_faults(circuit)
    gc_engine = DifferencePropagation(
        circuit, gc_node_limit=campaigns.CAMPAIGN_GC_LIMIT
    )
    baseline = DifferencePropagation(circuit, gc_node_limit=NEVER)
    assert _detectabilities(gc_engine, faults) == _detectabilities(
        baseline, faults
    )
    stats = gc_engine.functions.manager.stats()
    assert stats.gc_runs > 0
    assert stats.live_nodes <= gc_engine._gc_threshold
    assert stats.reclaimed_nodes > 0
    assert (
        stats.allocated_nodes
        < baseline.functions.manager.stats().allocated_nodes
    )
