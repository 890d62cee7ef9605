"""Bench — incremental GC vs. the never-collect baseline on C432.

Runs the complete collapsed checkpoint campaign on C432 twice through
the engine: once with GC disabled (the node store grows monotonically,
the pre-GC behaviour) and once with the campaign GC threshold. Asserts
bit-identical detectabilities and a bounded live population. The measured numbers land in the machine-readable
``results/BENCH_gc.json`` artifact (via the shared ``BENCH_EXTRA``
seam, feeding the perf-trajectory sentinel); ``results/bench_gc.txt``
stays as the human rendering of the same data.
"""

from __future__ import annotations

import time

import pytest

from repro.benchcircuits import get_circuit
from repro.core.engine import DifferencePropagation
from repro.experiments import campaigns
from repro.faults.stuck_at import collapsed_checkpoint_faults

#: Large enough that the baseline engine never collects.
NEVER = 10**9

#: Measured fields published into results/BENCH_gc.json by the shared
#: conftest artifact fixture (filled at test time).
BENCH_EXTRA: dict = {}


@pytest.fixture(autouse=True)
def _isolated_campaign_state():
    campaigns.clear_campaign_caches()
    yield
    campaigns.clear_campaign_caches()


@pytest.mark.benchmark(group="gc")
def test_gc_overhead_and_footprint_c432(benchmark, results_dir):
    circuit = get_circuit("c432")
    faults = collapsed_checkpoint_faults(circuit)

    def run(gc_limit: int):
        engine = DifferencePropagation(circuit, gc_node_limit=gc_limit)
        t0 = time.perf_counter()
        detectabilities = [engine.analyze(f).detectability for f in faults]
        return engine, detectabilities, time.perf_counter() - t0

    baseline_engine, baseline_det, t_baseline = run(NEVER)
    baseline_stats = baseline_engine.functions.manager.stats()

    def gc_run():
        return run(campaigns.CAMPAIGN_GC_LIMIT)

    gc_engine, gc_det, t_gc = benchmark.pedantic(
        gc_run, rounds=3, iterations=1
    )
    gc_stats = gc_engine.functions.manager.stats()

    # GC must be invisible in the answers.
    assert gc_det == baseline_det, "GC changed a detectability"
    assert gc_stats.gc_runs > 0
    assert gc_stats.reclaimed_nodes > 0
    assert gc_stats.live_nodes <= gc_engine._gc_threshold
    assert gc_stats.allocated_nodes < baseline_stats.allocated_nodes

    overhead = (t_gc - t_baseline) / t_baseline if t_baseline else 0.0
    BENCH_EXTRA.update(
        faults=len(faults),
        gc_threshold=campaigns.CAMPAIGN_GC_LIMIT,
        baseline_seconds=t_baseline,
        gc_seconds=t_gc,
        gc_overhead=overhead,
        gc_sweeps=gc_stats.gc_runs,
        peak_live_nodes=gc_engine.peak_live_nodes,
        steady_live_nodes=gc_stats.live_nodes,
        allocated_nodes=gc_stats.allocated_nodes,
        baseline_allocated_nodes=baseline_stats.allocated_nodes,
        reclaimed_nodes=gc_stats.reclaimed_nodes,
        gc_cache_hit_rate=gc_stats.cache_hit_rate,
    )
    lines = [
        f"c432 stuck-at campaign, {len(faults)} faults, "
        f"gc threshold {campaigns.CAMPAIGN_GC_LIMIT}",
        f"no-gc baseline {t_baseline:8.3f} s  "
        f"(allocated {baseline_stats.allocated_nodes})",
        f"with gc        {t_gc:8.3f} s  "
        f"({gc_stats.gc_runs} sweeps)",
        f"gc overhead    {100 * overhead:+7.1f} %",
        f"peak live nodes     {gc_engine.peak_live_nodes}",
        f"steady-state live   {gc_stats.live_nodes}",
        f"allocated (gc)      {gc_stats.allocated_nodes}",
        f"reclaimed slots     {gc_stats.reclaimed_nodes}",
        f"cache hit rate      {100 * gc_stats.cache_hit_rate:6.1f} %",
    ]
    rendering = "\n".join(lines)
    (results_dir / "bench_gc.txt").write_text(rendering + "\n")
    print(f"\n{rendering}")
