"""Bench — dynamic variable reordering (Rudell sifting) on C432/C1908.

Fast arm (default): the complete C432 stuck-at campaign with and
without reordering. Sifting must be invisible in the answers
(bit-identical detectabilities), must actually run (an initial pass
after the good-function build), and must not blow up wall time on a
circuit whose declared order is already fine.

Slow arm (``-m slow``): the acceptance measurement on C1908, whose
declared order is terrible (648 k live nodes for the good functions
alone). A seeded 120-fault declared-order sample establishes a *lower
bound* on the full declared campaign's peak live population; the FULL
1695-fault campaign then runs under sifting and must come in at least
30 % below that bound, with every sampled fault's detectability
bit-identical between the arms.

Measured numbers land in ``results/BENCH_sifting.json`` via the shared
``BENCH_EXTRA`` seam and feed the perf-trajectory sentinel
(``results/history/sifting.jsonl``).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.benchcircuits import get_circuit
from repro.core.engine import DifferencePropagation
from repro.experiments import campaigns
from repro.faults.stuck_at import collapsed_checkpoint_faults

#: Declared-order sample size for the C1908 lower-bound arm.
DECLARED_SAMPLE = 120

#: The acceptance bar: sifting must cut C1908's peak live nodes by
#: at least this fraction against the declared-order bound.
PEAK_REDUCTION_FLOOR = 0.30

#: Measured fields published into results/BENCH_sifting.json by the
#: shared conftest artifact fixture (filled at test time).
BENCH_EXTRA: dict = {}


@pytest.fixture(autouse=True)
def _isolated_campaign_state():
    campaigns.clear_campaign_caches()
    yield
    campaigns.clear_campaign_caches()


def _run_campaign(circuit, faults, reorder: bool):
    engine = DifferencePropagation(
        circuit,
        gc_node_limit=campaigns.CAMPAIGN_GC_LIMIT,
        reorder=reorder,
    )
    t0 = time.perf_counter()
    detectabilities = [engine.analyze(f).detectability for f in faults]
    return engine, detectabilities, time.perf_counter() - t0


@pytest.mark.benchmark(group="sifting")
def test_sifting_is_invisible_in_results_c432(benchmark):
    circuit = get_circuit("c432")
    faults = collapsed_checkpoint_faults(circuit)

    declared_engine, declared_det, t_declared = _run_campaign(
        circuit, faults, reorder=False
    )

    sifted_engine, sifted_det, t_sifted = benchmark.pedantic(
        lambda: _run_campaign(circuit, faults, reorder=True),
        rounds=1,
        iterations=1,
    )

    assert sifted_det == declared_det, "sifting changed a detectability"
    sifted_stats = sifted_engine.functions.manager.stats()
    last_sift = sifted_engine.functions.manager.last_reorder
    assert sifted_stats.reorder_runs >= 1  # the initial post-build pass
    assert last_sift.nodes_after <= last_sift.nodes_before
    # C432's declared order is already decent: sifting must not grow
    # the footprint, and the pass itself must stay cheap.
    assert sifted_engine.peak_live_nodes <= int(
        1.05 * declared_engine.peak_live_nodes
    )

    BENCH_EXTRA.update(
        c432_faults=len(faults),
        c432_declared_seconds=t_declared,
        c432_sifted_seconds=t_sifted,
        c432_declared_peak_live_nodes=declared_engine.peak_live_nodes,
        c432_sifted_peak_live_nodes=sifted_engine.peak_live_nodes,
        c432_reorder_runs=sifted_stats.reorder_runs,
        c432_reorder_swaps=sifted_stats.reorder_swaps,
    )
    print(
        f"\nc432 stuck-at, {len(faults)} faults: declared "
        f"{t_declared:.2f}s peak {declared_engine.peak_live_nodes}, "
        f"sifted {t_sifted:.2f}s peak {sifted_engine.peak_live_nodes} "
        f"({sifted_stats.reorder_runs} passes, "
        f"{sifted_stats.reorder_swaps} swaps)"
    )


@pytest.mark.slow
@pytest.mark.benchmark(group="sifting")
def test_sifting_peak_reduction_c1908(benchmark, repro_seed):
    """The acceptance bar: ≥30 % peak-live reduction on C1908.

    The declared arm is a seeded sample — an honest *lower bound* on
    the full declared campaign's peak (every sampled fault's transient
    is one the full campaign also pays) at ~4 % of its cost. The
    sifted arm is the complete collapsed checkpoint set.
    """
    circuit = get_circuit("c1908")
    all_faults = sorted(collapsed_checkpoint_faults(circuit))
    rng = random.Random(repro_seed)
    sample = sorted(rng.sample(list(all_faults), DECLARED_SAMPLE))

    declared_engine, declared_det, t_declared = _run_campaign(
        circuit, sample, reorder=False
    )

    sifted_engine, sifted_det, t_sifted = benchmark.pedantic(
        lambda: _run_campaign(circuit, all_faults, reorder=True),
        rounds=1,
        iterations=1,
    )

    # Bit-identity on the shared subset: the sample is drawn from the
    # same sorted fault list the full campaign sweeps.
    by_fault = dict(zip(all_faults, sifted_det))
    for fault, det in zip(sample, declared_det):
        assert by_fault[fault] == det, fault

    declared_peak = declared_engine.peak_live_nodes
    sifted_peak = sifted_engine.peak_live_nodes
    reduction = 1.0 - sifted_peak / declared_peak
    assert reduction >= PEAK_REDUCTION_FLOOR, (
        f"sifting cut peak live nodes by only {100 * reduction:.1f}% "
        f"({declared_peak} → {sifted_peak})"
    )
    sifted_stats = sifted_engine.functions.manager.stats()
    last_sift = sifted_engine.functions.manager.last_reorder
    assert sifted_stats.reorder_runs >= 1

    BENCH_EXTRA.update(
        c1908_faults=len(all_faults),
        c1908_declared_sample=len(sample),
        c1908_declared_seconds=t_declared,
        c1908_sifted_seconds=t_sifted,
        c1908_declared_peak_live_nodes=declared_peak,
        c1908_sifted_peak_live_nodes=sifted_peak,
        c1908_peak_reduction=reduction,
        c1908_reorder_runs=sifted_stats.reorder_runs,
        c1908_reorder_swaps=sifted_stats.reorder_swaps,
        c1908_reorder_nodes_before=last_sift.nodes_before,
        c1908_reorder_nodes_after=last_sift.nodes_after,
    )
    print(
        f"\nc1908 stuck-at: declared sample ({len(sample)} faults) "
        f"{t_declared:.1f}s peak {declared_peak}; sifted full "
        f"({len(all_faults)} faults) {t_sifted:.1f}s peak {sifted_peak} "
        f"→ {100 * reduction:.1f}% reduction"
    )
