"""Bench — observability overhead on the C432 stuck-at campaign.

The observability layer must be free when off: every hot-path
instrumentation point (`dp.compute_test_set`, `bdd.gc`) goes through
:func:`repro.obs.span`, and the campaign loop ticks a progress meter
once per fault through :func:`repro.obs.meter` — with tracing and
progress disabled both return shared no-op singletons. This bench
measures the combined disabled-path cost directly and
deterministically:

1. run the complete collapsed C432 stuck-at campaign with tracing and
   progress disabled and record its wall time;
2. count the instrumentation round-trips a fully observed run of that
   campaign performs: one span per fault analysis, one per GC sweep,
   one per chunk — plus one progress tick per fault;
3. time that many disabled ``span()`` + ``meter.update()`` round-trips
   in a tight loop.

The ratio of (3) to (1) is the whole disabled-path overhead of
tracing *and* progress together and must stay under 3 % — in practice
orders of magnitude below that, since one OBDD fault analysis costs
milliseconds and a no-op round-trip costs well under a microsecond.
(The profiler itself is offline — it aggregates exported traces — so
its campaign-time cost is exactly these disabled instrumentation
points.) Timing-free structural checks ride along: the disabled
tracer returns the singleton no-op span and accumulates no events,
and the disabled meter is the shared null meter. Measured numbers
publish into ``results/BENCH_obs.json`` via ``BENCH_EXTRA``;
``bench_obs.txt`` stays the human rendering.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.benchcircuits import get_circuit
from repro.core.engine import DifferencePropagation
from repro.experiments import campaigns
from repro.faults.stuck_at import collapsed_checkpoint_faults

#: Acceptance ceiling for the combined disabled tracing+progress
#: overhead on the campaign.
MAX_DISABLED_OVERHEAD = 0.03

#: Measured fields published into results/BENCH_obs.json by the shared
#: conftest artifact fixture (filled at test time).
BENCH_EXTRA: dict = {}


@pytest.fixture(autouse=True)
def _isolated_campaign_state():
    campaigns.clear_campaign_caches()
    yield
    campaigns.clear_campaign_caches()


@pytest.mark.benchmark(group="obs")
def test_disabled_tracing_overhead_c432(benchmark, results_dir):
    if obs.tracing_enabled():
        pytest.skip("overhead bench needs tracing disabled (REPRO_TRACE)")
    if obs.progress_enabled():
        pytest.skip(
            "overhead bench needs progress disabled (REPRO_PROGRESS)"
        )

    circuit = get_circuit("c432")
    faults = collapsed_checkpoint_faults(circuit)

    def run():
        engine = DifferencePropagation(
            circuit, gc_node_limit=campaigns.CAMPAIGN_GC_LIMIT
        )
        t0 = time.perf_counter()
        detectabilities = [engine.analyze(f).detectability for f in faults]
        return engine, detectabilities, time.perf_counter() - t0

    engine, detectabilities, t_campaign = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert all(0 <= d <= 1 for d in detectabilities)

    # Structural zero-cost guarantees: disabled span() hands back the
    # shared no-op singleton, the null tracer never records events, and
    # the disabled meter is the shared null meter.
    sp = obs.span("dp.compute_test_set", fault=faults[0])
    assert sp is obs.NOOP_SPAN
    assert obs.get_tracer().events == ()
    assert obs.meter(len(faults)) is obs.NULL_METER

    # Instrumentation a fully observed run performs: one span per fault
    # (dp.compute_test_set), one per GC sweep (bdd.gc), one chunk span —
    # plus one progress tick per fault in the campaign loop.
    n_spans = len(faults) + engine.functions.manager.gc_runs + 1
    n_ticks = len(faults)

    loops = max(n_spans, 10_000)
    meter = obs.NULL_METER
    t0 = time.perf_counter()
    for fault in range(loops):
        with obs.span("dp.compute_test_set", fault=fault) as s:
            s.set(observable_pos=fault)
        meter.update(1)
    t_per_roundtrip = (time.perf_counter() - t0) / loops

    # One loop iteration covers a span AND a tick; charge the campaign
    # for the larger count so the estimate stays conservative.
    overhead = (max(n_spans, n_ticks) * t_per_roundtrip) / t_campaign
    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled tracing+progress costs {100 * overhead:.3f} % of the "
        f"c432 campaign ({max(n_spans, n_ticks)} round-trips x "
        f"{1e9 * t_per_roundtrip:.0f} ns vs {t_campaign:.3f} s)"
    )

    BENCH_EXTRA.update(
        faults=len(faults),
        campaign_seconds=t_campaign,
        instrumented_spans=n_spans,
        progress_ticks=n_ticks,
        disabled_roundtrip_ns=1e9 * t_per_roundtrip,
        disabled_overhead=overhead,
        overhead_ceiling=MAX_DISABLED_OVERHEAD,
    )
    lines = [
        f"c432 stuck-at campaign, {len(faults)} faults",
        f"campaign wall (obs off)          {t_campaign:8.3f} s",
        f"spans a traced run opens         {n_spans:8d}",
        f"progress ticks an observed run   {n_ticks:8d}",
        f"disabled span+tick round-trip    {1e9 * t_per_roundtrip:8.0f} ns",
        f"disabled obs overhead            {100 * overhead:8.4f} %  "
        f"(ceiling {100 * MAX_DISABLED_OVERHEAD:.0f} %)",
    ]
    rendering = "\n".join(lines)
    (results_dir / "bench_obs.txt").write_text(rendering + "\n")
    print(f"\n{rendering}")
