"""Shared fault campaigns: run Difference Propagation over a fault set
once and let every experiment consume the same records.

A campaign reduces each :class:`~repro.core.metrics.FaultAnalysis` to a
compact :class:`FaultResult` (plain fractions and names, no live OBDD
handles) so results can be cached across the experiment suite without
pinning BDD managers in memory.

A campaign's identity is its :class:`CampaignRequest`: every input
that determines the result, resolved from the :class:`Scale` once. The
request keys both the process memo and the run ledger, so the two can
never disagree about what "the same campaign" means.

Campaigns run serially in-process by default; pass ``workers`` (or set
``Scale.workers``) to shard the fault list over a process pool — see
:mod:`repro.experiments.parallel`. Both paths produce bit-identical
:class:`CampaignResult`\\ s.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from repro import obs
from repro.bdd.ordering import dfs_fanin_order
from repro.benchcircuits import get_circuit
from repro.circuit.iscas import write_bench
from repro.circuit.netlist import Circuit
from repro.core.engine import DifferencePropagation
from repro.core.metrics import (
    Fault,
    adherence,
    detectability_upper_bound,
    is_stuck_at_equivalent,
)
from repro.core.symbolic import CircuitFunctions
from repro.experiments import runcache
from repro.experiments.config import CAMPAIGN_ENGINES, CAMPAIGN_MODES, Scale
from repro.faults.bridging import BridgeKind, BridgingFault, enumerate_nfbfs
from repro.faults.sampling import sample_bridging_faults
from repro.faults.stuck_at import collapsed_checkpoint_faults


@dataclass(frozen=True)
class FaultResult:
    """One fault's scalar outcomes (safe to cache and aggregate).

    The last four fields are populated only by sampled campaigns
    (:mod:`repro.sampling`): the Wilson confidence interval around the
    estimated detectability, the patterns the sequential stopping rule
    actually spent on this fault, and the stratum the fault was drawn
    from. Exact campaigns leave them ``None``.
    """

    fault: Fault
    detectability: Fraction
    upper_bound: Fraction
    observable_pos: frozenset[str]
    stuck_at_equivalent: bool | None = None  # bridging faults only
    ci_low: float | None = None
    ci_high: float | None = None
    patterns_spent: int | None = None
    stratum: str | None = None

    @property
    def is_detectable(self) -> bool:
        return self.detectability > 0

    @property
    def adherence(self) -> Fraction | None:
        return adherence(self.detectability, self.upper_bound)

    @property
    def ci_width(self) -> float | None:
        """Full CI width (``None`` on exact records)."""
        if self.ci_low is None or self.ci_high is None:
            return None
        return self.ci_high - self.ci_low


@dataclass(frozen=True)
class ChunkStat:
    """Execution telemetry for one shard of a campaign.

    Serial campaigns report a single chunk; parallel campaigns report
    one per shard, in original fault order. Stats never participate in
    result equality — two runs of the same campaign compare equal on
    ``results`` regardless of how they were scheduled.

    The numeric fields are the chunk's telemetry; :meth:`to_metrics`
    is the one place that names each of them as a metric of the
    mergeable :class:`~repro.obs.metrics.MetricsRegistry`. GC, sifting
    and cache counters are the *delta* of the manager's own counters
    (:class:`~repro.bdd.cache.ManagerStats`) while the chunk ran — a
    long-lived pool worker's manager counts cumulatively across chunks
    — and ``live_nodes`` is the end-of-chunk snapshot.
    """

    index: int
    num_faults: int
    seconds: float
    #: allocated node-store high-water mark (sift transients included)
    peak_nodes: int
    worker_pid: int
    #: largest in-use node count the engine saw between faults
    peak_live_nodes: int = 0
    #: in-use node count of the chunk's manager when the chunk finished
    live_nodes: int = 0
    #: node slots reclaimed by GC sweeps during this chunk
    reclaimed_nodes: int = 0
    #: GC sweeps during this chunk, the sweep opening each sift included
    gc_runs: int = 0
    #: sifting passes during this chunk and the adjacent-level swaps
    #: they performed (zero with reordering off)
    reorder_runs: int = 0
    reorder_swaps: int = 0
    #: live nodes just before / after the chunk's last sift (zero when
    #: the chunk did not sift)
    reorder_nodes_before: int = 0
    reorder_nodes_after: int = 0
    #: computed-table hits/misses/evictions accrued during this chunk
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: bit-parallel kernel work: 64-bit words swept and batches run
    #: during this chunk (zero on OBDD chunks), plus the kernel's
    #: fault-batch height
    words_simulated: int = 0
    batches: int = 0
    batch_size: int = 0
    #: sampled-mode work: patterns spent (summed over the chunk's
    #: faults) and sequential rounds run (zero on exact chunks)
    patterns_spent: int = 0
    sampling_rounds: int = 0
    #: per-fault final CI widths of a sampled chunk, observed into the
    #: ``sampling.ci_width`` histogram by :meth:`to_metrics`
    ci_widths: tuple[float, ...] = ()

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def to_metrics(self) -> obs.MetricsRegistry:
        """The chunk's metrics as a mergeable registry.

        Counters merge by summing across chunks, gauges (peaks and
        footprints) by max. The ``sim.*`` names report the bit-parallel
        kernel's work (zero on OBDD chunks, and vice versa).
        """
        registry = obs.MetricsRegistry()
        for metric, value in (
            ("campaign.faults", self.num_faults),
            ("campaign.seconds", self.seconds),
            ("bdd.gc.reclaimed_nodes", self.reclaimed_nodes),
            ("bdd.gc.runs", self.gc_runs),
            ("bdd.reorder.runs", self.reorder_runs),
            ("bdd.reorder.swaps", self.reorder_swaps),
            ("bdd.cache.hits", self.cache_hits),
            ("bdd.cache.misses", self.cache_misses),
            ("bdd.cache.evictions", self.cache_evictions),
            ("sim.words_simulated", self.words_simulated),
            ("sim.batches", self.batches),
            ("sampling.patterns_spent", self.patterns_spent),
            ("sampling.rounds", self.sampling_rounds),
        ):
            registry.counter(metric).inc(value)
        for metric, value in (
            ("bdd.nodes.peak_allocated", self.peak_nodes),
            ("bdd.nodes.peak_live", self.peak_live_nodes),
            ("bdd.nodes.live", self.live_nodes),
            ("bdd.reorder.nodes_before", self.reorder_nodes_before),
            ("bdd.reorder.nodes_after", self.reorder_nodes_after),
            ("sim.batch_size", self.batch_size),
        ):
            registry.gauge(metric).set(value)
        registry.histogram("campaign.chunk_seconds").observe(self.seconds)
        for width in self.ci_widths:
            registry.histogram("sampling.ci_width").observe(width)
        return registry


@dataclass(frozen=True)
class CampaignResult:
    """All fault results for one circuit / fault model / scale."""

    circuit: Circuit
    results: tuple[FaultResult, ...]
    exact: bool  # False when decomposition or sampling was active
    #: per-chunk timing / peak-node telemetry (compare=False: scheduling
    #: details must never make two otherwise-equal campaigns differ)
    chunk_stats: tuple[ChunkStat, ...] = field(default=(), compare=False)
    #: sampled mode's stratification plan (population/allocated/sampled
    #: per stratum); empty on exact campaigns. compare=False: the plan
    #: is derived from the fault list, not part of result identity.
    strata: tuple = field(default=(), compare=False)
    #: True when this result was served from the run ledger instead of
    #: computed — such a result has empty ``chunk_stats`` (no work was
    #: done) and reports ``campaign.cache_hit = 1`` in :meth:`metrics`.
    #: compare=False: a served result *equals* the computed one.
    from_cache: bool = field(default=False, compare=False)
    #: resource time-series sampled while the campaign ran (empty when
    #: ``$REPRO_RESOURCE`` is off or the result came from the ledger)
    resources: obs.ResourceSeries = field(
        default=obs.EMPTY_SERIES, compare=False
    )

    def detectabilities(self) -> list[Fraction]:
        return [r.detectability for r in self.results]

    def detectable(self) -> list[FaultResult]:
        return [r for r in self.results if r.is_detectable]

    def metrics(self) -> obs.MetricsRegistry:
        """Aggregate registry: chunk metrics merged in shard order, plus
        the result-derived counters (``campaign.results``,
        ``campaign.detectable``). Callers read aggregates from it by
        metric name."""
        registry = obs.MetricsRegistry.merged(
            stat.to_metrics().snapshot() for stat in self.chunk_stats
        )
        registry.counter("campaign.results").inc(len(self.results))
        registry.counter("campaign.detectable").inc(len(self.detectable()))
        registry.counter("campaign.cache_hit").inc(int(self.from_cache))
        return registry

    def total_seconds(self) -> float:
        """Summed per-chunk wall-clock (CPU-seconds of fault analysis)."""
        return self.metrics().counter_value("campaign.seconds")

    def patterns_spent(self) -> int:
        """Total sampled patterns spent, summed over faults and chunks."""
        return int(self.metrics().counter_value("sampling.patterns_spent"))

    def ci_width_summary(self) -> dict:
        """Summary of the per-fault CI-width histogram (sampled mode)."""
        return self.metrics().histogram("sampling.ci_width").summary()


#: In-use node count that triggers incremental GC between faults —
#: tighter than the engine default because experiment processes hold
#: several circuits at once (and every pool worker holds its own copy).
CAMPAIGN_GC_LIMIT = 50_000

#: Exhaustive frontier for the bit-parallel campaign engine; beyond it
#: the kernel runs a seeded random-pattern sample instead.
BITPARALLEL_EXHAUSTIVE_LIMIT = 14

#: Sampled vector count for bitparallel campaigns beyond the frontier.
BITPARALLEL_SAMPLE_VECTORS = 1024


@dataclass(frozen=True)
class CampaignRequest:
    """The identity of one campaign: every input that determines its result.

    One circuit, one fault model and one fault set through one routing
    (``dp``/``bitparallel``/``sampled``), with the scale's per-circuit
    slice already resolved. ``netlist`` digests the circuit's content
    and ``code`` the library's sources, so an edited ``.bench`` file or
    an edited engine never reuses a stale result. Requests compare (and
    hash) exactly as their :meth:`projection` does, which makes one
    request the key of the process memo and of the run ledger alike.

    ``scale`` rides along for execution only: its worker count,
    reordering and cache policies are result-neutral, so they stay out
    of the identity.
    """

    circuit: str
    model: str
    bridge_kind: str | None
    routing: str
    seed: int
    #: stuck-at sample limit or bridging sample target (None = all)
    sample: int | None
    decompose_threshold: int | None
    ordering: str
    #: sampled routing only (None otherwise)
    ci_width: float | None
    pattern_budget: int | None
    netlist: str
    code: str
    scale: Scale = field(compare=False, repr=False)

    @classmethod
    def of(
        cls,
        name: str,
        scale: Scale,
        kind: BridgeKind | None = None,
        engine: str | None = None,
        mode: str | None = None,
    ) -> "CampaignRequest":
        """Resolve ``scale`` (and per-call engine/mode overrides) for one
        campaign on circuit ``name``; bridging when ``kind`` is given."""
        engine = scale.engine if engine is None else engine
        mode = scale.mode if mode is None else mode
        if mode not in CAMPAIGN_MODES:
            raise KeyError(
                f"unknown campaign mode {mode!r}; "
                f"known: {', '.join(CAMPAIGN_MODES)}"
            )
        if engine not in CAMPAIGN_ENGINES:
            raise KeyError(
                f"unknown campaign engine {engine!r}; "
                f"known: {', '.join(CAMPAIGN_ENGINES)}"
            )
        # Sampled mode supersedes the engine choice: its estimator *is*
        # an engine (the bit-parallel kernel driven by the sequential
        # sampler), so "sampled" is the routing key.
        routing = "sampled" if mode == "sampled" else engine
        sampled = routing == "sampled"
        netlist = write_bench(get_circuit(name)).encode("utf-8")
        return cls(
            circuit=name,
            model="stuck-at" if kind is None else "bridging",
            bridge_kind=None if kind is None else kind.value,
            routing=routing,
            seed=scale.seed,
            sample=(
                scale.stuck_at_limit(name)
                if kind is None
                else scale.bridging_target(name)
            ),
            decompose_threshold=scale.decompose_threshold(name),
            ordering=scale.ordering(name),
            ci_width=scale.ci_width if sampled else None,
            pattern_budget=scale.pattern_budget if sampled else None,
            netlist=hashlib.sha256(netlist).hexdigest(),
            code=runcache.code_digest(),
            scale=scale,
        )

    @property
    def bridging(self) -> bool:
        return self.bridge_kind is not None

    def projection(self) -> dict:
        """The normalized identity hashed into the ledger's run key."""
        projection = {"schema": runcache.PROJECTION_SCHEMA}
        for spec in dataclasses.fields(self):
            if spec.compare:
                projection[spec.name] = getattr(self, spec.name)
        return projection


_functions_cache: dict[tuple[str, int | None, str], CircuitFunctions] = {}
#: every campaign this process has computed or served, by request
_memo: dict[CampaignRequest, CampaignResult] = {}
_bitparallel_cache: dict[tuple[str, int], object] = {}


def circuit_functions(name: str, scale: Scale) -> CircuitFunctions:
    """Shared good functions for ``name`` under ``scale``'s policy."""
    threshold = scale.decompose_threshold(name)
    ordering = scale.ordering(name)
    key = (name, threshold, ordering)
    if key not in _functions_cache:
        circuit = get_circuit(name)
        order = dfs_fanin_order(circuit) if ordering == "dfs" else None
        _functions_cache[key] = CircuitFunctions(
            circuit, order=order, decompose_threshold=threshold
        )
    return _functions_cache[key]


def clear_campaign_caches() -> None:
    """Drop every cached campaign, function table, and worker state.

    This also shuts down the parallel executor's process pool (each
    worker holds its own function/manager caches), so the next campaign
    — serial or parallel — starts from freshly built OBDD managers.
    """
    from repro.experiments import parallel

    _functions_cache.clear()
    _memo.clear()
    _bitparallel_cache.clear()
    parallel.shutdown_pool()


def telemetry_report() -> list[str]:
    """One formatted line of GC/cache telemetry per cached campaign.

    Backs the CLI's ``--stats`` surface: every campaign the current
    process has run (serial or fanned out over workers) reports its
    fault count, wall-clock, allocated and live node peaks, end-of-chunk
    live nodes, GC and sifting activity and computed-table hit rate.
    Each row is a rendering of the campaign's merged
    :meth:`CampaignResult.metrics` registry.
    """
    rows = sorted(
        _memo.items(),
        key=lambda item: (item[0].bridging, item[0].circuit, item[0].routing),
    )
    if not rows:
        return ["campaign telemetry: no campaigns cached in this process"]
    lines = [
        "campaign telemetry (per cached campaign):",
        f"{'circuit':<10} {'model':<12} {'engine':<11} {'faults':>6} "
        f"{'sec':>8} {'peak-alloc':>10} {'peak-live':>9} {'live':>8} "
        f"{'reclaimed':>9} {'gc':>4} "
        f"{'sifts':>5} {'swaps':>7} {'cache-hit%':>10}",
    ]
    for request, result in rows:
        model = (
            f"bridge/{request.bridge_kind}" if request.bridging else "stuck-at"
        )
        metrics = result.metrics()
        lines.append(
            f"{request.circuit:<10} {model:<12} {request.routing:<11} "
            f"{int(metrics.counter_value('campaign.results')):>6} "
            f"{metrics.counter_value('campaign.seconds'):>8.2f} "
            f"{int(metrics.gauge_value('bdd.nodes.peak_allocated')):>10} "
            f"{int(metrics.gauge_value('bdd.nodes.peak_live')):>9} "
            f"{int(metrics.gauge_value('bdd.nodes.live')):>8} "
            f"{int(metrics.counter_value('bdd.gc.reclaimed_nodes')):>9} "
            f"{int(metrics.counter_value('bdd.gc.runs')):>4} "
            f"{int(metrics.counter_value('bdd.reorder.runs')):>5} "
            f"{int(metrics.counter_value('bdd.reorder.swaps')):>7} "
            f"{100 * metrics.ratio('bdd.cache.hits', ('bdd.cache.hits', 'bdd.cache.misses')):>9.1f}%"
        )
    return lines


def _attach_strata(result: CampaignResult, sample) -> CampaignResult:
    """Label each record with its stratum and pin the sampling plan.

    Runs after the serial/parallel merge, so both executors produce the
    labels from the same :class:`~repro.sampling.strata
    .StratifiedSample` — scheduling can never perturb them.
    """
    labeled = tuple(
        dataclasses.replace(record, stratum=label)
        for record, label in zip(result.results, sample.labels)
    )
    return dataclasses.replace(result, results=labeled, strata=sample.plan)


def stuck_at_campaign(
    name: str,
    scale: Scale,
    workers: int | None = None,
    engine: str | None = None,
    mode: str | None = None,
) -> CampaignResult:
    """Collapsed checkpoint faults of circuit ``name`` under ``scale``.

    ``workers`` overrides the scale's worker policy for this call,
    ``engine`` its engine policy and ``mode`` its exact/sampled policy.
    """
    request = CampaignRequest.of(name, scale, engine=engine, mode=mode)
    return campaign(request, workers)


def bridging_campaign(
    name: str,
    kind: BridgeKind,
    scale: Scale,
    workers: int | None = None,
    engine: str | None = None,
    mode: str | None = None,
) -> CampaignResult:
    """Potentially detectable NFBFs of one dominance under ``scale``.

    Large circuits use the paper's distance-weighted exponential
    sampling (seeded); small circuits use the complete set. Sampled
    mode draws through the stratified sampler, which applies the same
    distance weighting inside the bridge stratum.
    """
    request = CampaignRequest.of(name, scale, kind, engine=engine, mode=mode)
    return campaign(request, workers)


def campaign(
    request: CampaignRequest, workers: int | None = None
) -> CampaignResult:
    """Run (or serve) one campaign: memo, then ledger, then compute.

    The memo is shared between serial and parallel runs because their
    results are identical; ``workers`` overrides the request's scale.
    """
    result = _memo.get(request)
    if result is not None:
        return result
    cache = request.scale.cache
    if cache:
        result = runcache.fetch(request.projection())
    if result is None:
        circuit = get_circuit(request.circuit)
        faults, sample = _draw_faults(request, circuit)
        result = _dispatch(circuit, request, faults, workers)
        if sample is not None:
            result = _attach_strata(result, sample)
        if cache:
            runcache.record(request.projection(), result)
    _memo[request] = result
    return result


def _draw_faults(request: CampaignRequest, circuit: Circuit):
    """The request's fault list, plus its stratified sample when sampled."""
    if request.bridging:
        population: Sequence[Fault] = list(
            enumerate_nfbfs(circuit, BridgeKind(request.bridge_kind))
        )
    else:
        population = collapsed_checkpoint_faults(circuit)
    size = request.sample
    if request.routing == "sampled":
        from repro.sampling.strata import stratified_sample

        sample = stratified_sample(
            circuit, population, size, seed=request.seed
        )
        return sample.faults, sample
    if size is None or size >= len(population):
        return population, None
    if request.bridging:
        drawn = sample_bridging_faults(
            circuit, population, size, seed=request.seed
        )
        return [s.fault for s in drawn], None
    rng = random.Random(request.seed)
    return sorted(rng.sample(list(population), size)), None


def _dispatch(
    circuit: Circuit,
    request: CampaignRequest,
    faults: Sequence[Fault],
    workers: int | None,
) -> CampaignResult:
    """Route one campaign to the serial or the parallel executor."""
    from repro.experiments import parallel

    scale = request.scale
    engine = request.routing
    requested = workers if workers is not None else scale.workers
    n_workers = parallel.effective_workers(requested, circuit, len(faults))
    if engine == "bitparallel":
        # the kernel is already fault-parallel inside one process;
        # process fan-out would only duplicate the packed good words.
        # Sampled mode is *not* clamped: its sequential rounds leave
        # plenty of per-shard work, and substream-seeded patterns make
        # any sharding bit-identical.
        n_workers = 1
    sampler = obs.resource_sampler()
    with obs.span(
        "campaign.run",
        circuit=request.circuit,
        model=request.model,
        scale=scale.name,
        faults=len(faults),
        workers=n_workers,
        engine=engine,
    ):
        sampler.start()
        try:
            if n_workers > 1:
                result = parallel.run_campaign(
                    circuit,
                    request.circuit,
                    scale,
                    faults,
                    bridging=request.bridging,
                    n_workers=n_workers,
                    engine=engine,
                )
            else:
                result = _run(
                    circuit,
                    request.circuit,
                    scale,
                    faults,
                    request.bridging,
                    engine,
                )
        finally:
            series = sampler.stop()
    if series:
        result = dataclasses.replace(result, resources=series)
    return result


def analyze_faults(
    engine: DifferencePropagation,
    faults: Sequence[Fault],
    bridging: bool,
    meter=obs.NULL_METER,
) -> tuple[FaultResult, ...]:
    """Reduce each fault's analysis to a scalar :class:`FaultResult`.

    The single per-fault loop behind both the serial and the parallel
    path — equivalence of the two executors is by construction here and
    proven again by ``tests/test_parallel_campaigns.py``. ``meter``
    ticks once per fault; the default is the shared no-op meter, so
    the disabled-progress cost is one attribute call per fault (held
    under the <3% obs gate by ``benchmarks/test_bench_obs.py``).
    """
    records: list[FaultResult] = []
    functions = engine.functions
    for fault in faults:
        analysis = engine.analyze(fault)
        stuck_eq = None
        if bridging and isinstance(fault, BridgingFault):
            stuck_eq = is_stuck_at_equivalent(functions, fault)
        records.append(
            FaultResult(
                fault=fault,
                detectability=analysis.detectability,
                upper_bound=detectability_upper_bound(functions, fault),
                observable_pos=analysis.observable_pos,
                stuck_at_equivalent=stuck_eq,
            )
        )
        meter.update(1)
    return tuple(records)


def _bitparallel_simulator(name: str, scale: Scale):
    """Shared kernel instance per (circuit, seed): exhaustive inside
    the frontier, a seeded random-pattern sample beyond it."""
    from repro.simulation import packing
    from repro.simulation.bitparallel import BitParallelSimulator

    key = (name, scale.seed)
    sim = _bitparallel_cache.get(key)
    if sim is None:
        circuit = get_circuit(name)
        if circuit.num_inputs <= BITPARALLEL_EXHAUSTIVE_LIMIT:
            sim = BitParallelSimulator(circuit)
        else:
            words = packing.random_input_words(
                circuit.inputs, BITPARALLEL_SAMPLE_VECTORS, seed=scale.seed
            )
            sim = BitParallelSimulator(
                circuit,
                input_words=words,
                num_vectors=BITPARALLEL_SAMPLE_VECTORS,
            )
        _bitparallel_cache[key] = sim
    return sim


def _bitparallel_chunk_body(
    circuit: Circuit,
    name: str,
    scale: Scale,
    faults: Sequence[Fault],
    bridging: bool,
    index: int,
) -> tuple[tuple[FaultResult, ...], bool, ChunkStat]:
    """One shard on the vectorized kernel instead of the OBDD engine.

    Exact (``exact=True``) when the circuit fits the exhaustive
    frontier; a seeded Monte-Carlo estimate otherwise. Bridging
    stuck-at equivalence needs symbolic analysis, so the kernel leaves
    ``stuck_at_equivalent`` as ``None``.
    """
    with obs.span(
        "campaign.chunk",
        circuit=name,
        index=index,
        faults=len(faults),
        engine="bitparallel",
    ):
        start = time.perf_counter()
        sim = _bitparallel_simulator(name, scale)
        words_before = sim.words_simulated
        batches_before = sim.batches_run
        outcomes = sim.simulate(list(faults))
        records = tuple(
            FaultResult(
                fault=fault,
                detectability=Fraction(
                    outcome.detection_count, sim.num_vectors
                ),
                upper_bound=sim.upper_bound(fault),
                observable_pos=outcome.observable_pos,
                stuck_at_equivalent=None,
            )
            for fault, outcome in zip(faults, outcomes)
        )
        exact = circuit.num_inputs <= BITPARALLEL_EXHAUSTIVE_LIMIT
        stat = ChunkStat(
            index=index,
            num_faults=len(faults),
            seconds=time.perf_counter() - start,
            peak_nodes=0,
            worker_pid=os.getpid(),
            words_simulated=sim.words_simulated - words_before,
            batches=sim.batches_run - batches_before,
            batch_size=sim.batch_size,
        )
        # One batch sweep = one heartbeat: the kernel has no per-fault
        # loop to tick, so the chunk reports as a single completion.
        meter = obs.meter(len(faults), label=f"{name} bitparallel")
        meter.chunk_done(index=index, faults=len(faults), seconds=stat.seconds)
    return records, exact, stat


def _sampled_chunk_body(
    circuit: Circuit,
    name: str,
    scale: Scale,
    faults: Sequence[Fault],
    bridging: bool,
    index: int,
) -> tuple[tuple[FaultResult, ...], bool, ChunkStat]:
    """One shard estimated by the sequential sampler (lazy import so
    the sampling package — and numpy under it — only loads when a
    sampled campaign actually runs)."""
    from repro.sampling.engine import sampled_chunk_body

    return sampled_chunk_body(circuit, name, scale, faults, bridging, index)


def _dp_chunk_body(
    circuit: Circuit,
    name: str,
    scale: Scale,
    faults: Sequence[Fault],
    bridging: bool,
    index: int,
) -> tuple[tuple[FaultResult, ...], bool, ChunkStat]:
    """One shard on the exact OBDD Δ-propagation engine."""
    with obs.span(
        "campaign.chunk", circuit=name, index=index, faults=len(faults)
    ):
        start = time.perf_counter()
        functions = circuit_functions(name, scale)
        manager = functions.manager
        # Snapshot before the engine: its initial sift is chunk work.
        before = manager.stats()
        engine = DifferencePropagation(
            circuit,
            functions=functions,
            gc_node_limit=CAMPAIGN_GC_LIMIT,
            reorder=scale.reorder,
        )
        meter = obs.meter(
            len(faults),
            label=f"{name} {'bridging' if bridging else 'stuck-at'} "
            f"chunk {index}",
        )
        records = analyze_faults(engine, faults, bridging, meter=meter)
        meter.finish()
        after = manager.stats()
        sifted = after.reorder_runs > before.reorder_runs
        last_sift = manager.last_reorder
        # The computed table dwarfs the node store and is cheap to
        # regrow; drop it so a long-lived pool worker keeps one compact
        # function table across chunks.
        manager.clear_caches()
        stat = ChunkStat(
            index=index,
            num_faults=len(faults),
            seconds=time.perf_counter() - start,
            peak_nodes=engine.peak_nodes,
            worker_pid=os.getpid(),
            peak_live_nodes=engine.peak_live_nodes,
            live_nodes=after.live_nodes,
            reclaimed_nodes=after.reclaimed_nodes - before.reclaimed_nodes,
            gc_runs=after.gc_runs - before.gc_runs,
            reorder_runs=after.reorder_runs - before.reorder_runs,
            reorder_swaps=after.reorder_swaps - before.reorder_swaps,
            reorder_nodes_before=last_sift.nodes_before if sifted else 0,
            reorder_nodes_after=last_sift.nodes_after if sifted else 0,
            cache_hits=after.cache_hits - before.cache_hits,
            cache_misses=after.cache_misses - before.cache_misses,
            cache_evictions=after.cache_evictions - before.cache_evictions,
        )
    return records, functions.is_exact, stat


#: Engine-registry dispatch for chunk execution: every campaign chunk —
#: serial or pool worker — routes through this table by engine key.
#: ``"sampled"`` is the statistical estimator selected by
#: ``Scale.mode``.
CHUNK_BODIES: dict[str, Callable[..., tuple]] = {
    "dp": _dp_chunk_body,
    "bitparallel": _bitparallel_chunk_body,
    "sampled": _sampled_chunk_body,
}


def run_chunk_body(
    circuit: Circuit,
    name: str,
    scale: Scale,
    faults: Sequence[Fault],
    bridging: bool,
    index: int,
    engine: str = "dp",
) -> tuple[tuple[FaultResult, ...], bool, ChunkStat]:
    """Analyze one shard and report (records, exactness, stat).

    The single entry point behind the serial path and every pool
    worker: looks the engine key up in :data:`CHUNK_BODIES` and runs
    that body under a ``campaign.chunk`` span. ``"dp"`` builds (or
    cache-hits) the circuit's functions and runs the per-fault OBDD
    loop; ``"bitparallel"`` swaps it for one vectorized batch sweep;
    ``"sampled"`` runs the sequential Monte-Carlo estimator.
    """
    try:
        body = CHUNK_BODIES[engine]
    except KeyError:
        raise KeyError(
            f"unknown chunk engine {engine!r}; "
            f"known: {', '.join(CHUNK_BODIES)}"
        ) from None
    return body(circuit, name, scale, faults, bridging, index)


def _run(
    circuit: Circuit,
    name: str,
    scale: Scale,
    faults: Sequence[Fault],
    bridging: bool,
    engine: str = "dp",
) -> CampaignResult:
    records, exact, stat = run_chunk_body(
        circuit, name, scale, faults, bridging, index=0, engine=engine
    )
    return CampaignResult(
        circuit=circuit,
        results=records,
        exact=exact,
        chunk_stats=(stat,),
    )
