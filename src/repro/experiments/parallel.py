"""Parallel fault-campaign execution.

A fault campaign is embarrassingly parallel across faults: every
:class:`~repro.experiments.campaigns.FaultResult` depends only on the
circuit's good functions and one fault descriptor. This module shards a
fault list into chunks and fans the chunks out over a
:class:`concurrent.futures.ProcessPoolExecutor`:

* **Nothing live crosses a process boundary.** A chunk travels as a
  :class:`CampaignSpec` — circuit *name*, :class:`Scale`, fault-model
  flag, and plain fault descriptors (frozen dataclasses of strings and
  bools). Each worker builds its own ``CircuitFunctions``/OBDD manager
  from the spec and caches it for later chunks; results come back as
  scalar ``FaultResult``\\ s (Fractions and names). OBDD node handles
  are only ever meaningful inside the manager that minted them, so no
  handle is ever pickled.
* **Determinism.** Chunks are indexed at shard time and merged back in
  index order, so the merged result is *exactly* equal — order and
  values — to the serial run over the same fault list, regardless of
  worker scheduling. OBDD evaluation itself is deterministic and the
  records are exact rationals, so there is no floating-point drift to
  tolerate. ``tests/test_parallel_campaigns.py`` asserts this.
* **Serial fallback.** Process startup and spec pickling dominate on
  tiny circuits (C17, the full adder analyze in microseconds per
  fault); :func:`effective_workers` drops to serial below a netlist /
  fault-count floor so callers can request workers unconditionally.

The pool is module-global and lazily created, so consecutive campaigns
reuse warm workers (and their per-process function caches).
:func:`~repro.experiments.campaigns.clear_campaign_caches` shuts it
down, guaranteeing the next campaign sees freshly built managers.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.benchcircuits import get_circuit
from repro.circuit.netlist import Circuit
from repro.core.engine import DifferencePropagation
from repro.core.metrics import Fault
from repro.experiments import campaigns
from repro.experiments.campaigns import (
    CampaignResult,
    ChunkStat,
    FaultResult,
)
from repro.experiments.config import Scale

#: Below this many faults the campaign always runs serially.
MIN_PARALLEL_FAULTS = 32

#: Circuits smaller than this netlist size always run serially — their
#: per-fault analysis is microseconds, far below process overheads.
MIN_PARALLEL_NETLIST = 32

#: Target shards per worker; >1 smooths load imbalance between chunks
#: (faults near the outputs analyze much faster than deep ones).
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class CampaignSpec:
    """One picklable shard of a campaign: everything a worker needs.

    Carries only names and plain fault descriptors — a worker builds
    (or cache-hits) the circuit and its good functions locally.
    """

    circuit: str
    scale: Scale
    bridging: bool
    faults: tuple[Fault, ...]
    index: int = 0
    #: campaign engine the worker must run ("dp" or "bitparallel")
    engine: str = "dp"


@dataclass(frozen=True)
class ChunkResult:
    """A worker's answer for one :class:`CampaignSpec`.

    ``trace`` carries the chunk's captured span events (plain dicts,
    empty when tracing is disabled); the driver absorbs them back in
    shard-index order so merged traces are deterministic.
    """

    index: int
    results: tuple[FaultResult, ...]
    exact: bool
    stat: ChunkStat
    trace: tuple[dict, ...] = ()


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
def effective_workers(
    requested: int | None, circuit: Circuit, num_faults: int
) -> int:
    """Workers to actually use: the request, bounded by the fallbacks."""
    if requested is None or requested <= 1:
        return 1
    if num_faults < MIN_PARALLEL_FAULTS:
        return 1
    if circuit.netlist_size < MIN_PARALLEL_NETLIST:
        return 1
    return min(requested, num_faults)


def default_chunk_size(num_faults: int, n_workers: int) -> int:
    """Shard into ~``CHUNKS_PER_WORKER`` chunks per worker."""
    return max(1, -(-num_faults // (n_workers * CHUNKS_PER_WORKER)))


def shard_faults(
    faults: Sequence[Fault], chunk_size: int
) -> list[tuple[Fault, ...]]:
    """Split ``faults`` into contiguous chunks of ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    return [
        tuple(faults[i : i + chunk_size])
        for i in range(0, len(faults), chunk_size)
    ]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def run_chunk(spec: CampaignSpec) -> ChunkResult:
    """Analyze one shard (executes inside a pool worker, or inline).

    Reuses :func:`campaigns.run_chunk_body` — the exact loop the serial
    path runs — so a worker that sees several chunks of the same
    circuit builds its functions once and keeps its local cache compact
    just like the serial path. Spans are fenced into an
    :class:`repro.obs.capture` so they travel home as a picklable
    payload instead of staying stranded in the worker (workers inherit
    ``$REPRO_TRACE`` through the environment).
    """
    with obs.capture() as captured:
        records, exact, stat = campaigns.run_chunk_body(
            get_circuit(spec.circuit),
            spec.circuit,
            spec.scale,
            spec.faults,
            spec.bridging,
            index=spec.index,
            engine=spec.engine,
        )
    return ChunkResult(
        index=spec.index,
        results=records,
        exact=exact,
        stat=stat,
        trace=tuple(captured.events),
    )


# ----------------------------------------------------------------------
# Pool lifecycle
# ----------------------------------------------------------------------
_pool: ProcessPoolExecutor | None = None
_pool_size: int = 0


def _executor(n_workers: int) -> ProcessPoolExecutor:
    """The shared pool, (re)created when the requested size changes."""
    global _pool, _pool_size
    if _pool is None or _pool_size != n_workers:
        shutdown_pool()
        _pool = ProcessPoolExecutor(max_workers=n_workers)
        _pool_size = n_workers
    return _pool


def shutdown_pool() -> None:
    """Terminate the worker pool (and every worker-side cache with it)."""
    global _pool, _pool_size
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
    _pool = None
    _pool_size = 0


def pool_pids() -> frozenset[int]:
    """PIDs of the current pool's live workers (empty when no pool)."""
    if _pool is None:
        return frozenset()
    return frozenset(_pool._processes)


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
def run_campaign(
    circuit: Circuit,
    name: str,
    scale: Scale,
    faults: Sequence[Fault],
    bridging: bool,
    n_workers: int,
    chunk_size: int | None = None,
    engine: str = "dp",
) -> CampaignResult:
    """Fan a fault list over the pool and merge the chunks in order."""
    if n_workers <= 1:
        chunks = shard_faults(faults, chunk_size or max(1, len(faults)))
        specs = _specs(name, scale, bridging, chunks, engine)
        return merge_chunk_results(circuit, [run_chunk(s) for s in specs])
    if chunk_size is None:
        chunk_size = default_chunk_size(len(faults), n_workers)
    chunks = shard_faults(faults, chunk_size)
    specs = _specs(name, scale, bridging, chunks, engine)
    pool = _executor(n_workers)
    futures: list[Future[ChunkResult]] = [
        pool.submit(run_chunk, spec) for spec in specs
    ]
    # Chunk-completion heartbeats arrive in *completion* order (that is
    # their point: live progress); the result merge below still sorts
    # by shard index, so heartbeats never affect determinism.
    meter = obs.meter(
        len(faults),
        label=f"{name} {'bridging' if bridging else 'stuck-at'} "
        f"x{n_workers} workers",
    )
    chunk_results: list[ChunkResult] = []
    try:
        for future in as_completed(futures):
            chunk = future.result()
            chunk_results.append(chunk)
            meter.chunk_done(
                index=chunk.index,
                faults=len(chunk.results),
                seconds=chunk.stat.seconds,
            )
    except BaseException:
        # A failed chunk must not leave the cached pool alive with the
        # remaining chunks still queued: retire it (cancelling queued
        # futures) so the next campaign starts from a clean pool.
        shutdown_pool()
        raise
    return merge_chunk_results(circuit, chunk_results)


def _specs(
    name: str,
    scale: Scale,
    bridging: bool,
    chunks: Sequence[tuple[Fault, ...]],
    engine: str = "dp",
) -> list[CampaignSpec]:
    return [
        CampaignSpec(
            circuit=name,
            scale=scale,
            bridging=bridging,
            faults=chunk,
            index=i,
            engine=engine,
        )
        for i, chunk in enumerate(chunks)
    ]


def merge_chunk_results(
    circuit: Circuit, chunks: Sequence[ChunkResult]
) -> CampaignResult:
    """Deterministic merge: concatenate chunks in shard-index order.

    Order-invariant in its input — workers may complete in any order
    (``tests/test_bdd_properties.py`` proves invariance on shuffles).
    Captured worker span payloads are absorbed into the driver's tracer
    under the same rule: shard-index order, regardless of completion
    order, so two runs of one campaign produce identically-shaped
    traces.
    """
    ordered = sorted(chunks, key=lambda chunk: chunk.index)
    indices = [chunk.index for chunk in ordered]
    if indices != list(range(len(ordered))):
        raise ValueError(f"chunk indices {indices} are not 0..{len(ordered) - 1}")
    tracer = obs.get_tracer()
    if tracer.enabled:
        for chunk in ordered:
            tracer.absorb(chunk.trace)
    return CampaignResult(
        circuit=circuit,
        results=tuple(r for chunk in ordered for r in chunk.results),
        exact=all(chunk.exact for chunk in ordered),
        chunk_stats=tuple(chunk.stat for chunk in ordered),
    )
