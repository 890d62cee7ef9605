"""Workload definitions, their seeded set-up, and the measured pass.

A workload is a list of campaign *cells* (circuit × fault model × mode).
Set-up turns a cell into concrete inputs — circuit load or parse, fault
enumeration, seeded sampling and, for exact cells, the good-function
OBDD build — with the program's own public functions. A pass then hands
every cell's fault list to ``experiments.campaigns.run_chunk_body``, the
single path behind the serial executor and every pool worker. Going
through it directly keeps set-up out of the measured time and bypasses
the process memo and the run ledger.

Per-circuit policy (ordering, decomposition, reordering, engine) is the
``ci`` scale's at the commit under test; the benchmark overrides only
the seed, the sample sizes, ``workers=1``, ``cache=False``, the mode
and, for sampled cells, the CI target and pattern budget.
"""

from __future__ import annotations

import dataclasses
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.benchcircuits import get_circuit, registry
from repro.circuit.netlist import Circuit
from repro.experiments import campaigns
from repro.experiments.config import Scale, get_scale
from repro.faults.bridging import BridgeKind, enumerate_nfbfs
from repro.faults.sampling import sample_bridging_faults
from repro.faults.stuck_at import collapsed_checkpoint_faults
from repro.obs.trace import NullTracer
from repro.sampling.strata import stratified_sample

#: The committed external netlist of the sampled workload, relative to
#: the repository root (the benchmark runs from there, and sampled
#: pattern substreams are keyed by this name).
MULT16 = "tests/bench/mult16.bench"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Part:
    """One campaign cell: a circuit, a fault model and a sample size."""

    circuit: str
    #: ``"stuck"`` (collapsed checkpoint faults), ``"and"`` or ``"or"``
    #: (non-feedback bridging faults of that dominance)
    model: str
    #: ``"exact"`` (OBDD Difference Propagation) or ``"sampled"``
    mode: str
    #: faults drawn; ``None`` takes the full fault set
    count: int | None

    @property
    def bridging(self) -> bool:
        return self.model != "stuck"

    @property
    def label(self) -> str:
        return f"{self.circuit}/{self.model}/{self.mode}"


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple[Part, ...]
    #: sampled cells' target CI half-width and per-fault pattern budget
    ci_width: float | None = None
    pattern_budget: int | None = None


WORKLOADS: dict[str, Workload] = {
    "dp-stuck": Workload(
        "dp-stuck",
        (
            Part("c499", "stuck", "exact", 120),
            Part("c1355", "stuck", "exact", 5),
        ),
    ),
    "dp-bridge-c1908": Workload(
        "dp-bridge-c1908",
        (
            Part("c1908", "and", "exact", 2),
            Part("c1908", "or", "exact", 2),
        ),
    ),
    "sampled": Workload(
        "sampled",
        (
            Part(MULT16, "stuck", "sampled", None),
            Part(MULT16, "and", "sampled", 8000),
            Part("c1908", "stuck", "sampled", None),
            Part("c1908", "or", "sampled", 4000),
        ),
        ci_width=0.02,
        pattern_budget=65_536,
    ),
    # Seconds-sized, for the benchmark's own tests; not in BENCHMARK.json.
    "smoke": Workload(
        "smoke",
        (
            Part("c432", "stuck", "exact", None),
            Part("alu181", "and", "exact", 30),
            Part("alu181", "stuck", "sampled", None),
            Part("c432", "or", "sampled", 60),
        ),
        ci_width=0.05,
        pattern_budget=4096,
    ),
}


def base_scale(workload: Workload, seed: int) -> Scale:
    """The ``ci`` policy with the benchmark's explicit overrides.

    Resolved after the caller cleared every ``REPRO_*`` variable, so the
    env fallbacks of ``Scale`` land on their defaults and are pinned.
    """
    ci = get_scale("ci")
    return dataclasses.replace(
        ci,
        seed=seed,
        workers=1,
        cache=False,
        engine=ci.effective_engine(),
        reorder=ci.effective_reorder(),
        ci_width=workload.ci_width,
        pattern_budget=workload.pattern_budget,
    )


@dataclass
class Cell:
    """A part's concrete inputs after set-up."""

    part: Part
    circuit: Circuit
    scale: Scale
    faults: tuple
    #: live OBDD nodes of the good functions (0 on sampled cells)
    good_nodes: int = 0


def cold() -> None:
    """Forget every cached circuit, function table and campaign, so the
    next set-up pays for all of its work as a fresh process would."""
    campaigns.clear_campaign_caches()
    registry._CACHE.clear()


def _sample(part: Part, circuit: Circuit, candidates: list, count, seed: int) -> list:
    """``count`` faults drawn as the campaign layer draws them."""
    if count is None or count >= len(candidates):
        return list(candidates)
    if part.bridging:
        sampled = sample_bridging_faults(circuit, candidates, count, seed=seed)
        return [s.fault for s in sampled]
    return sorted(random.Random(seed).sample(candidates, count))


def _draw(part: Part, circuit: Circuit, candidates: list, seed: int) -> tuple:
    """The part's faults for ``seed``.

    Exact cells are drawn with the ``ci`` suite's own seed whatever
    ``seed`` is, so every run analyses the same faults: exact per-fault
    cost is so heavy-tailed that a seeded sample of a few dozen faults
    moves ``faults_per_s`` between seeds by more than any usable bound
    (see README). Sampled cells draw with ``seed``.
    """
    if part.mode == "sampled":
        return stratified_sample(circuit, candidates, part.count, seed=seed).faults
    return tuple(_sample(part, circuit, candidates, part.count, get_scale("ci").seed))


def set_up(workload: Workload, seed: int, tracer) -> list[Cell]:
    """Build every cell's inputs; ``tracer.span`` brackets each layer."""
    scale = base_scale(workload, seed)
    cells = []
    for part in workload.parts:
        with tracer.span("circuit.load"):
            circuit = get_circuit(part.circuit)
        with tracer.span("faults.enumerate"):
            if part.bridging:
                candidates = list(enumerate_nfbfs(circuit, BridgeKind(part.model.upper())))
            else:
                candidates = collapsed_checkpoint_faults(circuit)
        with tracer.span("faults.sample"):
            faults = _draw(part, circuit, candidates, seed)
        cell = Cell(part, circuit, dataclasses.replace(scale, mode=part.mode), faults)
        if part.mode == "exact":
            with tracer.span("symbolic.build"):
                functions = campaigns.circuit_functions(part.circuit, cell.scale)
            cell.good_nodes = functions.manager.num_live_nodes
        cells.append(cell)
    return cells


@dataclass
class CellOutcome:
    """What one cell's chunk returned, plus its layer counters."""

    records: tuple = ()
    exact: bool = True
    seconds: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    error: str | None = None


@dataclass
class Pass:
    """One measured campaign pass over every cell."""

    outcomes: list[CellOutcome]

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def faults(self) -> int:
        return sum(len(o.records) for o in self.outcomes)


def _op_misses(stats) -> dict[str, int]:
    return {op.op: op.misses for op in stats.op_stats}


def _run_cell(index: int, cell: Cell, tracer) -> CellOutcome:
    part = cell.part
    manager = None
    if part.mode == "exact":
        manager = campaigns.circuit_functions(part.circuit, cell.scale).manager
    before = manager.stats() if manager is not None else None
    start = time.perf_counter()
    with tracer.span("experiments.chunk"):
        records, exact, stat = campaigns.run_chunk_body(
            cell.circuit,
            part.circuit,
            cell.scale,
            cell.faults,
            part.bridging,
            index,
            engine="dp" if part.mode == "exact" else "sampled",
        )
    seconds = time.perf_counter() - start
    counts = {
        "cache_hits": stat.cache_hits,
        "cache_misses": stat.cache_misses,
        "evictions": stat.cache_evictions,
        "gc_runs": stat.gc_runs,
        "gc_reclaimed": stat.reclaimed_nodes,
        "peak_allocated": stat.peak_nodes,
        "words": stat.words_simulated,
        "patterns": stat.patterns_spent,
        "rounds": stat.sampling_rounds,
    }
    if manager is not None:
        after_manager = campaigns.circuit_functions(part.circuit, cell.scale).manager
        after = _op_misses(after_manager.stats())
        start_misses = _op_misses(before) if after_manager is manager else {}
        for op, misses in after.items():
            counts[f"steps.{op}"] = misses - start_misses.get(op, 0)
    return CellOutcome(records, exact, seconds, counts)


def run_pass(cells: Sequence[Cell], tracer) -> Pass:
    """Analyse every cell's faults; a cell that raises records its error."""
    outcomes = []
    for index, cell in enumerate(cells):
        try:
            outcome = _run_cell(index, cell, tracer)
        except Exception:  # the run goes on; the cell's faults count as failed
            outcome = CellOutcome(error=traceback.format_exc())
        outcomes.append(outcome)
    return Pass(outcomes)


def planned_faults(cells: Sequence[Cell]) -> int:
    return sum(len(cell.faults) for cell in cells)


def measure(workload: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """Run passes — each on a fresh set-up, so caches start empty — until
    ``seconds`` of campaign time have been measured (at least one pass),
    then set up again until there are ``SETUP_REPEATS`` set-up times."""
    setup_times: list[float] = []
    passes: list[tuple[list[Cell], Pass]] = []

    def timed_set_up() -> list[Cell]:
        cold()
        start = time.perf_counter()
        cells = set_up(workload, seed, NullTracer())
        setup_times.append(time.perf_counter() - start)
        return cells

    while not passes or sum(p.seconds for _, p in passes) < seconds:
        cells = timed_set_up()
        passes.append((cells, run_pass(cells, NullTracer())))
        if any(o.error for o in passes[-1][1].outcomes):
            break  # a failing cell would fail again; its faults already count
    while len(setup_times) < SETUP_REPEATS:
        timed_set_up()
    return {"setup_times": setup_times, "passes": passes}
