"""Conformance runner: sweep engines × circuits × fault models.

Three independently implemented engines ship with the library —
Difference Propagation (OBDD Δ-propagation), bit-parallel exhaustive
truth-table simulation, and Armstrong's deductive fault simulation.
They share no propagation code, so exact agreement fault-by-fault is
strong evidence all are right. The runner registers each engine as an
adapter producing :class:`~repro.verify.oracles.FaultReport` records,
applies the invariant oracles to every report, cross-checks the
engines against each other, and folds everything into a structured
:class:`ConformanceReport`.

A new engine joins the wall with one call::

    register_engine(EngineSpec("my-engine", run=my_adapter,
                               supports=my_predicate))

where ``my_adapter(circuit, faults, functions)`` returns one
``FaultReport`` per fault (fields it cannot produce left ``None``).
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from repro.benchcircuits import get_circuit
from repro.circuit.netlist import Circuit
from repro.core.engine import DifferencePropagation
from repro.core.metrics import Fault
from repro.core.symbolic import CircuitFunctions
from repro.faults.bridging import BridgeKind, BridgingFault, enumerate_nfbfs
from repro.faults.stuck_at import StuckAtFault, collapsed_checkpoint_faults
from repro.simulation.deductive import DeductiveFaultSimulator
from repro.simulation.truthtable import MAX_INPUTS, TruthTableSimulator
from repro.verify.oracles import (
    FaultReport,
    Violation,
    check_reports,
    cross_engine_violations,
    report_from_analysis,
)

#: Exhaustive engines refuse circuits beyond this many primary inputs
#: (2^14 = 16384-bit words is the paper's own exhaustive frontier).
EXHAUSTIVE_INPUT_LIMIT = 14


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine: an adapter plus its applicability test."""

    name: str
    run: Callable[[Circuit, Sequence[Fault], CircuitFunctions], list[FaultReport]]
    supports: Callable[[Circuit, Sequence[Fault]], bool] = lambda c, f: True


def _dp_run(
    circuit: Circuit,
    faults: Sequence[Fault],
    functions: CircuitFunctions,
    reorder: bool = False,
) -> list[FaultReport]:
    engine = DifferencePropagation(
        circuit, functions=functions, reorder=reorder
    )
    return [
        report_from_analysis("dp", engine.analyze(fault), engine.functions)
        for fault in faults
    ]


def _exhaustive_ok(circuit: Circuit, faults: Sequence[Fault]) -> bool:
    return circuit.num_inputs <= min(EXHAUSTIVE_INPUT_LIMIT, MAX_INPUTS)


def _truthtable_run(
    circuit: Circuit,
    faults: Sequence[Fault],
    functions: CircuitFunctions,
) -> list[FaultReport]:
    tts = TruthTableSimulator(circuit)
    reports = []
    for fault in faults:
        word = tts.detection_word(fault)
        count = bin(word).count("1")
        reports.append(
            FaultReport(
                engine="truthtable",
                fault=fault,
                detectability=Fraction(count, tts.num_vectors),
                num_vars=circuit.num_inputs,
                upper_bound=_word_upper_bound(tts, fault),
                test_count=count,
                observable_pos=tts.observable_pos(fault),
            )
        )
    return reports


def _word_upper_bound(
    tts: TruthTableSimulator, fault: Fault
) -> Fraction | None:
    """Syndrome-based bound computed purely from truth-table words.

    Independent of the OBDD route: a second witness for the δ ≤ U
    invariant. Stuck-at needs the line at the opposite value; a bridge
    needs the wires to disagree.
    """
    if isinstance(fault, StuckAtFault):
        syndrome = tts.syndrome(fault.line.net)
        return (1 - syndrome) if fault.value else syndrome
    if isinstance(fault, BridgingFault):
        word = tts.good_word(fault.net_a) ^ tts.good_word(fault.net_b)
        return Fraction(bin(word & tts.mask).count("1"), tts.num_vectors)
    return None


def _bitparallel_run(
    circuit: Circuit,
    faults: Sequence[Fault],
    functions: CircuitFunctions,
) -> list[FaultReport]:
    """Adapter for the vectorized kernel: one batch sweep, then reports."""
    from repro.simulation.bitparallel import BitParallelSimulator

    sim = BitParallelSimulator(circuit)
    reports = []
    for fault, outcome in zip(faults, sim.simulate(list(faults))):
        reports.append(
            FaultReport(
                engine="bitparallel",
                fault=fault,
                detectability=Fraction(
                    outcome.detection_count, sim.num_vectors
                ),
                num_vars=circuit.num_inputs,
                upper_bound=sim.upper_bound(fault),
                test_count=outcome.detection_count,
                observable_pos=outcome.observable_pos,
            )
        )
    return reports


def _deductive_supports(circuit: Circuit, faults: Sequence[Fault]) -> bool:
    return _exhaustive_ok(circuit, faults) and all(
        isinstance(f, StuckAtFault) for f in faults
    )


def _deductive_run(
    circuit: Circuit,
    faults: Sequence[Fault],
    functions: CircuitFunctions,
) -> list[FaultReport]:
    """Exact detectabilities by counting per-vector deductive detections."""
    sim = DeductiveFaultSimulator(circuit, faults)
    tts = TruthTableSimulator(circuit)
    counts: dict[Fault, int] = {fault: 0 for fault in faults}
    for vector in range(tts.num_vectors):
        for fault in sim.detected(tts.assignment_for(vector)):
            counts[fault] += 1
    return [
        FaultReport(
            engine="deductive",
            fault=fault,
            detectability=Fraction(counts[fault], tts.num_vectors),
            num_vars=circuit.num_inputs,
            test_count=counts[fault],
        )
        for fault in faults
    ]


ENGINES: dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Add an engine to the conformance sweep (name must be fresh)."""
    if spec.name in ENGINES:
        raise ValueError(f"engine {spec.name!r} already registered")
    ENGINES[spec.name] = spec
    return spec


register_engine(EngineSpec("dp", run=_dp_run))
register_engine(
    EngineSpec("truthtable", run=_truthtable_run, supports=_exhaustive_ok)
)
register_engine(
    EngineSpec("deductive", run=_deductive_run, supports=_deductive_supports)
)
try:  # the vectorized kernel needs numpy; skip registration without it
    import repro.simulation.bitparallel  # noqa: F401

    register_engine(
        EngineSpec(
            "bitparallel", run=_bitparallel_run, supports=_exhaustive_ok
        )
    )
except ImportError:  # pragma: no cover - exercised only without numpy
    pass


# ----------------------------------------------------------------------
# Sweep configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VerifySweep:
    """Which circuits and how many faults one conformance run covers."""

    name: str
    circuits: tuple[str, ...]
    #: per-circuit stuck-at sample size (absent = full collapsed set)
    stuck_at_samples: Mapping[str, int] = field(default_factory=dict)
    #: per-circuit NFBF sample size per kind (absent = full set)
    bridging_samples: Mapping[str, int] = field(default_factory=dict)
    seed: int = 0


SWEEPS: dict[str, VerifySweep] = {
    "ci": VerifySweep(
        name="ci",
        circuits=("c17", "fulladder", "c95"),
    ),
    "full": VerifySweep(
        name="full",
        circuits=("c17", "fulladder", "c95", "alu181", "c432"),
        stuck_at_samples={"alu181": 32, "c432": 24},
        bridging_samples={"alu181": 24, "c432": 16},
    ),
}


@dataclass(frozen=True)
class ConformanceCell:
    """One (circuit, fault model, engine) slice of the sweep."""

    circuit: str
    model: str
    engine: str
    num_faults: int
    seconds: float
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class ConformanceReport:
    """Everything one conformance run established (or refuted)."""

    sweep: str
    cells: tuple[ConformanceCell, ...]
    cross_violations: tuple[Violation, ...]

    def violations(self) -> list[Violation]:
        found = [v for cell in self.cells for v in cell.violations]
        found.extend(self.cross_violations)
        return found

    @property
    def ok(self) -> bool:
        return not self.violations()

    def render(self) -> str:
        lines = [
            f"conformance sweep {self.sweep!r}: "
            f"{len(self.cells)} cells, "
            f"{sum(c.num_faults for c in self.cells)} fault reports",
            f"{'circuit':<10} {'model':<9} {'engine':<11} "
            f"{'faults':>6} {'sec':>7} {'violations':>10}",
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.circuit:<10} {cell.model:<9} {cell.engine:<11} "
                f"{cell.num_faults:>6} {cell.seconds:>7.2f} "
                f"{len(cell.violations):>10}"
            )
        lines.append(
            f"cross-engine violations: {len(self.cross_violations)}"
        )
        for violation in self.violations():
            lines.append(f"  VIOLATION {violation}")
        if self.ok:
            lines.append("all invariants hold")
        return "\n".join(lines)


def _fault_sets(
    circuit: Circuit, sweep: VerifySweep
) -> list[tuple[str, list[Fault]]]:
    """The fault models swept per circuit: stuck-at and both bridges."""
    rng = random.Random(sweep.seed)
    stuck: list[Fault] = list(collapsed_checkpoint_faults(circuit))
    limit = sweep.stuck_at_samples.get(circuit.name)
    if limit is not None and limit < len(stuck):
        stuck = sorted(rng.sample(stuck, limit))
    models: list[tuple[str, list[Fault]]] = [("stuck-at", stuck)]
    bridges: list[Fault] = []
    for kind in (BridgeKind.AND, BridgeKind.OR):
        bridges.extend(enumerate_nfbfs(circuit, kind))
    target = sweep.bridging_samples.get(circuit.name)
    if target is not None and target < len(bridges):
        bridges = rng.sample(bridges, target)
    if bridges:
        models.append(("bridging", bridges))
    return models


def run_conformance(
    sweep: VerifySweep | str = "ci",
    circuits: Sequence[str] | None = None,
    engines: Sequence[str] | None = None,
    reorder: bool = False,
) -> ConformanceReport:
    """Sweep every registered engine and check every invariant.

    ``reorder`` turns on dynamic variable reordering in the ``dp``
    engine, the one registered engine that has such a policy.
    """
    if isinstance(sweep, str):
        try:
            sweep = SWEEPS[sweep]
        except KeyError:
            raise KeyError(
                f"unknown sweep {sweep!r}; known: {', '.join(SWEEPS)}"
            ) from None
    names = tuple(circuits) if circuits is not None else sweep.circuits
    # sorted-name order, not registration order: conformance reports
    # and CI diffs stay deterministic as engines are added
    selected = {
        name: ENGINES[name]
        for name in sorted(ENGINES)
        if engines is None or name in engines
    }
    if engines is not None:
        unknown = set(engines) - set(ENGINES)
        if unknown:
            raise KeyError(f"unknown engines: {', '.join(sorted(unknown))}")
    cells: list[ConformanceCell] = []
    cross: list[Violation] = []
    for circuit_name in names:
        circuit = get_circuit(circuit_name)
        functions = CircuitFunctions(circuit)
        for model, faults in _fault_sets(circuit, sweep):
            reports_by_engine: dict[str, list[FaultReport]] = {}
            for engine_name, spec in selected.items():
                if not spec.supports(circuit, faults):
                    continue
                run = spec.run
                if reorder and engine_name == "dp":
                    run = functools.partial(run, reorder=True)
                start = time.perf_counter()
                reports = run(circuit, faults, functions)
                violations = check_reports(circuit, reports)
                cells.append(
                    ConformanceCell(
                        circuit=circuit_name,
                        model=model,
                        engine=engine_name,
                        num_faults=len(reports),
                        seconds=time.perf_counter() - start,
                        violations=tuple(violations),
                    )
                )
                reports_by_engine[engine_name] = reports
            cross.extend(cross_engine_violations(circuit, reports_by_engine))
    return ConformanceReport(
        sweep=sweep.name, cells=tuple(cells), cross_violations=tuple(cross)
    )
