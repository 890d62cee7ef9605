"""Metamorphic relations: fault measures invariant under rewrites.

The library's netlist transforms preserve both the function and every
original net name, which yields a family of *metamorphic relations*:
analyze a fault in the original circuit, map its site into the
transformed circuit by name, analyze it there, and demand the exact
same detectability — zero tolerance, `Fraction` equality. Four
relations are registered:

* ``two-input`` — n-input gates decomposed to 2-input chains (§3);
* ``xor-to-nand`` — XORs expanded to four-NAND networks (the paper's
  C499 → C1355 controlled experiment rests on exactly this relation
  holding site-by-site);
* ``buffer-insertion`` — a buffer interposed after every gate;
* ``input-permutation`` — primary inputs re-declared in reverse order
  (permutes OBDD variable order; no exact measure may move).

Fault sites are mapped by net name. Stem faults always map (all four
transforms preserve every original net). Branch faults map when the
transformed circuit still has the same net on the same pin of the same
gate; sites consumed by a rewrite (e.g. the fanins of an expanded XOR)
are counted as ``skipped`` rather than silently dropped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.benchcircuits import get_circuit
from repro.circuit.netlist import Circuit
from repro.circuit.transforms import (
    decompose_to_two_input,
    expand_xor_to_nand,
    insert_buffers,
    permute_inputs,
)
from repro.core.engine import DifferencePropagation
from repro.core.metrics import Fault
from repro.faults.bridging import BridgingFault
from repro.faults.multiple import MultipleStuckAtFault
from repro.faults.stuck_at import StuckAtFault, collapsed_checkpoint_faults
from repro.verify.oracles import Violation

TRANSFORMS: dict[str, Callable[[Circuit], Circuit]] = {
    "two-input": decompose_to_two_input,
    "xor-to-nand": expand_xor_to_nand,
    "buffer-insertion": insert_buffers,
    "input-permutation": permute_inputs,
}

#: The two transforms taken directly from the paper.
PAPER_TRANSFORMS: tuple[str, ...] = ("two-input", "xor-to-nand")


def map_fault(fault: Fault, transformed: Circuit) -> Fault | None:
    """Re-address a fault site in a name-preserving transform's output.

    Returns ``None`` when the site no longer exists — a branch whose
    sink gate was rewritten, or a bridge whose net vanished. The fault
    objects themselves are circuit-independent, so a mappable site maps
    to the identical fault value.
    """
    if isinstance(fault, StuckAtFault):
        line = fault.line
        if line.net not in transformed:
            return None
        if line.is_stem:
            return fault
        try:
            gate = transformed.gate(line.sink)
        except Exception:
            return None
        if line.pin < len(gate.fanins) and gate.fanins[line.pin] == line.net:
            return fault
        return None
    if isinstance(fault, BridgingFault):
        if fault.net_a in transformed and fault.net_b in transformed:
            return fault
        return None
    if isinstance(fault, MultipleStuckAtFault):
        mapped = [map_fault(c, transformed) for c in fault.components]
        if any(m is None for m in mapped):
            return None
        return fault
    raise TypeError(f"unsupported fault type {type(fault).__name__}")


@dataclass(frozen=True)
class RelationOutcome:
    """One (circuit, transform) metamorphic check."""

    circuit: str
    transform: str
    checked: int
    skipped: int
    seconds: float
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_relation(
    circuit: Circuit,
    transform: str,
    faults: Iterable[Fault] | None = None,
    reorder: bool = False,
) -> RelationOutcome:
    """Exact per-fault detectability invariance under one transform
    (``reorder`` turns on the DP engines' dynamic reordering)."""
    try:
        rewrite = TRANSFORMS[transform]
    except KeyError:
        raise KeyError(
            f"unknown transform {transform!r}; known: {', '.join(TRANSFORMS)}"
        ) from None
    start = time.perf_counter()
    transformed = rewrite(circuit)
    original_engine = DifferencePropagation(circuit, reorder=reorder)
    transformed_engine = DifferencePropagation(transformed, reorder=reorder)
    fault_list = (
        list(faults) if faults is not None else collapsed_checkpoint_faults(circuit)
    )
    checked = 0
    skipped = 0
    violations: list[Violation] = []
    for fault in fault_list:
        mapped = map_fault(fault, transformed)
        if mapped is None:
            skipped += 1
            continue
        checked += 1
        before = original_engine.analyze(fault).detectability
        after = transformed_engine.analyze(mapped).detectability
        if before != after:
            violations.append(
                Violation(
                    oracle=f"metamorphic:{transform}",
                    circuit=circuit.name,
                    engine="dp",
                    fault=str(fault),
                    message=(
                        f"detectability {before} became {after} under "
                        f"{transform}"
                    ),
                )
            )
    return RelationOutcome(
        circuit=circuit.name,
        transform=transform,
        checked=checked,
        skipped=skipped,
        seconds=time.perf_counter() - start,
        violations=tuple(violations),
    )


#: Circuits the CLI's metamorphic phase sweeps (small enough for two
#: full DP campaigns per transform).
DEFAULT_CIRCUITS: tuple[str, ...] = ("c17", "fulladder", "c95")


def run_metamorphic(
    circuits: Sequence[str] = DEFAULT_CIRCUITS,
    transforms: Sequence[str] | None = None,
    reorder: bool = False,
) -> list[RelationOutcome]:
    """Every relation on every circuit; outcomes in sweep order."""
    outcomes: list[RelationOutcome] = []
    for name in circuits:
        circuit = get_circuit(name)
        for transform in transforms or TRANSFORMS:
            outcomes.append(
                check_relation(circuit, transform, reorder=reorder)
            )
    return outcomes


def render_outcomes(outcomes: Sequence[RelationOutcome]) -> str:
    lines = [
        f"metamorphic relations: {len(outcomes)} checks",
        f"{'circuit':<10} {'transform':<18} {'checked':>7} "
        f"{'skipped':>7} {'sec':>7} {'violations':>10}",
    ]
    for outcome in outcomes:
        lines.append(
            f"{outcome.circuit:<10} {outcome.transform:<18} "
            f"{outcome.checked:>7} {outcome.skipped:>7} "
            f"{outcome.seconds:>7.2f} {len(outcome.violations):>10}"
        )
    for outcome in outcomes:
        for violation in outcome.violations:
            lines.append(f"  VIOLATION {violation}")
    if all(o.ok for o in outcomes):
        lines.append("all relations hold exactly")
    return "\n".join(lines)
