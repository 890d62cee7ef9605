"""Single stuck-at faults: checkpoint sets and equivalence collapsing.

The paper targets **checkpoint faults** (Bossen & Hong): stuck-at-0/1 on
every primary-input stem and on every fanout branch. In an irredundant
circuit of unate gates, detecting all checkpoint faults detects all
single stuck-at faults, so they are the standard compact target set.

:func:`checkpoint_faults` counts only gate sinks as fanout, so a net
that drives a primary output and one gate gets no branch checkpoint and
the guarantee does not cover its branch: ``tests/test_stuck_at.py``
pins a five-gate circuit where such a branch fault escapes. Counting PO
taps would change the fault sets of c1908, c95 and alu181.

The checkpoint set is then reduced with **fault equivalence** at gate
inputs (McCluskey & Clegg): for an AND gate, s-a-0 on any input is
indistinguishable from s-a-0 on the output, and dually for the other
controlled gates; inverters and buffers map input faults to output
faults one-to-one. We compute the structural equivalence closure with a
union-find and keep one representative per class — "to make the number
of representatives from each fault class as small as possible".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.faults.lines import Line, branch_lines, stem_lines


@dataclass(frozen=True)
class StuckAtFault:
    """Line ``line`` permanently at logic ``value``."""

    line: Line
    value: bool

    def __lt__(self, other: "StuckAtFault") -> bool:
        if not isinstance(other, StuckAtFault):
            return NotImplemented
        return (self.line.sort_key(), self.value) < (
            other.line.sort_key(),
            other.value,
        )

    def __str__(self) -> str:
        return f"{self.line} s-a-{int(self.value)}"


def all_stuck_at_faults(circuit: Circuit) -> list[StuckAtFault]:
    """Every stem and branch fault, both polarities (the uncollapsed universe)."""
    faults: list[StuckAtFault] = []
    for line in stem_lines(circuit) + branch_lines(circuit):
        faults.append(StuckAtFault(line, False))
        faults.append(StuckAtFault(line, True))
    return faults


def checkpoint_faults(circuit: Circuit) -> list[StuckAtFault]:
    """Both polarities on PI stems and on branches of nets with ≥ 2 gate
    sinks (PO taps are not counted; see the module docstring)."""
    faults: list[StuckAtFault] = []
    for net in circuit.inputs:
        faults.append(StuckAtFault(Line(net), False))
        faults.append(StuckAtFault(Line(net), True))
    for gate in circuit.gates():
        for pin, net in enumerate(gate.fanins):
            if circuit.fanout_count(net) >= 2:
                line = Line(net, gate.name, pin)
                faults.append(StuckAtFault(line, False))
                faults.append(StuckAtFault(line, True))
    return faults


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[StuckAtFault, StuckAtFault] = {}

    def find(self, fault: StuckAtFault) -> StuckAtFault:
        parent = self._parent.setdefault(fault, fault)
        if parent is fault or parent == fault:
            return fault
        root = self.find(parent)
        self._parent[fault] = root
        return root

    def union(self, a: StuckAtFault, b: StuckAtFault) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


# Gate-input s-a-v equivalent to gate-output s-a-w for controlled gates:
# the table maps gate type to (input value, output value).
_INPUT_OUTPUT_EQUIV: dict[GateType, tuple[bool, bool]] = {
    GateType.AND: (False, False),
    GateType.NAND: (False, True),
    GateType.OR: (True, True),
    GateType.NOR: (True, False),
}


def equivalence_classes(circuit: Circuit) -> dict[StuckAtFault, set[StuckAtFault]]:
    """Structural equivalence classes over the full stuck-at universe.

    Applies, transitively:

    * controlled-gate input/output equivalence (table above);
    * inverter/buffer input↔output mapping;
    * stem ≡ single branch for fanout-free nets.
    """
    uf = _UnionFind()
    for gate in circuit.gates():
        out = gate.name
        rule = _INPUT_OUTPUT_EQUIV.get(gate.gate_type)
        if rule is not None:
            in_value, out_value = rule
            for pin, net in enumerate(gate.fanins):
                uf.union(
                    StuckAtFault(Line(out), out_value),
                    StuckAtFault(Line(net, out, pin), in_value),
                )
        elif gate.gate_type is GateType.BUF:
            net = gate.fanins[0]
            for value in (False, True):
                uf.union(
                    StuckAtFault(Line(out), value),
                    StuckAtFault(Line(net, out, 0), value),
                )
        elif gate.gate_type is GateType.NOT:
            net = gate.fanins[0]
            for value in (False, True):
                uf.union(
                    StuckAtFault(Line(out), not value),
                    StuckAtFault(Line(net, out, 0), value),
                )
    for net in circuit.nets:
        fanouts = circuit.fanouts(net)
        # a PO tap is a second observation point: the stem fault flips
        # it, the branch fault does not, so the two are inequivalent
        if len(fanouts) == 1 and not circuit.is_output(net):
            sink, pin = fanouts[0]
            for value in (False, True):
                uf.union(
                    StuckAtFault(Line(net), value),
                    StuckAtFault(Line(net, sink, pin), value),
                )
    classes: dict[StuckAtFault, set[StuckAtFault]] = {}
    for fault in all_stuck_at_faults(circuit):
        classes.setdefault(uf.find(fault), set()).add(fault)
    return {min(members): members for members in classes.values()}


def collapse_faults(
    circuit: Circuit, faults: Iterable[StuckAtFault]
) -> list[StuckAtFault]:
    """One representative per equivalence class intersecting ``faults``.

    The representative is always drawn from ``faults`` itself (the
    lexicographically least member), so collapsing a checkpoint set
    yields checkpoint faults.
    """
    classes = equivalence_classes(circuit)
    membership: dict[StuckAtFault, StuckAtFault] = {}
    for root, members in classes.items():
        for member in members:
            membership[member] = root
    chosen: dict[StuckAtFault, StuckAtFault] = {}
    for fault in faults:
        root = membership[fault]
        if root not in chosen or fault < chosen[root]:
            chosen[root] = fault
    return sorted(chosen.values())


def collapsed_checkpoint_faults(circuit: Circuit) -> list[StuckAtFault]:
    """The paper's stuck-at target set: collapsed checkpoint faults."""
    return collapse_faults(circuit, checkpoint_faults(circuit))
