"""Fault-free circuit functions as shared OBDDs.

:class:`CircuitFunctions` builds, in one topological sweep, the good
function of every net over the primary-input variables. The paper's
variable order — the declared PI order of the benchmark — is the
default; any permutation can be supplied.

For circuits whose exact functions blow up, **cut-point functional
decomposition** (the paper's reference [21], used there "to speed up
Difference Propagation" on C499 and larger) is available: when a net's
BDD exceeds ``decompose_threshold`` nodes, the net is *cut* — replaced
by a fresh pseudo-variable — and everything downstream is expressed
over the extended variable set. Counting-based measures then treat the
pseudo-variables as free inputs, which is the approximation the paper
acknowledges ("the fractions … may not be completely accurate due to
the decomposition masking some functional interactions").
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.bdd.function import Function
from repro.bdd.manager import BDDManager
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, CircuitError


class CircuitFunctions:
    """Good functions of every net of ``circuit`` in one shared manager."""

    def __init__(
        self,
        circuit: Circuit,
        order: Sequence[str] | None = None,
        decompose_threshold: int | None = None,
    ) -> None:
        if order is None:
            order = circuit.inputs
        if sorted(order) != sorted(circuit.inputs):
            raise CircuitError(
                "variable order must be a permutation of the primary inputs"
            )
        if decompose_threshold is not None and decompose_threshold < 2:
            raise ValueError("decompose_threshold must be at least 2")
        self.circuit = circuit
        self.order = tuple(order)
        self.decompose_threshold = decompose_threshold
        self.manager = BDDManager(order)
        #: nets replaced by pseudo-variables (net name -> variable name)
        self.cut_points: dict[str, str] = {}
        self._nodes: dict[str, int] = {}
        self._build()

    def _build(self) -> None:
        # Every stored good function is incref'd: the net table is the
        # manager's primary GC root set, so campaign-time collections
        # can never sweep a good function out from under the engine.
        m = self.manager
        for net in self.circuit.inputs:
            self._nodes[net] = m.incref(m.var(net))
        for gate in self.circuit.gates():
            operands = [self._nodes[f] for f in gate.fanins]
            node = _apply_gate(m, gate.gate_type, operands)
            if (
                self.decompose_threshold is not None
                and m.node_count(node) > self.decompose_threshold
            ):
                pseudo = f"__cut_{gate.name}"
                m.add_var(pseudo)
                self.cut_points[gate.name] = pseudo
                node = m.var(pseudo)
            self._nodes[gate.name] = m.incref(node)

    # ------------------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        """True when no cut points were introduced."""
        return not self.cut_points

    @property
    def num_vars(self) -> int:
        """Total variables: primary inputs plus pseudo-variables."""
        return self.manager.num_vars

    def node(self, net: str) -> int:
        """Raw manager node of the net's good function."""
        try:
            return self._nodes[net]
        except KeyError:
            raise CircuitError(f"unknown net {net!r}") from None

    def function(self, net: str) -> Function:
        """The net's good function as a :class:`Function`."""
        return Function(self.manager, self.node(net))

    def syndrome(self, net: str) -> Fraction:
        """Syndrome (Savir): fraction of ones in the net's K-map.

        With cut points the pseudo-variables count as free inputs — the
        standard cut-point approximation.
        """
        return self.function(net).density()

    def zero(self) -> Function:
        return Function.false(self.manager)

    def one(self) -> Function:
        return Function.true(self.manager)


def _apply_gate(manager: BDDManager, gate_type: GateType, operands: list[int]) -> int:
    """Fold one gate's function over its operand nodes."""
    if gate_type is GateType.CONST0:
        return 0
    if gate_type is GateType.CONST1:
        return 1
    if gate_type is GateType.BUF:
        return operands[0]
    if gate_type is GateType.NOT:
        return manager.apply_not(operands[0])
    if gate_type in (GateType.AND, GateType.NAND):
        acc = operands[0]
        for operand in operands[1:]:
            acc = manager.apply_and(acc, operand)
        return manager.apply_not(acc) if gate_type is GateType.NAND else acc
    if gate_type in (GateType.OR, GateType.NOR):
        acc = operands[0]
        for operand in operands[1:]:
            acc = manager.apply_or(acc, operand)
        return manager.apply_not(acc) if gate_type is GateType.NOR else acc
    if gate_type in (GateType.XOR, GateType.XNOR):
        acc = operands[0]
        for operand in operands[1:]:
            acc = manager.apply_xor(acc, operand)
        return manager.apply_not(acc) if gate_type is GateType.XNOR else acc
    raise CircuitError(f"cannot build function for gate type {gate_type}")
