"""Variable-ordering heuristics for circuit BDDs.

The paper notes that the primary-input order given in the benchmark data
is "meaningful" and uses it directly; we also provide the classic DFS
fanin heuristic (Malik et al. / Fujita et al.) as an alternative for
circuits where the declared order is poor.

These functions operate on :class:`repro.circuit.netlist.Circuit` duck-
typed objects — anything exposing ``inputs``, ``outputs`` and
``fanins(name)`` works — so the BDD package stays independent of the
netlist package.
"""

from __future__ import annotations

from typing import Protocol, Sequence


class _NetlistLike(Protocol):
    @property
    def inputs(self) -> Sequence[str]: ...

    @property
    def outputs(self) -> Sequence[str]: ...

    def fanins(self, name: str) -> Sequence[str]: ...


def dfs_fanin_order(circuit: _NetlistLike) -> list[str]:
    """Primary-input order from a depth-first fanin traversal.

    Starting from each primary output in declared order, walk the fanin
    cone depth-first and emit primary inputs in first-visit order. Inputs
    that feed no output are appended in declared order so the result is
    always a permutation of ``circuit.inputs``.

    Iterative on an explicit stack: fanin cones can be deeper than the
    interpreter's recursion limit (a 5000-gate inverter chain is a
    legitimate netlist).
    """
    order: list[str] = []
    seen: set[str] = set()
    input_set = set(circuit.inputs)

    for output in circuit.outputs:
        # The stack holds names still to visit; pushing a node's fanins
        # in reverse makes the pop order match the recursive version's
        # declared-order descent, so first-visit order is preserved.
        stack = [output]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in input_set:
                order.append(name)
                continue
            stack.extend(reversed(circuit.fanins(name)))
    for name in circuit.inputs:
        if name not in seen:
            seen.add(name)
            order.append(name)
    return order

