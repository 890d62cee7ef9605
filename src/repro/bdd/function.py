"""Operator-overloaded handle to a BDD node.

:class:`Function` is a thin immutable wrapper pairing a
:class:`~repro.bdd.manager.BDDManager` with a node id. It exists so user
code can write Boolean algebra naturally::

    f = (a & b) | ~c
    delta = f ^ faulty_f
    if delta.is_zero:
        ...  # fault is undetectable

All instances combined in one expression must belong to the same
manager; mixing managers raises :class:`~repro.bdd.manager.BDDError`.

Every ``Function`` takes an external reference on its root node
(:meth:`BDDManager.incref <repro.bdd.manager.BDDManager.incref>`) when
constructed and releases it when the wrapper is finalized, so any node
reachable from a live ``Function`` survives
:meth:`BDDManager.gc <repro.bdd.manager.BDDManager.gc>` — handles held
across a collection stay valid, including those inside previously
returned fault analyses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from repro.bdd.manager import BDDError, BDDManager, FALSE, TRUE


class Function:
    """An immutable Boolean function living in a :class:`BDDManager`."""

    __slots__ = ("manager", "node")

    def __init__(self, manager: BDDManager, node: int) -> None:
        self.manager = manager
        self.node = node
        # Root-reference the node so manager.gc() never frees it while
        # this handle is alive; released again by __del__.
        if node > TRUE:
            manager.incref(node)

    def __del__(self) -> None:
        # decref is lenient, but guard anyway: during interpreter
        # teardown the manager (or this wrapper's slots) may already be
        # partially finalized.
        try:
            if self.node > TRUE:
                self.manager.decref(self.node)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def true(cls, manager: BDDManager) -> "Function":
        return cls(manager, TRUE)

    @classmethod
    def false(cls, manager: BDDManager) -> "Function":
        return cls(manager, FALSE)

    def _wrap(self, node: int) -> "Function":
        return Function(self.manager, node)

    def _peer(self, other: "Function") -> int:
        if not isinstance(other, Function):
            raise TypeError(f"expected Function, got {type(other).__name__}")
        if other.manager is not self.manager:
            raise BDDError("cannot combine functions from different managers")
        return other.node

    # ------------------------------------------------------------------
    # Boolean algebra
    # ------------------------------------------------------------------
    def __and__(self, other: "Function") -> "Function":
        return self._wrap(self.manager.apply_and(self.node, self._peer(other)))

    def __or__(self, other: "Function") -> "Function":
        return self._wrap(self.manager.apply_or(self.node, self._peer(other)))

    def __xor__(self, other: "Function") -> "Function":
        return self._wrap(self.manager.apply_xor(self.node, self._peer(other)))

    def __invert__(self) -> "Function":
        return self._wrap(self.manager.apply_not(self.node))

    # ------------------------------------------------------------------
    # Predicates / equality
    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.node == FALSE

    @property
    def is_one(self) -> bool:
        return self.node == TRUE

    @property
    def is_constant(self) -> bool:
        return self.node <= TRUE

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Function):
            return NotImplemented
        return self.manager is other.manager and self.node == other.node

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def __bool__(self) -> bool:
        raise TypeError(
            "Function truthiness is ambiguous; use .is_zero/.is_one or =="
        )

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def satcount(self) -> int:
        return self.manager.satcount(self.node)

    def density(self) -> Fraction:
        """Fraction of the full input space satisfying this function.

        This is exactly the paper's *syndrome* when applied to a node's
        good function, and the *detectability* when applied to a fault's
        complete test set.
        """
        nvars = self.manager.num_vars
        return Fraction(self.satcount(), 1 << nvars)

    def support(self) -> frozenset[str]:
        return self.manager.support(self.node)

    def node_count(self) -> int:
        return self.manager.node_count(self.node)

    def pick_minterm(self) -> dict[str, bool] | None:
        return self.manager.pick_minterm(self.node)

    def minterms(self, limit: int | None = None) -> Iterator[dict[str, bool]]:
        return self.manager.minterms(self.node, limit=limit)

    def evaluate(self, assignment: dict[str, bool]) -> bool:
        return self.manager.evaluate(self.node, assignment)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Function(FALSE)"
        if self.is_one:
            return "Function(TRUE)"
        return (
            f"Function(node={self.node}, nodes={self.node_count()}, "
            f"support={sorted(self.support())})"
        )
