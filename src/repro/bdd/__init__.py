"""Reduced Ordered Binary Decision Diagrams (ROBDDs).

This package implements the OBDD machinery of Bryant (IEEE ToC 1986)
that Difference Propagation uses as its functional representation:

* :class:`~repro.bdd.manager.BDDManager` — shared-node manager with a
  unique table, a size-bounded computed table
  (:class:`~repro.bdd.cache.OperationCache`), reference-counted
  mark-sweep garbage collection (``incref``/``decref``/``gc``),
  in-place sifting, and the four operators Table 1 needs: AND, OR,
  XOR and NOT.
* :class:`~repro.bdd.function.Function` — an immutable, operator-
  overloaded handle to a node in a manager (``&``, ``|``, ``^``, ``~``).
* :mod:`~repro.bdd.ordering` — the netlist fanin-DFS variable order.
* :mod:`~repro.bdd.dot` — Graphviz export for debugging.

Example
-------
>>> from repro.bdd import BDDManager, Function
>>> m = BDDManager(["a", "b", "c"])
>>> a, b, c = (Function(m, m.var(name)) for name in ("a", "b", "c"))
>>> f = (a & b) | ~c
>>> f.satcount()
5
"""

from repro.bdd.cache import (
    DEFAULT_CACHE_SIZE,
    ManagerStats,
    OpCacheStats,
    OperationCache,
)
from repro.bdd.manager import BDDManager, FALSE, TRUE
from repro.bdd.function import Function
from repro.bdd.ordering import dfs_fanin_order
from repro.bdd.dot import to_dot

__all__ = [
    "BDDManager",
    "Function",
    "FALSE",
    "TRUE",
    "ManagerStats",
    "OpCacheStats",
    "OperationCache",
    "DEFAULT_CACHE_SIZE",
    "dfs_fanin_order",
    "to_dot",
]
