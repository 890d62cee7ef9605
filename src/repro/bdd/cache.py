"""Bounded operation cache and manager telemetry.

The computed table is the manager's dominant memory consumer during
long fault campaigns — it dwarfs the node store by an order of
magnitude. :class:`OperationCache` bounds it: once the table overflows
``bound`` entries the oldest half is evicted (dict insertion order is
age order), and every lookup/store is attributed to its operation tag
so :meth:`BDDManager.stats <repro.bdd.manager.BDDManager.stats>` can
report per-op hit/miss/eviction counts.

Garbage collection hooks in through :meth:`OperationCache.invalidate_dead`:
after a sweep frees node slots, any entry whose operand or result node
died must be dropped — a freed slot can be reused for a *different*
node, and a stale entry keyed on the old id would silently return a
wrong result.

Dynamic reordering (:meth:`BDDManager.sift
<repro.bdd.manager.BDDManager.sift>`) rewires nodes in place and frees
the slots that die mid-pass without building the ``alive`` map that
selective invalidation reads. A reorder therefore drops the computed
table wholesale via :meth:`OperationCache.clear` (counters survive;
they are cumulative).

:class:`ManagerStats` is the plain-scalar snapshot of all of this
(live/allocated nodes, GC totals, cache rates); it is picklable so the
parallel campaign workers can ship it home inside their chunk stats.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

#: Operation tags for the computed table, in stable display order.
#: Every key is ``(op, f)`` or ``(op, f, g)`` over node ids only.
OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_NOT = 3

NUM_OPS = 4

OP_NAMES: tuple[str, ...] = ("and", "or", "xor", "not")

#: Default computed-table bound. Roughly 100 MB of dict at CPython's
#: per-entry cost — far below what unbounded campaign tables reached.
DEFAULT_CACHE_SIZE = 1 << 20


@dataclass(frozen=True)
class OpCacheStats:
    """Hit/miss/eviction counters for one operation tag."""

    op: str
    hits: int
    misses: int
    evictions: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class ManagerStats:
    """Snapshot of a manager's memory and cache health (all scalars)."""

    live_nodes: int
    allocated_nodes: int
    gc_runs: int
    reclaimed_nodes: int
    cache_entries: int
    cache_bound: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_invalidations: int
    op_stats: tuple[OpCacheStats, ...]
    # Dynamic-reordering totals (see BDDManager.sift): number of sifting
    # passes and cumulative adjacent-level swaps across them.
    reorder_runs: int = 0
    reorder_swaps: int = 0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0


class OperationCache:
    """Size-bounded computed table with per-op counters.

    The manager's hot apply loops bind :attr:`data`, :attr:`hits` and
    :attr:`misses` directly — a method call per lookup would roughly
    double the cost of the apply recursion — so this class only owns
    the bounding, eviction, invalidation, and reporting logic.
    """

    __slots__ = ("data", "bound", "hits", "misses", "evictions", "invalidated")

    def __init__(self, bound: int = DEFAULT_CACHE_SIZE) -> None:
        if bound < 1:
            raise ValueError("cache bound must be at least 1")
        self.data: dict[tuple, int] = {}
        self.bound = bound
        self.hits: list[int] = [0] * NUM_OPS
        self.misses: list[int] = [0] * NUM_OPS
        self.evictions: list[int] = [0] * NUM_OPS
        #: entries dropped because GC freed one of their nodes
        self.invalidated = 0

    def __len__(self) -> int:
        return len(self.data)

    def maybe_evict(self) -> int:
        """Shed the oldest entries once the table overflows the bound.

        Eviction drops back to half the bound so consecutive large
        operations don't evict on every call. Called between (or at
        worst around) operations — an evicted entry can only ever cost
        recomputation, never a wrong answer.
        """
        data = self.data
        if len(data) <= self.bound:
            return 0
        drop = len(data) - self.bound // 2
        stale = list(islice(iter(data), drop))
        evictions = self.evictions
        for key in stale:
            del data[key]
            evictions[key[0]] += 1
        return drop

    def invalidate_dead(self, alive: bytearray) -> int:
        """Drop entries touching nodes that a GC sweep just freed.

        ``alive`` is indexed by node id (truthy = survived the sweep).
        An entry dies when its result or any operand node died: the
        freed slot may be reused for a different node, at which point
        the stale entry's key would collide with a live lookup.
        """
        data = self.data
        # A key is (op, f) or (op, f, g): key[1] and key[-1] are its
        # operands (the same node for NOT).
        dead_keys = []
        for key, result in data.items():
            if not (alive[result] and alive[key[1]] and alive[key[-1]]):
                dead_keys.append(key)
        for key in dead_keys:
            del data[key]
        self.invalidated += len(dead_keys)
        return len(dead_keys)

    def clear(self) -> None:
        """Drop every entry (counters are cumulative and survive)."""
        self.data.clear()

    def op_stats(self) -> tuple[OpCacheStats, ...]:
        return tuple(
            OpCacheStats(
                op=OP_NAMES[op],
                hits=self.hits[op],
                misses=self.misses[op],
                evictions=self.evictions[op],
            )
            for op in range(NUM_OPS)
        )
