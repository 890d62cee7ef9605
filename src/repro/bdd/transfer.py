"""Moving functions between managers and static variable reordering.

The node store of a :class:`~repro.bdd.manager.BDDManager` only grows,
and its variable order is fixed at construction. Both limitations are
worked around functionally:

* :func:`transfer` re-creates a node inside another manager (whose order
  may differ) — also the only sound way to *compare* functions that
  live in different managers;
* :func:`reorder` re-creates a set of root functions under a new
  variable order and reports the size change;
* :func:`pick_best_order` tries candidate orders (declared, reversed,
  DFS-style permutations supplied by the caller) and returns whichever
  minimizes total node count — a pragmatic static alternative to
  dynamic sifting for campaign-scale workloads.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.bdd.manager import BDDError, BDDManager, FALSE, TRUE


def transfer(
    source: BDDManager,
    node: int,
    target: BDDManager,
    rename: Mapping[str, str] | None = None,
) -> int:
    """Rebuild ``node`` from ``source`` inside ``target``.

    ``rename`` optionally maps source variable names to target names;
    unmapped names must exist in the target verbatim. The target may
    use any variable order — reconstruction goes through ``ite`` on the
    decision variable, which restores ordering invariants.
    """
    rename = rename or {}
    memo: dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
    # Iterative bottom-up rebuild: cut-point decomposition can push
    # OBDD depth (one level per pseudo-variable) far past Python's
    # recursion limit, so the children-first traversal keeps its own
    # stack. A node is rebuilt once both children are in the memo.
    stack = [node]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        low, high = source.low(u), source.high(u)
        low_done = low in memo
        high_done = high in memo
        if low_done and high_done:
            name = rename.get(source.var_at(u), source.var_at(u))
            memo[u] = target.ite(target.var(name), memo[high], memo[low])
            stack.pop()
        else:
            if not high_done:
                stack.append(high)
            if not low_done:
                stack.append(low)
    return memo[node]


def functions_equal(
    source_a: BDDManager, node_a: int, source_b: BDDManager, node_b: int
) -> bool:
    """Semantic equality across managers sharing variable names.

    Comparing functions whose support variables the *other* manager has
    never declared is almost certainly a caller bug (the "same"
    variable must mean the same input on both sides), so the name
    mismatch is detected up front and reported with both managers'
    missing variables instead of surfacing an opaque ``unknown
    variable`` error from deep inside :func:`transfer`.
    """
    if source_a is source_b:
        return node_a == node_b
    support_a = source_a.support(node_a)
    support_b = source_b.support(node_b)
    missing_in_b = support_a - set(source_b.var_names)
    missing_in_a = support_b - set(source_a.var_names)
    if missing_in_a or missing_in_b:
        raise BDDError(
            "functions_equal: managers disagree on variable names — "
            f"first manager lacks {sorted(missing_in_a)}, "
            f"second manager lacks {sorted(missing_in_b)}; "
            "use transfer(..., rename=...) to map names explicitly"
        )
    fresh = BDDManager(sorted(support_a | support_b))
    return transfer(source_a, node_a, fresh) == transfer(source_b, node_b, fresh)


def reorder(
    manager: BDDManager, roots: Sequence[int], order: Sequence[str]
) -> tuple[BDDManager, list[int], int]:
    """Rebuild ``roots`` under ``order``; returns (manager, roots, size).

    ``size`` is the node count of the shared forest under the new
    order (the figure one minimizes when hunting for orders).
    """
    if sorted(order) != sorted(manager.var_names):
        raise BDDError("order must be a permutation of the manager's variables")
    fresh = BDDManager(order)
    moved = [transfer(manager, root, fresh) for root in roots]
    return fresh, moved, forest_size(fresh, moved)


def forest_size(manager: BDDManager, roots: Iterable[int]) -> int:
    """Distinct nodes reachable from any root (shared nodes counted once)."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        if u > TRUE:
            stack.append(manager.low(u))
            stack.append(manager.high(u))
    return len(seen)


def pick_best_order(
    manager: BDDManager,
    roots: Sequence[int],
    candidates: Iterable[Sequence[str]],
) -> tuple[BDDManager, list[int], Sequence[str], int]:
    """Rebuild under each candidate order and keep the smallest forest.

    Returns ``(manager, roots, order, size)`` of the winner. The
    original order is always implicitly a candidate.
    """
    best_order: Sequence[str] = manager.var_names
    best = (manager, list(roots), forest_size(manager, roots))
    for order in candidates:
        fresh, moved, size = reorder(manager, roots, order)
        if size < best[2]:
            best = (fresh, moved, size)
            best_order = tuple(order)
    return best[0], best[1], best_order, best[2]
