"""Property-based tests: every BDD operation against a truth-table oracle.

A random Boolean expression is evaluated two ways — through the ROBDD
manager and through plain Python bools over all 2^n assignments — and
must agree everywhere. Canonicity (equal functions ⇔ equal nodes) is
checked as well, since all of Difference Propagation leans on it.

On top of the operator layer, campaign-level properties run on random
circuits: no fault's detectability ever exceeds its syndrome upper
bound, and merging shuffled campaign chunks is order-invariant.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro.bdd.manager import BDDManager
from repro.core.engine import DifferencePropagation
from repro.core.metrics import detectability_upper_bound
from repro.core.symbolic import CircuitFunctions
from repro.experiments import campaigns as campaign_mod
from repro.experiments.parallel import (
    ChunkResult,
    merge_chunk_results,
    shard_faults,
)
from tests.strategies import bridging_faults, circuits, stuck_at_faults

_NUM_VARS = 4
_NAMES = [f"v{i}" for i in range(_NUM_VARS)]


# Expression AST: leaves are variable indices; internal nodes are
# ("op", left, right) or ("not", child).
def _expressions(depth: int = 4):
    leaves = st.integers(0, _NUM_VARS - 1)
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(st.just("not"), children),
            st.tuples(
                st.sampled_from(["and", "or", "xor"]), children, children
            ),
        ),
        max_leaves=12,
    )


def _to_bdd(manager: BDDManager, expr) -> int:
    if isinstance(expr, int):
        return manager.var(_NAMES[expr])
    if expr[0] == "not":
        return manager.apply_not(_to_bdd(manager, expr[1]))
    op, lhs, rhs = expr
    left = _to_bdd(manager, lhs)
    right = _to_bdd(manager, rhs)
    return {
        "and": manager.apply_and,
        "or": manager.apply_or,
        "xor": manager.apply_xor,
    }[op](left, right)


def _eval(expr, assignment: dict[str, bool]) -> bool:
    if isinstance(expr, int):
        return assignment[_NAMES[expr]]
    if expr[0] == "not":
        return not _eval(expr[1], assignment)
    op, lhs, rhs = expr
    left, right = _eval(lhs, assignment), _eval(rhs, assignment)
    return {
        "and": left and right,
        "or": left or right,
        "xor": left != right,
    }[op]


def _all_assignments():
    for bits in itertools.product([False, True], repeat=_NUM_VARS):
        yield dict(zip(_NAMES, bits))


@settings(max_examples=150, deadline=None)
@given(_expressions())
def test_bdd_matches_truth_table(expr):
    manager = BDDManager(_NAMES)
    node = _to_bdd(manager, expr)
    for assignment in _all_assignments():
        assert manager.evaluate(node, assignment) == _eval(expr, assignment)


@settings(max_examples=150, deadline=None)
@given(_expressions())
def test_satcount_matches_truth_table(expr):
    manager = BDDManager(_NAMES)
    node = _to_bdd(manager, expr)
    expected = sum(_eval(expr, a) for a in _all_assignments())
    assert manager.satcount(node) == expected


@settings(max_examples=100, deadline=None)
@given(_expressions(), _expressions())
def test_canonicity(expr_a, expr_b):
    manager = BDDManager(_NAMES)
    node_a = _to_bdd(manager, expr_a)
    node_b = _to_bdd(manager, expr_b)
    same_function = all(
        _eval(expr_a, a) == _eval(expr_b, a) for a in _all_assignments()
    )
    assert (node_a == node_b) == same_function


@settings(max_examples=80, deadline=None)
@given(_expressions())
def test_support_is_exact(expr):
    """A variable is in the support iff some cofactor pair differs."""
    manager = BDDManager(_NAMES)
    node = _to_bdd(manager, expr)
    support = manager.support(node)
    for name in _NAMES:
        depends = any(
            _eval(expr, dict(a, **{name: False}))
            != _eval(expr, dict(a, **{name: True}))
            for a in _all_assignments()
        )
        assert (name in support) == depends


# ----------------------------------------------------------------------
# Campaign-level properties on random circuits
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(st.data())
def test_stuck_at_detectability_never_exceeds_upper_bound(data):
    """δ ≤ U for any checkpoint fault of any random circuit (paper §3)."""
    circuit = data.draw(circuits())
    fault = data.draw(stuck_at_faults(circuit))
    functions = CircuitFunctions(circuit)
    analysis = DifferencePropagation(circuit, functions=functions).analyze(
        fault
    )
    assert analysis.detectability <= detectability_upper_bound(
        functions, fault
    )


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_bridging_detectability_never_exceeds_upper_bound(data):
    """δ ≤ density(f_u ⊕ f_v) for any random non-feedback bridge."""
    circuit = data.draw(circuits())
    fault = data.draw(bridging_faults(circuit))
    functions = CircuitFunctions(circuit)
    analysis = DifferencePropagation(circuit, functions=functions).analyze(
        fault
    )
    assert analysis.detectability <= detectability_upper_bound(
        functions, fault
    )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_merging_shuffled_chunks_is_order_invariant(data):
    """Any chunking, delivered in any order, merges to the serial tuple."""
    from repro.faults.stuck_at import collapsed_checkpoint_faults

    circuit = data.draw(circuits())
    faults = collapsed_checkpoint_faults(circuit)
    engine = DifferencePropagation(circuit)
    records = campaign_mod.analyze_faults(engine, faults, bridging=False)

    chunk_size = data.draw(st.integers(1, max(1, len(faults))))
    chunks = shard_faults(faults, chunk_size)
    offset = 0
    chunk_results = []
    for index, chunk in enumerate(chunks):
        chunk_results.append(
            ChunkResult(
                index=index,
                results=records[offset : offset + len(chunk)],
                exact=True,
                stat=campaign_mod.ChunkStat(
                    index=index,
                    num_faults=len(chunk),
                    seconds=0.0,
                    peak_nodes=0,
                    worker_pid=0,
                ),
            )
        )
        offset += len(chunk)

    shuffled = data.draw(st.permutations(chunk_results))
    merged = merge_chunk_results(circuit, shuffled)
    assert merged.results == records
    assert [s.index for s in merged.chunk_stats] == list(range(len(chunks)))
