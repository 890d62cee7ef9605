"""Unit tests for the ROBDD manager."""

from __future__ import annotations

import gc
import itertools
import weakref

import pytest

from repro.bdd.manager import BDDError, BDDManager, FALSE, TRUE


class TestVariables:
    def test_declared_order_is_preserved(self):
        m = BDDManager(["x", "y", "z"])
        assert m.var_names == ("x", "y", "z")
        assert m.level_of("x") == 0
        assert m.level_of("z") == 2

    def test_add_var_appends(self):
        m = BDDManager(["x"])
        assert m.add_var("y") == 1
        assert m.var_names == ("x", "y")

    def test_duplicate_variable_rejected(self):
        m = BDDManager(["x"])
        with pytest.raises(BDDError):
            m.add_var("x")

    def test_unknown_variable_rejected(self):
        m = BDDManager(["x"])
        with pytest.raises(BDDError):
            m.var("nope")

    def test_var_and_nvar_are_complements(self):
        m = BDDManager(["x"])
        assert m.apply_not(m.var("x")) == m.nvar("x")


class TestReduction:
    def test_same_function_same_node(self):
        m = BDDManager(["a", "b"])
        f = m.apply_and(m.var("a"), m.var("b"))
        g = m.apply_and(m.var("b"), m.var("a"))
        assert f == g

    def test_redundant_test_removed(self):
        m = BDDManager(["a", "b"])
        a, b = m.var("a"), m.var("b")
        # b·a + b̄·a must collapse to a — no node tests b.
        not_b = m.nvar("b")
        assert m.apply_or(m.apply_and(b, a), m.apply_and(not_b, a)) == a

    def test_terminal_identities(self):
        m = BDDManager(["a"])
        a = m.var("a")
        assert m.apply_and(a, TRUE) == a
        assert m.apply_and(a, FALSE) == FALSE
        assert m.apply_or(a, FALSE) == a
        assert m.apply_or(a, TRUE) == TRUE
        assert m.apply_xor(a, FALSE) == a
        assert m.apply_xor(a, a) == FALSE
        # Every terminal case of the one binary kernel, both orders.
        na = m.nvar("a")
        ops = (
            (m.apply_and, lambda x, y: x and y),
            (m.apply_or, lambda x, y: x or y),
            (m.apply_xor, lambda x, y: x != y),
        )
        for (apply, truth), (f, g) in itertools.product(
            ops, itertools.product((FALSE, TRUE, a, na), repeat=2)
        ):
            h = apply(f, g)
            for value in (False, True):
                env = {"a": value}
                assert m.evaluate(h, env) == truth(
                    m.evaluate(f, env), m.evaluate(g, env)
                )

    def test_children_are_strictly_lower(self):
        m = BDDManager(["a", "b", "c"])
        f = m.apply_or(m.apply_and(m.var("a"), m.var("c")), m.var("b"))
        stack = [f]
        seen = set()
        while stack:
            u = stack.pop()
            if u <= TRUE or u in seen:
                continue
            seen.add(u)
            for child in (m.low(u), m.high(u)):
                if child > TRUE:
                    assert m.level(child) > m.level(u)
                stack.append(child)


class TestOperators:
    def test_de_morgan(self):
        m = BDDManager(["a", "b"])
        a, b = m.var("a"), m.var("b")
        assert m.apply_not(m.apply_and(a, b)) == m.apply_or(
            m.apply_not(a), m.apply_not(b)
        )

    def test_xor_as_sum_of_products(self):
        m = BDDManager(["a", "b"])
        a, b = m.var("a"), m.var("b")
        assert m.apply_xor(a, b) == m.apply_or(
            m.apply_and(a, m.apply_not(b)), m.apply_and(m.apply_not(a), b)
        )

    def test_double_negation(self):
        m = BDDManager(["a", "b"])
        f = m.apply_and(m.var("a"), m.var("b"))
        assert m.apply_not(m.apply_not(f)) == f


class TestCounting:
    def test_satcount_basics(self):
        m = BDDManager(["a", "b", "c"])
        assert m.satcount(FALSE) == 0
        assert m.satcount(TRUE) == 8
        assert m.satcount(m.var("a")) == 4
        assert m.satcount(m.apply_and(m.var("a"), m.var("b"))) == 2

    def test_satcount_memo_survives_new_nodes(self):
        m = BDDManager(["a", "b", "c"])
        f = m.apply_or(m.var("a"), m.var("b"))
        assert m.satcount(f) == 6
        g = m.apply_and(f, m.var("c"))
        assert m.satcount(g) == 3
        assert m.satcount(f) == 6

    def test_satcount_memo_invalidated_by_add_var(self):
        m = BDDManager(["a"])
        f = m.var("a")
        assert m.satcount(f) == 1
        m.add_var("b")
        assert m.satcount(f) == 2

    def test_support(self):
        m = BDDManager(["a", "b", "c"])
        f = m.apply_and(m.var("a"), m.var("c"))
        assert m.support(f) == frozenset({"a", "c"})
        assert m.support(TRUE) == frozenset()

    def test_node_count(self):
        m = BDDManager(["a", "b"])
        assert m.node_count(TRUE) == 1
        assert m.node_count(m.var("a")) == 3  # node + two terminals


class TestWitnesses:
    def test_pick_minterm_satisfies(self):
        m = BDDManager(["a", "b", "c"])
        f = m.apply_and(m.var("a"), m.apply_not(m.var("c")))
        assignment = m.pick_minterm(f)
        assert assignment is not None
        assert m.evaluate(f, assignment)

    def test_pick_minterm_of_false(self):
        m = BDDManager(["a"])
        assert m.pick_minterm(FALSE) is None

    def test_minterms_enumerates_exactly(self):
        m = BDDManager(["a", "b", "c"])
        f = m.apply_xor(m.var("a"), m.var("b"))
        minterms = list(m.minterms(f))
        assert len(minterms) == m.satcount(f)
        assert all(m.evaluate(f, a) for a in minterms)

    def test_minterms_limit(self):
        m = BDDManager(["a", "b", "c"])
        assert len(list(m.minterms(TRUE, limit=3))) == 3

    def test_evaluate_missing_variable(self):
        m = BDDManager(["a", "b"])
        with pytest.raises(BDDError):
            m.evaluate(m.var("b"), {"a": True})


class TestBulkHelpers:
    def test_clear_caches_preserves_results(self):
        m = BDDManager(["a", "b"])
        f = m.apply_and(m.var("a"), m.var("b"))
        m.clear_caches()
        assert m.apply_and(m.var("a"), m.var("b")) == f


class TestMemory:
    def test_apply_leaves_no_reference_cycle(self):
        """A dropped manager is freed by refcounting alone.

        The binary kernel's recursive closure refers to itself; if a
        call left that cycle behind, the node arrays and tables (and,
        through ``_not``, the manager) would wait for the cyclic
        collector.
        """
        gc.collect()
        gc.disable()
        try:
            m = BDDManager(["a", "b", "c"])
            a, b, c = m.var("a"), m.var("b"), m.var("c")
            f = m.apply_and(a, m.apply_or(b, c))
            g = m.apply_xor(f, c)
            m.apply_xor(g, TRUE)
            m.apply_not(g)
            ref = weakref.ref(m)
            del m
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()
