"""Tests for variable-ordering heuristics and DOT export."""

from __future__ import annotations

from repro.bdd import BDDManager, dfs_fanin_order, to_dot
from repro.bdd.manager import FALSE, TRUE
from repro.circuit.builder import CircuitBuilder


class TestDfsFaninOrder:
    def test_is_a_permutation_of_inputs(self, c95):
        order = dfs_fanin_order(c95)
        assert sorted(order) == sorted(c95.inputs)

    def test_cone_locality(self):
        """Inputs of the first output's cone come before unrelated inputs."""
        b = CircuitBuilder("cones")
        a, bb, c, d = b.inputs("a", "b", "c", "d")
        b.output(b.and_(c, d, name="o1"))
        b.output(b.or_(a, bb, name="o2"))
        order = dfs_fanin_order(b.build())
        assert order.index("c") < order.index("a")
        assert order.index("d") < order.index("b")

    def test_disconnected_inputs_appended(self):
        b = CircuitBuilder("dangling")
        a, _unused = b.inputs("a", "unused")
        b.output(b.not_(a, name="y"))
        order = dfs_fanin_order(b.build(validate=False))
        assert order == ["a", "unused"]

    def test_deep_cone_survives_5000_gate_chain(self):
        """Regression: the visit used to recurse per fanin, so any cone
        deeper than the interpreter recursion limit (ISCAS-scale chains)
        died with RecursionError. The iterative walk must keep the exact
        first-visit order the recursion produced."""
        b = CircuitBuilder("deep")
        net = b.input("x0")
        for k in range(1, 5001):
            extra = b.input(f"x{k}")
            net = b.and_(net, extra, name=f"g{k}")
        b.output(net)
        order = dfs_fanin_order(b.build())
        assert order == [f"x{k}" for k in range(5001)]


class TestDot:
    def test_structure(self):
        m = BDDManager(["a", "b"])
        f = m.apply_and(m.var("a"), m.var("b"))
        dot = to_dot(m, f, name="g")
        assert dot.startswith("digraph g {")
        assert dot.rstrip().endswith("}")
        assert dot.count('label="a"') == 1
        assert dot.count('label="b"') == 1
        assert "style=dashed" in dot and "style=solid" in dot

    def test_terminals_only(self):
        m = BDDManager(["a"])
        assert "constant FALSE" in to_dot(m, FALSE)
        assert "constant TRUE" in to_dot(m, TRUE)

    def test_rank_grouping(self):
        m = BDDManager(["a", "b", "c"])
        f = m.apply_xor(m.apply_xor(m.var("a"), m.var("b")), m.var("c"))
        dot = to_dot(m, f)
        assert dot.count("rank=same") >= 2  # b and c levels have 2 nodes
