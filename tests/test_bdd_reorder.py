"""Dynamic variable reordering: in-place, semantics-preserving sifting.

The hazards these tests pin down:

* an adjacent-level swap — and therefore a whole :meth:`BDDManager.sift`
  pass — must never change any live function's semantics, satcount or
  *node id* (raw int handles and ``Function`` objects are pervasive);
* the unique table, computed table and counting memo must never serve
  entries minted under the old order;
* sifting must actually shrink order-sensitive shapes (the classic
  pairing function) and must stop at the ``max_growth`` guard;
* reorder telemetry must flow end to end: ``ReorderStats`` →
  ``ManagerStats`` → engine counters → ``ChunkStat`` /
  ``CampaignResult``;
* with ``REPRO_REORDER=1`` every golden fixture stays bit-identical —
  reordering may only ever change memory and runtime.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.function import Function
from repro.bdd.manager import FALSE, TRUE, BDDError, BDDManager, ReorderStats
from repro.benchcircuits import get_circuit
from repro.core.engine import DifferencePropagation
from repro.core.symbolic import CircuitFunctions
from repro.faults.stuck_at import collapsed_checkpoint_faults
from repro.verify import golden
from repro.verify.conformance import ENGINES

from tests.strategies import BOOLEXPR_NAMES, boolexprs, build_bdd

GOLDEN_DIR = Path(__file__).parent / "golden"


def truth_table(manager: BDDManager, node: int) -> tuple[bool, ...]:
    """Exhaustive evaluation over the shared five-variable space.

    Evaluation is by variable *name*, so the table is invariant under
    any reordering that preserves semantics — exactly the oracle a
    reorder test needs.
    """
    return tuple(
        manager.evaluate(node, dict(zip(BOOLEXPR_NAMES, values)))
        for values in itertools.product(
            (False, True), repeat=len(BOOLEXPR_NAMES)
        )
    )


def fresh_manager() -> BDDManager:
    return BDDManager(BOOLEXPR_NAMES)


def pairing_manager(pairs: int = 3) -> tuple[BDDManager, int]:
    """The canonical order-sensitive function ⋁ aᵢ∧bᵢ under the worst
    order (all a's before all b's) — exponential declared, linear once
    the pairs interleave."""
    names = [f"a{i}" for i in range(pairs)] + [f"b{i}" for i in range(pairs)]
    m = BDDManager(names)
    f = FALSE
    for i in range(pairs):
        f = m.apply_or(f, m.apply_and(m.var(f"a{i}"), m.var(f"b{i}")))
    return m, f


# ----------------------------------------------------------------------
# swap_adjacent: the primitive
# ----------------------------------------------------------------------
class TestSwapAdjacent:
    @given(
        expr=boolexprs(),
        level=st.integers(0, len(BOOLEXPR_NAMES) - 2),
    )
    @settings(max_examples=60)
    def test_swap_preserves_semantics_and_ids(self, expr, level):
        m = fresh_manager()
        f = Function(m, build_bdd(m, expr))
        node = f.node
        before = truth_table(m, node)
        count = m.satcount(node)
        stats = m.swap_adjacent(level)
        assert f.node == node  # ids never move
        assert truth_table(m, node) == before
        assert m.satcount(node) == count
        assert stats.swaps == 1

    @given(
        expr=boolexprs(),
        level=st.integers(0, len(BOOLEXPR_NAMES) - 2),
    )
    @settings(max_examples=40)
    def test_double_swap_restores_the_order(self, expr, level):
        m = fresh_manager()
        f = Function(m, build_bdd(m, expr))
        before = truth_table(m, f.node)
        order = m.var_names
        m.swap_adjacent(level)
        swapped = list(order)
        swapped[level], swapped[level + 1] = swapped[level + 1], swapped[level]
        assert m.var_names == tuple(swapped)
        m.swap_adjacent(level)
        assert m.var_names == order
        assert truth_table(m, f.node) == before

    @given(expr=boolexprs(), level=st.integers(0, len(BOOLEXPR_NAMES) - 2))
    @settings(max_examples=40)
    def test_operations_after_swap_are_correct(self, expr, level):
        """The computed table and counting memo must not leak stale
        levels: fresh applications after a swap stay exact."""
        m = fresh_manager()
        f = build_bdd(m, expr)
        m.incref(f)
        m.swap_adjacent(level)
        g = m.apply_xor(f, m.var("a"))
        expected = tuple(
            row_f != (values[0])
            for row_f, values in zip(
                truth_table(m, f),
                itertools.product((False, True), repeat=len(BOOLEXPR_NAMES)),
            )
        )
        assert truth_table(m, g) == expected
        assert m.apply_xor(f, f) == FALSE
        assert m.apply_or(f, TRUE) == TRUE

    def test_rejects_out_of_range_levels(self):
        m = fresh_manager()
        top = m.num_vars - 1
        with pytest.raises(BDDError):
            m.swap_adjacent(-1)
        with pytest.raises(BDDError):
            m.swap_adjacent(top)

    def test_counts_swaps_in_manager_stats(self):
        m = fresh_manager()
        Function(m, build_bdd(m, ("and", "a", ("or", "b", "c"))))
        m.swap_adjacent(0)
        m.swap_adjacent(1)
        assert m.reorder_swaps == 2
        stats = m.stats()
        assert stats.reorder_swaps == 2
        assert stats.reorder_runs == 0  # swaps alone are not a pass


# ----------------------------------------------------------------------
# sift: the full pass
# ----------------------------------------------------------------------
class TestSift:
    @given(expr=boolexprs())
    @settings(max_examples=40)
    def test_sift_preserves_semantics_and_ids(self, expr):
        m = fresh_manager()
        f = Function(m, build_bdd(m, expr))
        node = f.node
        before = truth_table(m, node)
        count = m.satcount(node)
        stats = m.sift()
        assert f.node == node
        assert truth_table(m, node) == before
        assert m.satcount(node) == count
        assert stats.nodes_after <= stats.nodes_before

    def test_sift_untangles_the_pairing_function(self):
        m, f = pairing_manager(pairs=3)
        root = Function(m, f)
        declared = m.num_live_nodes
        stats = m.sift()
        assert stats.nodes_after < stats.nodes_before
        assert m.num_live_nodes < declared
        # under any interleaved order the pairing function is linear:
        # 2 internal nodes per pair plus the terminals
        assert m.num_live_nodes <= 2 * 3 + 2
        assert m.satcount(root.node) == 37  # 3-pair OR over 6 vars

    def test_second_sift_is_a_fixpoint(self):
        m, f = pairing_manager(pairs=3)
        root = Function(m, f)  # bound: keeps the diagram rooted
        first = m.sift()
        second = m.sift()
        assert second.nodes_before == first.nodes_after
        assert second.nodes_after == first.nodes_after

    def test_rejects_max_growth_below_one(self):
        m = fresh_manager()
        with pytest.raises(BDDError):
            m.sift(max_growth=0.5)

    def test_max_vars_caps_the_pass(self):
        m, f = pairing_manager(pairs=3)
        root = Function(m, f)  # bound: keeps the diagram rooted
        m.sift(max_vars=0)
        assert m.last_reorder is not None
        assert m.last_reorder.swaps == 0

    def test_telemetry_flows_to_manager_stats(self):
        m, f = pairing_manager(pairs=3)
        root = Function(m, f)  # bound: keeps the diagram rooted
        stats = m.sift()
        assert m.reorder_runs == 1
        assert m.reorder_swaps == stats.swaps > 0
        assert m.last_reorder == stats
        assert stats.seconds >= 0
        assert 0 < stats.reduction <= 1
        mstats = m.stats()
        assert mstats.reorder_runs == 1
        assert mstats.reorder_swaps == stats.swaps

    def test_gc_after_sift_keeps_roots_alive(self):
        m = fresh_manager()
        f = Function(m, build_bdd(m, ("or", ("and", "a", "b"), "e")))
        before = truth_table(m, f.node)
        m.sift()
        m.gc()
        assert truth_table(m, f.node) == before

    def test_sift_collects_unregistered_garbage(self):
        """sift shares gc()'s root contract: raw ints not incref'd or
        wrapped die in the pre-pass sweep (documented, like gc)."""
        m = fresh_manager()
        keep = Function(m, build_bdd(m, ("and", "a", "b")))
        m.apply_or(m.var("c"), m.var("d"))  # dropped on the floor
        live_before = m.num_live_nodes
        stats = m.sift()
        assert stats.nodes_before < live_before
        assert truth_table(m, keep.node) == truth_table(m, keep.node)


# ----------------------------------------------------------------------
# the engine trigger and the environment switch
# ----------------------------------------------------------------------
class TestEngineReorder:
    def test_env_reorder_parsing(self):
        """``$REPRO_REORDER`` is parsed by the scale resolver only."""
        from repro.experiments.config import get_scale

        for raw in ("1", "true", "yes", "on", "anything"):
            assert get_scale("ci", {"REPRO_REORDER": raw}).reorder is True
        for raw in ("", "0", "false", "no", "off", " 0 ", "FALSE"):
            assert get_scale("ci", {"REPRO_REORDER": raw}).reorder is False
        assert get_scale("ci", {}).reorder is False

    def test_constructor_overrides_environment(self, monkeypatch):
        """The engine never reads the environment: only ``reorder=``."""
        monkeypatch.setenv("REPRO_REORDER", "1")
        c17 = get_circuit("c17")
        assert DifferencePropagation(c17, reorder=False).reorder is False
        assert DifferencePropagation(c17).reorder is False
        assert DifferencePropagation(c17).reorder_runs == 0
        monkeypatch.delenv("REPRO_REORDER")
        assert DifferencePropagation(c17, reorder=True).reorder is True

    def test_reorder_engine_is_bit_identical(self):
        circuit = get_circuit("c95")
        faults = collapsed_checkpoint_faults(circuit)
        plain = DifferencePropagation(circuit)
        sifted = DifferencePropagation(circuit, reorder=True)
        assert sifted.reorder_runs >= 1  # the initial post-build pass
        assert sifted.reorder_nodes_after <= sifted.reorder_nodes_before
        for fault in faults:
            assert (
                plain.analyze(fault).detectability
                == sifted.analyze(fault).detectability
            ), fault

    def test_shared_functions_are_not_resifted(self):
        """Campaigns reuse one CircuitFunctions across engines; a second
        engine must not pay a full pass for an already-sifted table."""
        functions = CircuitFunctions(get_circuit("c17"))
        first = DifferencePropagation(
            get_circuit("c17"), functions=functions, reorder=True
        )
        assert functions.manager.reorder_runs == 1
        second = DifferencePropagation(
            get_circuit("c17"), functions=functions, reorder=True
        )
        assert functions.manager.reorder_runs == 1
        assert second.reorder_runs == 0

    @pytest.mark.parametrize(
        "path",
        # exact fixtures only: the *_sampled.json twins never touch the
        # OBDD path, so reorder invariance does not apply to them
        sorted(
            p
            for p in GOLDEN_DIR.glob("*.json")
            if not p.stem.endswith("_sampled")
        ),
        ids=lambda p: p.stem,
    )
    def test_golden_fixtures_bit_identical_under_reorder(self, path):
        """Reordering must reproduce every committed fixture verbatim —
        it may only change memory and runtime."""
        document = golden.load_fixture(path)
        circuit = get_circuit(document["circuit"])
        faults = [
            golden.fault_from_dict(record["fault"])
            for record in document["faults"]
        ]
        functions = CircuitFunctions(circuit)
        reports = ENGINES["dp"].run(circuit, faults, functions, reorder=True)
        assert functions.manager.reorder_runs >= 1
        from fractions import Fraction

        num_vectors = document["num_vectors"]
        for record, report in zip(document["faults"], reports):
            context = (path.stem, record["label"])
            assert report.detectability == Fraction(
                record["test_count"], num_vectors
            ), context
            assert report.test_count == record["test_count"], context
            assert (
                sorted(report.observable_pos) == record["observable_pos"]
            ), context


# ----------------------------------------------------------------------
# campaign-level telemetry
# ----------------------------------------------------------------------
class TestCampaignReorderTelemetry:
    @pytest.fixture(autouse=True)
    def _fresh_caches(self):
        from repro.experiments.campaigns import clear_campaign_caches

        clear_campaign_caches()
        yield
        clear_campaign_caches()

    def test_campaign_records_reorder_telemetry(self):
        from repro.experiments.campaigns import (
            clear_campaign_caches,
            stuck_at_campaign,
        )
        from repro.experiments.config import Scale

        baseline = stuck_at_campaign(
            "c17", Scale(name="reorder-unit-off", circuits=("c17",))
        )
        # reordering is result-neutral, so both scales name one
        # campaign; drop the memo to make the second one run
        clear_campaign_caches()
        sifted = stuck_at_campaign(
            "c17",
            Scale(name="reorder-unit-on", circuits=("c17",), reorder=True),
        )
        assert sifted.detectabilities() == baseline.detectabilities()
        assert sifted.reorder_runs() >= 1
        assert baseline.reorder_runs() == 0
        chunk = sifted.chunk_stats[0]
        assert chunk.reorder_runs >= 1
        assert chunk.reorder_swaps >= 0
        assert chunk.reorder_nodes_after <= chunk.reorder_nodes_before

    def test_scale_effective_reorder(self, monkeypatch):
        """A resolved scale carries the env's policy; a ``Scale`` built
        in code ignores the environment."""
        from repro.experiments.config import Scale, get_scale

        monkeypatch.delenv("REPRO_REORDER", raising=False)
        assert Scale(name="x").effective_reorder() is False
        assert Scale(name="x", reorder=True).effective_reorder() is True
        assert get_scale("ci").effective_reorder() is False
        monkeypatch.setenv("REPRO_REORDER", "1")
        assert Scale(name="x").effective_reorder() is False
        assert get_scale("ci").effective_reorder() is True
        assert Scale(name="x", reorder=False).effective_reorder() is False

    def test_manifest_records_reorder(self):
        from repro import obs
        from repro.experiments.config import Scale

        manifest = obs.RunManifest.collect(
            scale=Scale(name="x", reorder=True)
        )
        assert manifest.reorder is True
        assert ReorderStats(1, 10, 8, 0.1).reduction == pytest.approx(0.2)
