"""Unit + property tests for checkpoint faults and equivalence collapsing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.faults.lines import Line
from repro.faults.stuck_at import (
    StuckAtFault,
    all_stuck_at_faults,
    checkpoint_faults,
    collapse_faults,
    collapsed_checkpoint_faults,
    equivalence_classes,
)
from repro.simulation.truthtable import TruthTableSimulator

from tests.strategies import circuits


class TestCheckpointFaults:
    def test_pi_stems_always_included(self, c17):
        faults = checkpoint_faults(c17)
        for net in c17.inputs:
            assert StuckAtFault(Line(net), False) in faults
            assert StuckAtFault(Line(net), True) in faults

    def test_only_fanout_branches_included(self, tiny_circuit):
        faults = checkpoint_faults(tiny_circuit)
        branch_nets = {f.line.net for f in faults if f.line.is_branch}
        # conj and nc each feed two sinks; a, b, c are PIs with fanout 1.
        assert branch_nets == {"conj", "nc"}

    def test_both_polarities(self, c17):
        faults = checkpoint_faults(c17)
        assert len(faults) % 2 == 0
        lines = {f.line for f in faults}
        assert len(faults) == 2 * len(lines)


class TestEquivalenceClasses:
    def test_and_gate_rule(self):
        b = CircuitBuilder("and2")
        x, y = b.inputs("x", "y")
        b.output(b.and_(x, y, name="g"))
        circuit = b.build()
        classes = equivalence_classes(circuit)
        # x s-a-0 (as stem or branch), y s-a-0 and g s-a-0 all collapse.
        roots = {
            _root_of(classes, StuckAtFault(Line("x", "g", 0), False)),
            _root_of(classes, StuckAtFault(Line("y", "g", 1), False)),
            _root_of(classes, StuckAtFault(Line("g"), False)),
        }
        assert len(roots) == 1

    def test_inverter_maps_polarity(self):
        b = CircuitBuilder("inv")
        x = b.input("x")
        b.output(b.not_(x, name="g"))
        classes = equivalence_classes(b.build())
        assert _root_of(classes, StuckAtFault(Line("x"), False)) == _root_of(
            classes, StuckAtFault(Line("g"), True)
        )

    def test_xor_gate_creates_no_input_output_equivalence(self):
        b = CircuitBuilder("xor2")
        x, y = b.inputs("x", "y")
        b.output(b.xor(x, y, name="g"))
        classes = equivalence_classes(b.build())
        assert _root_of(classes, StuckAtFault(Line("x"), False)) != _root_of(
            classes, StuckAtFault(Line("g"), False)
        )

    def test_fanout_free_stem_equals_branch(self, c17):
        classes = equivalence_classes(c17)
        # G10 feeds only G22: stem and branch faults are the same class.
        assert _root_of(classes, StuckAtFault(Line("G10"), True)) == _root_of(
            classes, StuckAtFault(Line("G10", "G22", 0), True)
        )


class TestCollapse:
    def test_representatives_come_from_input_set(self, c17):
        checkpoints = checkpoint_faults(c17)
        collapsed = collapse_faults(c17, checkpoints)
        assert set(collapsed) <= set(checkpoints)
        assert len(collapsed) <= len(checkpoints)

    def test_collapsed_set_is_smaller_on_nand_circuit(self, c17):
        # C17 is all NANDs with shared fanins: collapsing must merge some.
        checkpoints = checkpoint_faults(c17)
        collapsed = collapsed_checkpoint_faults(c17)
        assert len(collapsed) < len(checkpoints)

    def test_deterministic(self, c95):
        assert collapsed_checkpoint_faults(c95) == collapsed_checkpoint_faults(c95)


def _root_of(classes, fault):
    for root, members in classes.items():
        if fault in members:
            return root
    raise AssertionError(f"fault {fault} not in any class")


@settings(max_examples=25, deadline=None)
@given(circuits(max_inputs=4, max_gates=10))
def test_equivalent_faults_have_identical_test_sets(circuit):
    """Structural equivalence must imply functional equivalence."""
    simulator = TruthTableSimulator(circuit)
    for members in equivalence_classes(circuit).values():
        if len(members) < 2:
            continue
        words = {simulator.detection_word(f) for f in members}
        assert len(words) == 1


@settings(max_examples=60, deadline=None)
@given(
    circuits(
        max_inputs=4,
        max_gates=8,
        # The checkpoint theorem is stated for unate primitive gates;
        # XOR/XNOR circuits can escape it, and indeed the benchmarks
        # where the paper applies checkpoints are NAND-level netlists.
        binary_gates=(GateType.AND, GateType.OR, GateType.NAND, GateType.NOR),
    )
)
def test_checkpoint_theorem_on_unate_circuits(circuit):
    """One arbitrary test per checkpoint fault detects every stuck-at.

    This is the checkpoint theorem (Bossen & Hong) that justifies the
    paper's fault-set choice: build a test set T containing exactly one
    detecting vector per detectable checkpoint fault, then verify T
    detects every detectable single stuck-at fault in the circuit.
    The theorem presumes an irredundant circuit, so redundant draws
    (which random reconvergent circuits often are) pass vacuously.
    """
    simulator = TruthTableSimulator(circuit)
    test_set = 0
    for fault in checkpoint_faults(circuit):
        word = simulator.detection_word(fault)
        if word == 0:
            return  # redundant circuit: theorem premise void
        test_set |= word & (-word)  # lowest detecting vector only
    for fault in all_stuck_at_faults(circuit):
        word = simulator.detection_word(fault)
        if word:
            assert word & test_set, f"{fault} escapes the checkpoint tests"


def _po_tapped_fanout_circuit():
    """Five unate gates where ``rc_right`` drives a PO and one gate.

    ``checkpoint_faults`` counts only gate sinks, so ``rc_right`` (and
    ``g0``) get no branch checkpoint even though their stems fan out to
    two destinations.
    """
    b = CircuitBuilder("po_tapped_fanout")
    i0, i1, i2, i3 = b.inputs("i0", "i1", "i2", "i3")
    g0 = b.and_(i0, i1, name="g0")
    g1 = b.and_(i0, i2, name="g1")
    rc_left = b.and_(i3, g0, name="rc_left")
    rc_right = b.nand(i3, g1, name="rc_right")
    b.outputs(b.and_(rc_left, rc_right, name="rc_join"), g0, rc_right)
    return b.build()


def _checkpoint_test_set(circuit, simulator):
    """One lowest detecting vector per checkpoint fault, as in the
    property test above; the checkpoint faults must all be detectable."""
    test_set = 0
    for fault in checkpoint_faults(circuit):
        word = simulator.detection_word(fault)
        assert word, f"{fault} is redundant: the theorem's premise fails"
        test_set |= word & (-word)
    return test_set


def test_po_tapped_fanout_counterexample_meets_the_premise():
    """The counterexample meets the property test's premise (every
    checkpoint fault is detectable), and its ``rc_right`` stem feeds a
    PO plus one gate without a checkpoint."""
    circuit = _po_tapped_fanout_circuit()
    _checkpoint_test_set(circuit, TruthTableSimulator(circuit))
    assert circuit.is_output("rc_right")
    assert circuit.fanout_count("rc_right") == 1
    assert not any(
        f.line.net == "rc_right" for f in checkpoint_faults(circuit)
    )


@pytest.mark.xfail(
    strict=True,
    reason="checkpoint_faults counts only gate sinks, so a net that "
    "drives a PO and one gate gets no branch checkpoint and "
    "rc_right->rc_join.1 s-a-1 escapes",
)
def test_checkpoint_theorem_holds_with_po_tapped_fanout():
    circuit = _po_tapped_fanout_circuit()
    simulator = TruthTableSimulator(circuit)
    test_set = _checkpoint_test_set(circuit, simulator)
    escaped = [
        str(fault)
        for fault in all_stuck_at_faults(circuit)
        if simulator.detection_word(fault)
        and not simulator.detection_word(fault) & test_set
    ]
    assert escaped == []
