"""Difference Propagation versus the exhaustive oracle — the core claim.

The engine's complete test sets must agree with brute force *exactly*:
same detectabilities, same test vectors, same PO observability, for
stuck-at faults (stems and branches) and bridging faults alike.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.engine import DifferencePropagation
from repro.core.symbolic import CircuitFunctions
from repro.faults.bridging import BridgeKind, BridgingFault, enumerate_nfbfs
from repro.faults.lines import Line
from repro.faults.stuck_at import StuckAtFault, all_stuck_at_faults
from repro.simulation.truthtable import TruthTableSimulator

from tests.strategies import circuits


def _words_agree(circuit, analysis, simulator, fault) -> bool:
    """Compare the OBDD test set with the simulator's detection word."""
    word = simulator.detection_word(fault)
    if analysis.test_count() != bin(word).count("1"):
        return False
    for assignment in analysis.tests.minterms():
        vector = sum(
            1 << i for i, net in enumerate(circuit.inputs) if assignment[net]
        )
        if not (word >> vector) & 1:
            return False
    return True


class TestStuckAtExactness:
    @pytest.mark.parametrize("circuit_name", ["c17", "fulladder"])
    def test_every_fault_matches_brute_force(self, circuit_name, request):
        circuit = request.getfixturevalue(circuit_name)
        engine = DifferencePropagation(circuit)
        simulator = TruthTableSimulator(circuit)
        for fault in all_stuck_at_faults(circuit):
            analysis = engine.analyze(fault)
            assert analysis.detectability == simulator.detectability(fault)
            assert _words_agree(circuit, analysis, simulator, fault)

    def test_branch_faults_differ_from_stem_faults(self, c17):
        """A fanout branch fault must NOT be treated as a stem fault."""
        engine = DifferencePropagation(c17)
        # G11 fans out to G16 and G19; the branch fault only enters G16.
        stem = engine.analyze(StuckAtFault(Line("G11"), True))
        branch = engine.analyze(StuckAtFault(Line("G11", "G16", 1), True))
        assert stem.tests != branch.tests

    def test_po_observability_matches_simulation(self, c95):
        engine = DifferencePropagation(c95)
        simulator = TruthTableSimulator(c95)
        for fault in all_stuck_at_faults(c95)[::7]:
            analysis = engine.analyze(fault)
            observable = set()
            injection_word = simulator.detection_word(fault)
            if injection_word:
                from repro.simulation import _engine as sim_engine
                from repro.simulation.injection import injection_for

                faulty = sim_engine.faulty_pass(
                    c95,
                    {n: simulator.good_word(n) for n in c95.nets},
                    injection_for(fault),
                    simulator.mask,
                )
                observable = {
                    po
                    for po in c95.outputs
                    if faulty[po] != simulator.good_word(po)
                }
            assert analysis.observable_pos == observable

    def test_undetectable_redundant_fault(self, c1908=None):
        """The c1908 surrogate's redundant compare cone has undetectable faults."""
        from repro.benchcircuits import get_circuit

        circuit = get_circuit("c1908")
        engine = DifferencePropagation(circuit)
        # cmp gates feed only erra, which single|uncorr already implies;
        # at least one fault in that cone must be undetectable.
        cone_faults = [
            StuckAtFault(Line("anycmp"), False),
            StuckAtFault(Line("anycmp"), True),
        ]
        detectable = [engine.analyze(f).is_detectable for f in cone_faults]
        assert not all(detectable)


class TestBridgingExactness:
    def test_all_c17_bridges_match_brute_force(self, c17):
        engine = DifferencePropagation(c17)
        simulator = TruthTableSimulator(c17)
        for kind in BridgeKind:
            for fault in enumerate_nfbfs(c17, kind):
                analysis = engine.analyze(fault)
                assert analysis.detectability == simulator.detectability(fault)
                assert _words_agree(c17, analysis, simulator, fault)

    def test_sampled_c95_bridges_match_brute_force(self, c95):
        engine = DifferencePropagation(c95)
        simulator = TruthTableSimulator(c95)
        for kind in BridgeKind:
            faults = list(enumerate_nfbfs(c95, kind))[::31]
            for fault in faults:
                analysis = engine.analyze(fault)
                assert analysis.detectability == simulator.detectability(fault)

    def test_and_or_bridges_differ(self, c17):
        engine = DifferencePropagation(c17)
        and_bf = engine.analyze(BridgingFault("G10", "G11", BridgeKind.AND))
        or_bf = engine.analyze(BridgingFault("G10", "G11", BridgeKind.OR))
        assert and_bf.tests != or_bf.tests


class TestEngineMechanics:
    def test_functions_are_shared_across_faults(self, c95):
        functions = CircuitFunctions(c95)
        engine = DifferencePropagation(c95, functions=functions)
        engine.analyze(StuckAtFault(Line("a0"), True))
        assert engine.functions is functions

    def test_unsupported_fault_type(self, c17):
        engine = DifferencePropagation(c17)
        with pytest.raises(TypeError):
            engine.analyze("bogus")  # type: ignore[arg-type]

    def test_analyze_all(self, c17):
        engine = DifferencePropagation(c17)
        faults = all_stuck_at_faults(c17)[:5]
        analyses = list(engine.analyze_all(faults))
        assert [a.fault for a in analyses] == faults

    def test_pick_test_detects(self, fulladder):
        engine = DifferencePropagation(fulladder)
        simulator = TruthTableSimulator(fulladder)
        fault = StuckAtFault(Line("half"), False)
        test = engine.analyze(fault).pick_test()
        assert test is not None
        vector = sum(
            1 << i for i, net in enumerate(fulladder.inputs) if test[net]
        )
        assert (simulator.detection_word(fault) >> vector) & 1


@settings(max_examples=20, deadline=None)
@given(circuits(max_inputs=4, max_gates=12))
def test_dp_equals_brute_force_on_random_circuits(circuit):
    """The headline property: DP is exact on arbitrary circuits."""
    engine = DifferencePropagation(circuit)
    simulator = TruthTableSimulator(circuit)
    for fault in all_stuck_at_faults(circuit):
        assert engine.analyze(fault).detectability == simulator.detectability(
            fault
        )


@settings(max_examples=12, deadline=None)
@given(circuits(max_inputs=4, max_gates=10))
def test_dp_equals_brute_force_on_random_bridges(circuit):
    engine = DifferencePropagation(circuit)
    simulator = TruthTableSimulator(circuit)
    for kind in BridgeKind:
        for fault in list(enumerate_nfbfs(circuit, kind))[:25]:
            assert engine.analyze(fault).detectability == simulator.detectability(
                fault
            )
