"""Tests for the good-function builder (CircuitFunctions)."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.circuit.netlist import CircuitError
from repro.core.symbolic import CircuitFunctions
from repro.simulation.truthtable import TruthTableSimulator

from tests.strategies import circuits


class TestExactFunctions:
    def test_matches_evaluation(self, fulladder):
        functions = CircuitFunctions(fulladder)
        for values in itertools.product([False, True], repeat=3):
            assignment = dict(zip(fulladder.inputs, values))
            reference = fulladder.evaluate(assignment)
            for net in fulladder.nets:
                assert functions.function(net).evaluate(assignment) == reference[net]

    def test_syndromes_match_truth_tables(self, c95):
        functions = CircuitFunctions(c95)
        simulator = TruthTableSimulator(c95)
        for net in c95.nets:
            assert functions.syndrome(net) == simulator.syndrome(net)

    def test_default_order_is_declared_pi_order(self, c17):
        functions = CircuitFunctions(c17)
        assert functions.order == c17.inputs
        assert functions.manager.var_names == c17.inputs

    def test_custom_order(self, c17):
        reordered = tuple(reversed(c17.inputs))
        functions = CircuitFunctions(c17, order=reordered)
        assert functions.manager.var_names == reordered
        # Function values are order-independent.
        assignment = {net: True for net in c17.inputs}
        for po in c17.outputs:
            assert functions.function(po).evaluate(assignment) == (
                c17.evaluate_outputs(assignment)[po]
            )

    def test_invalid_order_rejected(self, c17):
        with pytest.raises(CircuitError):
            CircuitFunctions(c17, order=("G1", "G2"))

    def test_unknown_net_rejected(self, c17):
        functions = CircuitFunctions(c17)
        with pytest.raises(CircuitError):
            functions.node("nope")

    def test_is_exact_without_decomposition(self, c17):
        assert CircuitFunctions(c17).is_exact

    def test_zero_one_helpers(self, c17):
        functions = CircuitFunctions(c17)
        assert functions.zero().is_zero
        assert functions.one().is_one


class TestDecomposition:
    def test_cut_points_created(self, alu181):
        functions = CircuitFunctions(alu181, decompose_threshold=30)
        assert functions.cut_points
        assert not functions.is_exact
        assert functions.num_vars == alu181.num_inputs + len(functions.cut_points)

    def test_cut_net_becomes_free_variable(self, alu181):
        functions = CircuitFunctions(alu181, decompose_threshold=30)
        net, pseudo = next(iter(functions.cut_points.items()))
        assert functions.function(net).support() == frozenset({pseudo})
        assert functions.syndrome(net) == Fraction(1, 2)

    def test_threshold_validation(self, c17):
        with pytest.raises(ValueError):
            CircuitFunctions(c17, decompose_threshold=1)

    def test_huge_threshold_cuts_nothing(self, c95):
        functions = CircuitFunctions(c95, decompose_threshold=10**9)
        assert functions.is_exact

    def test_syndrome_approximation_is_reasonable(self, alu181):
        """Cut-point syndromes stay in a loose band of the truth.

        Individual outputs can drift substantially (the paper's own
        caveat about decomposition masking interactions); the aggregate
        must stay sane.
        """
        exact = CircuitFunctions(alu181)
        approx = CircuitFunctions(alu181, decompose_threshold=60)
        deviations = [
            abs(float(exact.syndrome(po)) - float(approx.syndrome(po)))
            for po in alu181.outputs
        ]
        assert max(deviations) <= 0.75
        assert sum(deviations) / len(deviations) < 0.30


@settings(max_examples=25, deadline=None)
@given(circuits(max_inputs=4, max_gates=12))
def test_functions_match_truth_tables_on_random_circuits(circuit):
    functions = CircuitFunctions(circuit)
    simulator = TruthTableSimulator(circuit)
    for net in circuit.nets:
        assert functions.syndrome(net) == simulator.syndrome(net)
