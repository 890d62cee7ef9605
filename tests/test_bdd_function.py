"""Unit tests for the Function wrapper."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.bdd import BDDManager, Function
from repro.bdd.manager import BDDError


class TestAlgebra:
    def test_operators(self, manager, abcd):
        a, b, c, _ = abcd
        f = (a & b) | ~c
        assert f.satcount() == 10  # over 4 vars: (ab + c̄) has 10 minterms
        assert (f ^ f).is_zero
        assert (f | ~f).is_one

    def test_mixing_managers_rejected(self, abcd):
        other = BDDManager(["a"])
        foreign = Function(other, other.var("a"))
        with pytest.raises(BDDError):
            _ = abcd[0] & foreign

    def test_non_function_operand_rejected(self, abcd):
        with pytest.raises(TypeError):
            _ = abcd[0] & 1  # type: ignore[operator]


class TestPredicates:
    def test_constants(self, manager):
        assert Function.true(manager).is_one
        assert Function.false(manager).is_zero
        assert Function.true(manager).is_constant

    def test_truthiness_is_ambiguous(self, abcd):
        with pytest.raises(TypeError):
            bool(abcd[0])

    def test_equality_and_hash(self, manager, abcd):
        a, b, *_ = abcd
        assert (a & b) == (b & a)
        assert hash(a & b) == hash(b & a)
        assert (a & b) != (a | b)
        assert (a & b) != "not a function"


class TestAnalysis:
    def test_density_is_syndrome(self, abcd):
        a, b, *_ = abcd
        assert (a & b).density() == Fraction(1, 4)
        assert (a | b).density() == Fraction(3, 4)

    def test_support(self, abcd):
        a, _, c, _ = abcd
        assert (a ^ c).support() == frozenset({"a", "c"})

    def test_minterm_roundtrip(self, abcd):
        a, b, *_ = abcd
        f = a & ~b
        assignment = f.pick_minterm()
        assert assignment is not None
        assert f.evaluate(assignment)
        assert len(list(f.minterms())) == f.satcount()

    def test_repr(self, abcd):
        a, b, *_ = abcd
        assert "support" in repr(a & b)
        assert repr(a & ~a) == "Function(FALSE)"
        assert repr(a | ~a) == "Function(TRUE)"
