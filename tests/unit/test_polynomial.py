"""Unit tests for polynomials and monomials."""

from fractions import Fraction

import pytest

from repro.formulas import Monomial, Polynomial, sym, post


X = sym("x")
Y = sym("y")
XP = post("x")


class TestMonomial:
    def test_unit_monomial(self):
        assert Monomial.unit().is_unit
        assert Monomial.unit().degree == 0

    def test_of_symbol(self):
        m = Monomial.of(X)
        assert m.degree == 1
        assert m.power_of(X) == 1
        assert m.power_of(Y) == 0

    def test_of_zero_power_is_unit(self):
        assert Monomial.of(X, 0) == Monomial.unit()

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Monomial.of(X, -1)

    def test_from_mapping_rejects_negative_powers(self):
        for powers in ({X: -1}, {X: 2, Y: -1}):
            with pytest.raises(ValueError):
                Monomial.from_mapping(powers)
        assert Monomial.from_mapping({X: 0, Y: 1}) == Monomial.of(Y)

    def test_multiplication_merges_powers(self):
        m = Monomial.of(X) * Monomial.of(X, 2) * Monomial.of(Y)
        assert m.power_of(X) == 3
        assert m.power_of(Y) == 1
        assert m.degree == 4

    def test_symbols(self):
        m = Monomial.of(X) * Monomial.of(Y)
        assert m.symbols == frozenset({X, Y})

    def test_str(self):
        assert str(Monomial.of(X, 2)) == "x^2"
        assert str(Monomial.unit()) == "1"


class TestPolynomialConstruction:
    def test_zero(self):
        assert Polynomial.zero().is_zero
        assert Polynomial.zero() == 0

    def test_constant(self):
        p = Polynomial.constant(5)
        assert p.is_constant
        assert p.constant_value == 5

    def test_var(self):
        p = Polynomial.var(X)
        assert p.coefficient_of_symbol(X) == 1
        assert p.degree == 1

    def test_zero_coefficients_dropped(self):
        p = Polynomial({Monomial.of(X): 0})
        assert p.is_zero


class TestPolynomialArithmetic:
    def test_addition(self):
        p = Polynomial.var(X) + Polynomial.var(X) + 3
        assert p.coefficient_of_symbol(X) == 2
        assert p.constant_value == 3

    def test_subtraction_cancels(self):
        p = Polynomial.var(X) - Polynomial.var(X)
        assert p.is_zero

    def test_multiplication(self):
        p = (Polynomial.var(X) + 1) * (Polynomial.var(X) - 1)
        assert p == Polynomial.var(X) * Polynomial.var(X) - 1

    def test_multiplication_degree(self):
        p = Polynomial.var(X) * Polynomial.var(Y) * Polynomial.var(X)
        assert p.degree == 3

    def test_power(self):
        p = (Polynomial.var(X) + 1) ** 2
        assert p.coefficient(Monomial.of(X, 2)) == 1
        assert p.coefficient(Monomial.of(X)) == 2
        assert p.constant_value == 1

    def test_power_zero(self):
        assert (Polynomial.var(X) ** 0) == 1

    def test_scale_by_fraction(self):
        p = Polynomial.var(X).scale(Fraction(1, 2))
        assert p.coefficient_of_symbol(X) == Fraction(1, 2)

    def test_negation(self):
        p = -(Polynomial.var(X) + 2)
        assert p.coefficient_of_symbol(X) == -1
        assert p.constant_value == -2

    def test_rmul_int(self):
        p = 3 * Polynomial.var(X)
        assert p.coefficient_of_symbol(X) == 3


class TestPolynomialStructure:
    def test_is_linear(self):
        assert (Polynomial.var(X) + 2 * Polynomial.var(Y) + 1).is_linear
        assert not (Polynomial.var(X) * Polynomial.var(Y)).is_linear

    def test_symbols(self):
        p = Polynomial.var(X) * Polynomial.var(Y) + Polynomial.var(XP)
        assert p.symbols == frozenset({X, Y, XP})

    def test_split_linear(self):
        p = Polynomial.var(X) * Polynomial.var(X) + 2 * Polynomial.var(Y) + 7
        linear, constant, nonlinear = p.split_linear()
        assert linear == {Y: 2}
        assert constant == 7
        assert nonlinear == Polynomial.var(X) * Polynomial.var(X)

    def test_nonlinear_monomials(self):
        p = Polynomial.var(X) * Polynomial.var(Y) + Polynomial.var(X)
        monos = p.nonlinear_monomials()
        assert len(monos) == 1
        assert monos[0].degree == 2

    def test_linear_coefficients(self):
        p = 2 * Polynomial.var(X) - 3 * Polynomial.var(Y) + 5
        assert p.linear_coefficients() == {X: 2, Y: -3}


class TestSubstitutionEvaluation:
    def test_substitute_symbol(self):
        p = Polynomial.var(X) * Polynomial.var(X) + Polynomial.var(Y)
        q = p.substitute({X: Polynomial.var(Y) + 1})
        # (y+1)^2 + y = y^2 + 3y + 1
        assert q.coefficient(Monomial.of(Y, 2)) == 1
        assert q.coefficient(Monomial.of(Y)) == 3
        assert q.constant_value == 1

    def test_rename(self):
        p = Polynomial.var(X) + Polynomial.var(Y)
        q = p.rename({X: XP})
        assert q.coefficient_of_symbol(XP) == 1
        assert q.coefficient_of_symbol(X) == 0

    def test_evaluate(self):
        p = Polynomial.var(X) * Polynomial.var(X) - Polynomial.var(Y) + 1
        assert p.evaluate({X: 3, Y: 4}) == 6

    def test_evaluate_missing_symbol_raises(self):
        with pytest.raises(KeyError):
            Polynomial.var(X).evaluate({Y: 1})

    def test_evaluate_fraction(self):
        p = Polynomial.var(X).scale(Fraction(1, 3))
        assert p.evaluate({X: 1}) == Fraction(1, 3)


class TestEqualityHash:
    def test_equal_polynomials_hash_equal(self):
        p = Polynomial.var(X) + 1
        q = 1 + Polynomial.var(X)
        assert p == q
        assert hash(p) == hash(q)

    def test_constant_comparison_with_int(self):
        assert Polynomial.constant(3) == 3
        assert Polynomial.constant(3) != 4
