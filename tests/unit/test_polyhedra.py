"""Unit tests for the polyhedral domain: constraints, LP, projection, hulls."""

from fractions import Fraction

import pytest

from repro.formulas import Polynomial, sym
from repro.polyhedra import (
    ConstraintKind,
    LinearConstraint,
    Polyhedron,
    convex_hull,
    convex_hull_pair,
    eliminate,
    entails,
    is_satisfiable,
    maximize,
    weak_join,
)

X = sym("x")
Y = sym("y")
Z = sym("z")
PX, PY, PZ = Polynomial.var(X), Polynomial.var(Y), Polynomial.var(Z)


def le(poly):
    return LinearConstraint.le(poly)


def eq(poly):
    return LinearConstraint.eq(poly)


class TestLinearConstraint:
    def test_le_from_polynomial(self):
        c = le(PX - PY + 3)
        assert c.coefficient(X) == 1
        assert c.coefficient(Y) == -1
        assert c.constant == 3
        assert c.kind is ConstraintKind.LE

    def test_nonlinear_rejected(self):
        with pytest.raises(ValueError):
            le(PX * PY)

    def test_trivial_and_contradiction(self):
        assert LinearConstraint.make({}, -1).is_trivial
        assert LinearConstraint.make({}, 1).is_contradiction
        assert LinearConstraint.make({}, 0, ConstraintKind.EQ).is_trivial

    def test_make_divides_out_positive_factors(self):
        c = LinearConstraint.make({X: Fraction(4, 3), Y: -2}, Fraction(2, 3))
        assert c == LinearConstraint.make({X: 2, Y: -3}, 1)
        assert c.coeffs == ((X, 2), (Y, -3)) and c.constant == 1
        # The constant shares the gcd: 2x + 2 <= 0 is stored as x + 1 <= 0.
        assert LinearConstraint.make({X: 2}, 2) == LinearConstraint.make({X: 1}, 1)
        # A negative factor flips an inequality, so it is a different row.
        assert LinearConstraint.make({X: -2}, -2) != LinearConstraint.make({X: 1}, 1)

    def test_round_trip_atom(self):
        c = le(2 * PX - PY + 1)
        atom = c.to_atom()
        assert atom.polynomial == 2 * PX - PY + 1

    def test_evaluate(self):
        c = le(PX - PY)  # x <= y
        assert c.evaluate({X: 1, Y: 2})
        assert not c.evaluate({X: 3, Y: 2})

    def test_rename_merges(self):
        c = le(PX + PY)
        renamed = c.rename({Y: X})
        assert renamed == le(2 * PX)


class TestLp:
    def test_satisfiable_simple(self):
        assert is_satisfiable([le(PX - 10), le(-PX)])  # 0 <= x <= 10

    def test_unsatisfiable(self):
        assert not is_satisfiable([le(PX - 1), le(2 - PX)])  # x<=1 and x>=2

    def test_maximize_bounded(self):
        result = maximize({X: 1}, [le(PX - 7), le(-PX)])
        assert result.is_optimal
        assert result.value == 7

    def test_maximize_unbounded(self):
        result = maximize({X: 1}, [le(-PX)])
        assert result.is_unbounded

    def test_entails_basic(self):
        # x <= 3 and y <= x  entails  y <= 3
        assert entails([le(PX - 3), le(PY - PX)], le(PY - 3))
        assert not entails([le(PX - 3)], le(PX - 2))

    def test_entails_equality(self):
        assert entails([eq(PX - PY), le(PY - 5)], le(PX - 5))
        assert entails([eq(PX - 2)], eq(2 * PX - 4))

    def test_infeasible_entails_everything(self):
        assert entails([le(PX - 1), le(2 - PX)], le(PX - -100))

    def test_large_constants(self):
        # Relevant for the pow2_overflow benchmark (2^30 bound).
        big = 1073741824
        assert entails([le(PX - (big - 1))], le(PX - big))
        assert not entails([le(PX - big)], le(PX - (big - 1)))


class TestElimination:
    def test_equality_substitution(self):
        # y = x + 1, y <= 5   |-  x <= 4
        out = eliminate([eq(PY - PX - 1), le(PY - 5)], [Y])
        poly_out = Polyhedron(out)
        assert poly_out.entails(le(PX - 4))
        assert not poly_out.entails(le(PX - 3))

    def test_fourier_motzkin_combination(self):
        # x <= y, y <= z  |-  (eliminate y)  x <= z
        out = eliminate([le(PX - PY), le(PY - PZ)], [Y])
        assert Polyhedron(out).entails(le(PX - PZ))

    def test_eliminate_unconstrained_symbol(self):
        out = eliminate([le(PX - 1)], [Y])
        assert Polyhedron(out).entails(le(PX - 1))

    def test_eliminate_detects_contradiction(self):
        out = eliminate([le(PX - PY), le(PY - PX - -1), ], [Y])
        # x <= y and y <= x - 1 is contradictory
        assert Polyhedron(out).is_empty()

    def test_projection_keeps_remaining_relations(self):
        # x = y, y = z  |- (eliminate y)  x = z
        out = eliminate([eq(PX - PY), eq(PY - PZ)], [Y])
        poly_out = Polyhedron(out)
        assert poly_out.entails(eq(PX - PZ))


class TestPolyhedron:
    def test_universe_and_empty(self):
        assert Polyhedron.universe().is_universe
        assert not Polyhedron.universe().is_empty()
        assert Polyhedron.empty().is_empty()

    def test_meet(self):
        p = Polyhedron([le(PX - 5)]).meet(Polyhedron([le(3 - PX)]))
        assert not p.is_empty()
        assert p.entails(le(PX - 5))
        assert p.entails(le(3 - PX))

    def test_meet_contradiction(self):
        p = Polyhedron([le(PX - 1)]).meet(Polyhedron([le(2 - PX)]))
        assert p.is_empty()

    def test_project_onto(self):
        p = Polyhedron([eq(PY - PX - 1), le(PY - 10)])
        q = p.project_onto([X])
        assert q.entails(le(PX - 9))
        assert q.symbols <= frozenset({X})

    def test_entails_and_contains(self):
        small = Polyhedron([le(PX - 1), le(-PX)])
        big = Polyhedron([le(PX - 5), le(-PX - 1)])
        assert big.contains(small)
        assert not small.contains(big)

    def test_minimize_removes_redundant(self):
        p = Polyhedron([le(PX - 1), le(PX - 5)])
        m = p.minimize()
        assert len(m) == 1
        assert m.entails(le(PX - 1))

    def test_widen_keeps_stable_constraints(self):
        p = Polyhedron([le(PX - 1), le(-PX)])
        q = Polyhedron([le(PX - 2), le(-PX)])
        w = p.widen(q)
        assert w.entails(le(-PX))
        assert not w.entails(le(PX - 1))

    def test_to_formula_round_trip(self):
        p = Polyhedron([le(PX - 3)])
        formula = p.to_formula()
        assert "x" in str(formula)

    def test_equality_semantic(self):
        p = Polyhedron([le(PX - 3), le(PX - 5)])
        q = Polyhedron([le(PX - 3)])
        assert p == q


class TestHull:
    def test_hull_of_points(self):
        # {x = 0} join {x = 2}  ==  0 <= x <= 2
        p0 = Polyhedron([eq(PX)])
        p2 = Polyhedron([eq(PX - 2)])
        hull = convex_hull_pair(p0, p2)
        assert hull.entails(le(-PX))
        assert hull.entails(le(PX - 2))
        assert not hull.is_empty()

    def test_hull_with_empty(self):
        p = Polyhedron([le(PX - 1)])
        assert convex_hull_pair(p, Polyhedron.empty()) == p
        assert convex_hull_pair(Polyhedron.empty(), p) == p

    def test_hull_two_dimensional(self):
        # {x=0, 0<=y<=1} join {x=1, 0<=y<=1}: unit square
        left = Polyhedron([eq(PX), le(-PY), le(PY - 1)])
        right = Polyhedron([eq(PX - 1), le(-PY), le(PY - 1)])
        hull = convex_hull_pair(left, right)
        assert hull.entails(le(-PX))
        assert hull.entails(le(PX - 1))
        assert hull.entails(le(PY - 1))
        assert hull.entails(le(-PY))

    def test_hull_rotated_face(self):
        # {(0,0)} join {(1,1)} should include x = y (a constraint in neither).
        a = Polyhedron([eq(PX), eq(PY)])
        b = Polyhedron([eq(PX - 1), eq(PY - 1)])
        hull = convex_hull_pair(a, b)
        assert hull.entails(eq(PX - PY))

    def test_weak_join_is_sound_superset(self):
        a = Polyhedron([eq(PX), eq(PY)])
        b = Polyhedron([eq(PX - 1), eq(PY - 1)])
        weak = weak_join(a, b)
        exact = convex_hull_pair(a, b)
        assert weak.contains(exact)

    def test_hull_many(self):
        polys = [Polyhedron([eq(PX - i)]) for i in range(4)]
        hull = convex_hull(polys)
        assert hull.entails(le(-PX))
        assert hull.entails(le(PX - 3))

    def test_hull_unbounded(self):
        # {x >= 0, y = 0} join {x >= 0, y = x}: 0 <= y <= x
        a = Polyhedron([le(-PX), eq(PY)])
        b = Polyhedron([le(-PX), eq(PY - PX)])
        hull = convex_hull_pair(a, b)
        assert hull.entails(le(-PX))
        assert hull.entails(le(PY - PX))
        assert hull.entails(le(-PY))
