"""Differential properties: fraction-free integer simplex vs Fraction oracle.

The production solver (:mod:`repro.polyhedra.simplex`) runs a fraction-free
integer tableau.  This module keeps a self-contained copy of the previous
``Fraction``-based dense tableau as an independent oracle and pins the two
against each other on random LPs: statuses must match exactly and optimal
values must be equal as exact rationals.  Feasibility, boundedness and the
optimum of an LP are properties of the problem, not of the tableau
representation, so any divergence is a bug in one of the solvers.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.formulas.symbols import Symbol
from repro.polyhedra.constraint import ConstraintKind, LinearConstraint
from repro.polyhedra.simplex import exact_entails, exact_is_satisfiable, exact_maximize

# --------------------------------------------------------------------- #
# The oracle: the pre-rewrite dense Fraction tableau (two-phase simplex,
# Bland's rule), trimmed to what the tests need.  Kept verbatim in spirit:
# same standard form, same pivot rules, per-cell Fraction arithmetic.
# --------------------------------------------------------------------- #
class _FractionTableau:
    def __init__(self, rows, rhs, basis):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.ncols = len(rows[0]) if rows else 0

    def pivot(self, row, col):
        pivot_value = self.rows[row][col]
        if pivot_value != 1:
            inv = Fraction(1) / pivot_value
            self.rows[row] = [a * inv if a else a for a in self.rows[row]]
            self.rhs[row] *= inv
        pivot_row = self.rows[row]
        for r in range(len(self.rows)):
            if r == row:
                continue
            factor = self.rows[r][col]
            if factor == 0:
                continue
            self.rows[r] = [
                a - factor * p if p else a for a, p in zip(self.rows[r], pivot_row)
            ]
            self.rhs[r] -= factor * self.rhs[row]
        self.basis[row] = col

    def optimize(self, objective, allowed):
        obj_row = list(objective)
        obj_value = Fraction(0)
        for i, basic_col in enumerate(self.basis):
            coeff = obj_row[basic_col]
            if coeff == 0:
                continue
            obj_row = [
                a - coeff * b if b else a for a, b in zip(obj_row, self.rows[i])
            ]
            obj_value -= coeff * self.rhs[i]
        while True:
            entering = None
            for col in range(self.ncols):
                if col in allowed and obj_row[col] > 0:
                    entering = col
                    break
            if entering is None:
                return "optimal", -obj_value
            leaving = None
            best_ratio = None
            for row in range(len(self.rows)):
                a = self.rows[row][entering]
                if a > 0:
                    ratio = self.rhs[row] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[row] < self.basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = row
            if leaving is None:
                return "unbounded", Fraction(0)
            coeff = obj_row[entering]
            self.pivot(leaving, entering)
            obj_row = [
                a - coeff * b if b else a
                for a, b in zip(obj_row, self.rows[leaving])
            ]
            obj_value -= coeff * self.rhs[leaving]


def _reference_standard_form(objective, constraints):
    symbols = sorted(
        {s for c in constraints for s in c.symbols} | set(objective.keys()), key=str
    )
    index = {s: i for i, s in enumerate(symbols)}
    n_free = len(symbols)
    n_slack = sum(1 for c in constraints if c.kind is ConstraintKind.LE)
    ncols = 2 * n_free + n_slack
    rows, rhs = [], []
    slack_cursor = 0
    for constraint in constraints:
        row = [Fraction(0)] * ncols
        for s, c in constraint.coeffs:
            j = index[s]
            row[2 * j] += c
            row[2 * j + 1] -= c
        if constraint.kind is ConstraintKind.LE:
            row[2 * n_free + slack_cursor] = Fraction(1)
            slack_cursor += 1
        rows.append(row)
        rhs.append(-constraint.constant)
    obj = [Fraction(0)] * ncols
    for s, c in objective.items():
        j = index[s]
        obj[2 * j] += Fraction(c)
        obj[2 * j + 1] -= Fraction(c)
    return rows, rhs, obj, ncols


def reference_maximize(objective, constraints):
    """The old solver, minus the equality presolve (pure two-phase simplex).

    Skipping the presolve makes the oracle maximally independent of the
    production code path: equalities reach the tableau untouched.
    Returns ``(status, value)``.
    """
    nontrivial = []
    for constraint in constraints:
        if constraint.is_contradiction:
            return "infeasible", None
        if not constraint.is_trivial:
            nontrivial.append(constraint)
    objective = {s: Fraction(c) for s, c in objective.items() if Fraction(c) != 0}
    if not nontrivial:
        if not objective:
            return "optimal", Fraction(0)
        return "unbounded", None
    rows, rhs, obj, ncols = _reference_standard_form(objective, nontrivial)
    nrows = len(rows)
    total_cols = ncols + nrows
    tab_rows, tab_rhs, basis = [], [], []
    for i in range(nrows):
        row = list(rows[i])
        b = rhs[i]
        if b < 0:
            row = [-a for a in row]
            b = -b
        row.extend(Fraction(0) for _ in range(nrows))
        row[ncols + i] = Fraction(1)
        tab_rows.append(row)
        tab_rhs.append(b)
        basis.append(ncols + i)
    tableau = _FractionTableau(tab_rows, tab_rhs, basis)
    phase1 = [Fraction(0)] * total_cols
    for i in range(nrows):
        phase1[ncols + i] = Fraction(-1)
    status, value = tableau.optimize(phase1, allowed=set(range(total_cols)))
    if status != "optimal" or value < 0:
        return "infeasible", None
    for i in range(nrows):
        if tableau.basis[i] >= ncols:
            pivot_col = next(
                (j for j in range(ncols) if tableau.rows[i][j] != 0), None
            )
            if pivot_col is not None:
                tableau.pivot(i, pivot_col)
    phase2 = list(obj) + [Fraction(0)] * nrows
    status, value = tableau.optimize(phase2, allowed=set(range(ncols)))
    if status == "unbounded":
        return "unbounded", None
    return "optimal", value


# --------------------------------------------------------------------- #
# Random LP generation
# --------------------------------------------------------------------- #
SYMBOLS = [Symbol(name) for name in ("x", "y", "z", "w")]

#: Rationals with small numerators and denominators, so the entry scaling
#: (common-denominator multiplication) is genuinely exercised.
fractions = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 4)
)


#: Numerators around ±2^63, mixed with small rationals, so the bignum
#: tableau is checked at magnitudes beyond any fixed-width integer.
_near_int64 = st.one_of(
    st.integers(-(2**63) - 4, -(2**63 - 4)),
    st.integers(2**63 - 4, 2**63 + 4),
    st.integers(-(2**61), 2**61),
)

extreme_fractions = st.one_of(
    fractions,
    st.builds(Fraction, _near_int64, st.integers(1, 3)),
)


@st.composite
def linear_constraints(draw, values=fractions):
    coeffs = {
        symbol: draw(values)
        for symbol in draw(
            st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3, unique=True)
        )
    }
    kind = draw(
        st.sampled_from([ConstraintKind.LE, ConstraintKind.LE, ConstraintKind.EQ])
    )
    return LinearConstraint.make(coeffs, draw(values), kind)


@st.composite
def lp_problems(draw, values=fractions):
    constraints = draw(st.lists(linear_constraints(values), min_size=1, max_size=6))
    objective = {
        symbol: draw(values)
        for symbol in draw(
            st.lists(st.sampled_from(SYMBOLS), min_size=0, max_size=3, unique=True)
        )
    }
    return objective, constraints


class TestIntegerTableauMatchesFractionOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(lp_problems(), lp_problems(extreme_fractions)))
    def test_maximize_round_trip(self, problem):
        objective, constraints = problem
        expected_status, expected_value = reference_maximize(objective, constraints)
        result = exact_maximize(objective, constraints)
        assert result.status == expected_status
        if expected_status == "optimal":
            assert result.value == expected_value
            assert isinstance(result.value, Fraction)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(linear_constraints(), min_size=1, max_size=6))
    def test_satisfiability_round_trip(self, constraints):
        status, _ = reference_maximize({}, constraints)
        assert exact_is_satisfiable(constraints) == (status != "infeasible")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(linear_constraints(), min_size=1, max_size=5), linear_constraints())
    def test_entailment_round_trip(self, constraints, candidate):
        """``C |= t + d <= 0``  iff  ``sup t <= -d`` (or C is infeasible)."""
        if candidate.kind is ConstraintKind.EQ:
            candidate = LinearConstraint.make(
                candidate.coeff_map, candidate.constant, ConstraintKind.LE
            )
        status, value = reference_maximize(candidate.coeff_map, constraints)
        if status == "infeasible":
            expected = True
        elif status == "unbounded":
            expected = False
        else:
            expected = value <= -candidate.constant
        assert exact_entails(constraints, candidate) == expected

    @settings(max_examples=100, deadline=None)
    @given(lp_problems())
    def test_optimum_is_attained_and_tight(self, problem):
        """An optimal value must be attainable up to entailment: the system
        must entail ``objective <= value`` but not ``objective <= value - 1``."""
        objective, constraints = problem
        result = exact_maximize(objective, constraints)
        if not result.is_optimal or not objective:
            return
        upper = LinearConstraint.make(
            dict(objective), -result.value, ConstraintKind.LE
        )
        tighter = LinearConstraint.make(
            dict(objective), -result.value + 1, ConstraintKind.LE
        )
        assert exact_entails(constraints, upper)
        assert not exact_entails(constraints, tighter)
