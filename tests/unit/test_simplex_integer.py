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

import pytest
from hypothesis import given, settings, strategies as st

from repro.formulas.symbols import Symbol
from repro.polyhedra.constraint import ConstraintKind, LinearConstraint
from repro.polyhedra import simplex
from repro.polyhedra.simplex import (
    exact_entails,
    exact_is_satisfiable,
    exact_maximize,
    int64_available,
    kernel_stats,
    reset_kernel_stats,
    set_simplex_kernel,
    simplex_kernel,
)

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


@st.composite
def linear_constraints(draw):
    coeffs = {
        symbol: draw(fractions)
        for symbol in draw(
            st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3, unique=True)
        )
    }
    kind = draw(
        st.sampled_from([ConstraintKind.LE, ConstraintKind.LE, ConstraintKind.EQ])
    )
    return LinearConstraint.make(coeffs, draw(fractions), kind)


@st.composite
def lp_problems(draw):
    constraints = draw(st.lists(linear_constraints(), min_size=1, max_size=6))
    objective = {
        symbol: draw(fractions)
        for symbol in draw(
            st.lists(st.sampled_from(SYMBOLS), min_size=0, max_size=3, unique=True)
        )
    }
    return objective, constraints


class TestIntegerTableauMatchesFractionOracle:
    @settings(max_examples=200, deadline=None)
    @given(lp_problems())
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


# --------------------------------------------------------------------- #
# int64 fast path vs bignum path.  Both run the same pivot sequence; the
# only difference is the cell representation, so every status and value
# must agree exactly — including on coefficients scaled to straddle the
# int64 range, where the overflow guard must hand the LP to bignum.
# --------------------------------------------------------------------- #
#: Numerators around ±2^63: after common-denominator scaling these land on
#: both sides of the kernel's safety bound, so Hypothesis explores the
#: accept / construction-fallback / pivot-fallback frontier.
_near_int64 = st.one_of(
    st.integers(-(2**63) - 4, -(2**63 - 4)),
    st.integers(2**63 - 4, 2**63 + 4),
    st.integers(-(2**61), 2**61),
)

#: Small rationals mixed with near-boundary ones: small cells make the
#: int64 path actually run, huge cells make the guard actually fire.
extreme_fractions = st.one_of(
    fractions,
    st.builds(Fraction, _near_int64, st.integers(1, 3)),
)


@st.composite
def extreme_constraints(draw):
    coeffs = {
        symbol: draw(extreme_fractions)
        for symbol in draw(
            st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3, unique=True)
        )
    }
    kind = draw(
        st.sampled_from([ConstraintKind.LE, ConstraintKind.LE, ConstraintKind.EQ])
    )
    return LinearConstraint.make(coeffs, draw(extreme_fractions), kind)


@st.composite
def extreme_lp_problems(draw):
    constraints = draw(st.lists(extreme_constraints(), min_size=1, max_size=6))
    objective = {
        symbol: draw(extreme_fractions)
        for symbol in draw(
            st.lists(st.sampled_from(SYMBOLS), min_size=0, max_size=3, unique=True)
        )
    }
    return objective, constraints


@pytest.fixture
def kernel_mode():
    """Pin, then restore, the process-wide kernel selection."""
    previous = simplex_kernel()
    yield set_simplex_kernel
    set_simplex_kernel(previous)


def _under_kernel(mode, function):
    previous = set_simplex_kernel(mode)
    try:
        return function()
    finally:
        set_simplex_kernel(previous)


needs_int64 = pytest.mark.skipif(
    not int64_available(), reason="numpy-backed int64 kernel not available"
)


@needs_int64
class TestInt64KernelMatchesBignum:
    @settings(max_examples=200, deadline=None)
    @given(extreme_lp_problems())
    def test_maximize_agrees(self, problem):
        objective, constraints = problem
        expected = _under_kernel("bignum", lambda: exact_maximize(objective, constraints))
        result = _under_kernel("int64", lambda: exact_maximize(objective, constraints))
        assert result.status == expected.status
        assert result.value == expected.value

    @settings(max_examples=150, deadline=None)
    @given(st.lists(extreme_constraints(), min_size=1, max_size=6))
    def test_satisfiability_agrees(self, constraints):
        expected = _under_kernel("bignum", lambda: exact_is_satisfiable(constraints))
        assert _under_kernel("int64", lambda: exact_is_satisfiable(constraints)) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(extreme_constraints(), min_size=1, max_size=5), extreme_constraints()
    )
    def test_entailment_agrees(self, constraints, candidate):
        expected = _under_kernel("bignum", lambda: exact_entails(constraints, candidate))
        assert _under_kernel("int64", lambda: exact_entails(constraints, candidate)) == expected

    @settings(max_examples=150, deadline=None)
    @given(lp_problems())
    def test_small_lps_agree_with_fraction_oracle_under_int64(self, problem):
        """Close the triangle: int64 must also match the Fraction oracle."""
        objective, constraints = problem
        expected_status, expected_value = reference_maximize(objective, constraints)
        result = _under_kernel("int64", lambda: exact_maximize(objective, constraints))
        assert result.status == expected_status
        if expected_status == "optimal":
            assert result.value == expected_value


@needs_int64
class TestOverflowFallback:
    #: Feasible, bounded chain LP with modest coefficients — solvable by
    #: either kernel, so the fallback's answer can be pinned exactly.
    def _chain_problem(self):
        xs = SYMBOLS[:3]
        constraints = []
        for a, b in zip(xs, xs[1:]):
            constraints.append(LinearConstraint.make({a: 1, b: -1}))
            constraints.append(LinearConstraint.make({b: 1, a: -1}, -3))
        for x in xs:
            constraints.append(LinearConstraint.make({x: 1}, -9))
            constraints.append(LinearConstraint.make({x: -1}, 0))
        objective = {x: Fraction(1) for x in xs}
        return objective, constraints

    def test_construction_overflow_falls_back(self, kernel_mode):
        """Coefficients beyond the bound never enter the int64 matrix."""
        kernel_mode("int64")
        objective, constraints = self._chain_problem()
        # A redundant row (x, y <= 9 already imply it) whose entries are
        # coprime, so even its gcd-primitive form exceeds the int64 bound.
        x, y = SYMBOLS[:2]
        constraints.append(
            LinearConstraint.make({x: 2**62 + 1, y: -(2**62)}, -(2**66))
        )
        assert max(abs(c) for _, c in constraints[-1].coeffs) >= 2**62
        reset_kernel_stats()
        result = exact_maximize(objective, constraints)
        stats = kernel_stats()
        assert stats["fallbacks"] >= 1
        assert stats["bignum"] >= 1
        assert stats["int64"] == 0
        expected = _under_kernel(
            "bignum", lambda: exact_maximize(objective, constraints)
        )
        assert (result.status, result.value) == (expected.status, expected.value)

    def test_pivot_overflow_detector_fires(self, kernel_mode, monkeypatch):
        """With the safety bound squeezed, mid-pivot growth must be caught
        and the whole tableau restarted on the bignum path — same answer."""
        kernel_mode("int64")
        objective, constraints = self._chain_problem()
        expected = _under_kernel(
            "bignum", lambda: exact_maximize(objective, constraints)
        )
        # Small enough that pivot products trip it, large enough that the
        # starting cells (<= 9) pass construction.
        monkeypatch.setattr(simplex, "_INT64_SAFE", 12)
        reset_kernel_stats()
        result = exact_maximize(objective, constraints)
        stats = kernel_stats()
        assert stats["fallbacks"] >= 1
        assert stats["int64"] == 0
        assert (result.status, result.value) == (expected.status, expected.value)

    def test_forced_int64_succeeds_without_fallback_on_small_cells(self, kernel_mode):
        kernel_mode("int64")
        objective, constraints = self._chain_problem()
        reset_kernel_stats()
        expected = _under_kernel(
            "bignum", lambda: exact_maximize(objective, constraints)
        )
        result = exact_maximize(objective, constraints)
        stats = kernel_stats()
        assert stats["int64"] >= 1
        assert stats["fallbacks"] == 0
        assert (result.status, result.value) == (expected.status, expected.value)


class TestKernelSelection:
    def test_set_kernel_returns_previous_and_validates(self, kernel_mode):
        previous = simplex_kernel()
        assert set_simplex_kernel("bignum") == previous
        assert simplex_kernel() == "bignum"
        with pytest.raises(ValueError):
            set_simplex_kernel("float128")
        assert simplex_kernel() == "bignum"

    def test_bignum_mode_never_touches_numpy(self, kernel_mode):
        kernel_mode("bignum")
        reset_kernel_stats()
        objective = {SYMBOLS[0]: Fraction(1)}
        constraints = [LinearConstraint.make({SYMBOLS[0]: 1}, -5)]
        exact_maximize(objective, constraints)
        stats = kernel_stats()
        assert stats["int64"] == 0
        assert stats["bignum"] >= 1

    @needs_int64
    def test_auto_mode_routes_small_tableaus_to_bignum(self, kernel_mode):
        """Below the cell floor the vectorisation overhead is a loss, so
        ``auto`` keeps tiny LPs on the plain path."""
        kernel_mode("auto")
        reset_kernel_stats()
        objective = {SYMBOLS[0]: Fraction(1)}
        constraints = [LinearConstraint.make({SYMBOLS[0]: 1}, -5)]
        exact_maximize(objective, constraints)
        assert kernel_stats()["int64"] == 0
