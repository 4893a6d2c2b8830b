"""Property-based guards for the optimised polyhedral hot path (hypothesis).

The hot-path optimisations (content-keyed memoization, equality presolve,
syntactic pruning) must never change what the polyhedral layer *computes*.
These properties pin the semantics down over randomly generated rational
constraint systems, checking membership on an integer grid (exact arithmetic,
no solver in the oracle):

* projection soundness — every point of the input system satisfies its
  Fourier–Motzkin projection;
* hull containment — the polyhedral join contains each of its arguments;
* minimization — ``minimize_constraints`` preserves the solution set exactly;
* memo determinism — cached and uncached projections are identical;
* representation — every constraint the layer returns is a gcd-primitive
  integer row, and positive rescaling of the input changes nothing;
* memoized LP answers — on systems of 13–30 rows, the memoized
  satisfiability and entailment queries answer exactly as the exact simplex
  does, cold and through the canonical-key memo tables.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.formulas import fresh, sym
from repro.polyhedra import (
    ConstraintKind,
    LinearConstraint,
    Polyhedron,
    cache_stats,
    clear_caches,
    convex_hull_pair,
    eliminate,
    entails,
    is_satisfiable,
    minimize_constraints,
)
from repro.polyhedra.simplex import exact_entails, exact_is_satisfiable

SYMBOLS = [sym(name) for name in ("x", "y", "z")]

#: Exact oracle: every integer point of a small grid.
GRID = [
    dict(zip(SYMBOLS, point))
    for point in itertools.product(range(-3, 4), repeat=len(SYMBOLS))
]


@st.composite
def constraints(draw, coefficients=st.integers(-3, 3), constants=st.integers(-4, 4)):
    coeffs = {
        symbol: Fraction(draw(coefficients))
        for symbol in draw(
            st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=3, unique=True)
        )
    }
    kind = draw(st.sampled_from([ConstraintKind.LE, ConstraintKind.LE, ConstraintKind.EQ]))
    return LinearConstraint.make(coeffs, Fraction(draw(constants)), kind)


@st.composite
def systems(draw, min_size=1, max_size=5):
    return draw(st.lists(constraints(), min_size=min_size, max_size=max_size))


def satisfies(system, point) -> bool:
    return all(constraint.evaluate(point) for constraint in system)


class TestProjectionSoundness:
    @settings(max_examples=60, deadline=None)
    @given(systems(), st.sampled_from(SYMBOLS))
    def test_grid_points_survive_projection(self, system, eliminated):
        projected = eliminate(system, [eliminated])
        for point in GRID:
            if satisfies(system, point):
                assert satisfies(projected, point), (
                    f"{point} satisfies the input but not its projection"
                )

    @settings(max_examples=40, deadline=None)
    @given(systems())
    def test_projection_mentions_no_eliminated_symbol(self, system):
        eliminated = SYMBOLS[0]
        projected = eliminate(system, [eliminated])
        for constraint in projected:
            assert eliminated not in constraint.symbols


class TestHullContainsArguments:
    @settings(max_examples=40, deadline=None)
    @given(systems(), systems())
    def test_join_contains_both_arguments(self, first, second):
        p = Polyhedron(first)
        q = Polyhedron(second)
        hull = convex_hull_pair(p, q)
        for point in GRID:
            inside_p = satisfies(first, point)
            inside_q = satisfies(second, point)
            if inside_p or inside_q:
                assert satisfies(hull.constraints, point), (
                    f"{point} is in an argument but not in the hull"
                )


class TestMinimizePreservesSolutions:
    @settings(max_examples=60, deadline=None)
    @given(systems(max_size=6))
    def test_solution_set_unchanged(self, system):
        minimized = minimize_constraints(system)
        for point in GRID:
            assert satisfies(system, point) == satisfies(minimized, point), (
                f"minimize changed membership of {point}"
            )


class TestProjectionMemoDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(systems(), st.sampled_from(SYMBOLS))
    def test_cached_equals_uncached(self, system, eliminated):
        clear_caches()
        cold = eliminate(system, [eliminated])
        warm = eliminate(system, [eliminated])  # served from the memo table
        assert cold == warm
        clear_caches()
        recomputed = eliminate(system, [eliminated])
        assert cold == recomputed

    @settings(max_examples=30, deadline=None)
    @given(systems())
    def test_fresh_symbol_renaming_shares_results(self, system):
        """Projection is equivariant under renaming: the canonical-key memo
        must return the correctly renamed result for a renamed copy."""
        mapping = {s: sym(f"renamed_{s.name}") for s in SYMBOLS}
        inverse = {v: k for k, v in mapping.items()}
        renamed = [c.rename(mapping) for c in system]
        clear_caches()
        direct = eliminate(system, [SYMBOLS[0]])
        via_renaming = [
            c.rename(inverse)
            for c in eliminate(renamed, [mapping[SYMBOLS[0]]])
        ]
        for point in GRID:
            assert satisfies(direct, point) == satisfies(via_renaming, point)


#: Small rationals, so rows reach ``make`` with real denominators.
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
positive_factors = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))


def rational_constraints():
    return constraints(coefficients=rationals, constants=rationals)


def assert_primitive(constraint):
    values = [c for _, c in constraint.coeffs] + [constraint.constant]
    assert all(type(v) is int for v in values), constraint
    assert all(c != 0 for _, c in constraint.coeffs), constraint
    assert math.gcd(*values) == 1 or not any(values), constraint
    names = [str(s) for s, _ in constraint.coeffs]
    assert names == sorted(names), constraint


def rescaled(constraint, factor):
    """``constraint`` with every entry multiplied by ``factor`` (rebuilt)."""
    return LinearConstraint.make(
        {s: c * factor for s, c in constraint.coeffs},
        constraint.constant * factor,
        constraint.kind,
    )


class TestPrimitiveRepresentation:
    @pytest.mark.parametrize("bad", [{"coeff": 0.5}, {"constant": 1.0}])
    def test_make_rejects_floats(self, bad):
        coeffs = {SYMBOLS[0]: bad.get("coeff", 1)}
        with pytest.raises(TypeError):
            LinearConstraint.make(coeffs, bad.get("constant", 0))

    @settings(max_examples=60, deadline=None)
    @given(rational_constraints(), positive_factors)
    def test_make_is_invariant_under_positive_rescaling(self, constraint, factor):
        assert_primitive(constraint)
        assert rescaled(constraint, factor) == constraint

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(rational_constraints(), min_size=1, max_size=5),
        st.dictionaries(st.sampled_from(SYMBOLS), st.sampled_from(SYMBOLS)),
    )
    def test_rename_returns_primitive_rows(self, system, mapping):
        for constraint in system:
            renamed = constraint.rename(mapping)
            assert_primitive(renamed)
            expected = {}
            for s, c in constraint.coeffs:
                target = mapping.get(s, s)
                expected[target] = expected.get(target, 0) + c
            assert renamed == LinearConstraint.make(
                expected, constraint.constant, constraint.kind
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(rational_constraints(), min_size=1, max_size=5),
        st.lists(rational_constraints(), min_size=1, max_size=5),
        st.sampled_from(SYMBOLS),
    )
    def test_projection_minimization_and_hull_return_primitive_rows(
        self, first, second, eliminated
    ):
        clear_caches()
        outputs = [
            *eliminate(first, [eliminated]),
            *minimize_constraints(first),
            *convex_hull_pair(Polyhedron(first), Polyhedron(second)).constraints,
        ]
        for constraint in outputs:
            assert_primitive(constraint)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(rational_constraints(), positive_factors), min_size=1, max_size=5
        ),
        st.sampled_from(SYMBOLS),
    )
    def test_row_rescaling_changes_no_result(self, rows, eliminated):
        system = [constraint for constraint, _ in rows]
        scaled = [rescaled(constraint, factor) for constraint, factor in rows]
        clear_caches()
        projected = eliminate(system, [eliminated])
        minimized = minimize_constraints(system)
        clear_caches()
        assert eliminate(scaled, [eliminated]) == projected
        assert minimize_constraints(scaled) == minimized


#: Symbols of the LP-sized systems; fresh copies keep their string order, so
#: a renamed system has the same canonical memo key as the original.
LP_SYMBOLS = [sym(name) for name in ("a", "b", "c", "d")]
LP_TABLES = ("lp.is_satisfiable", "lp.entails")


@st.composite
def lp_systems(draw):
    """13–30 rows over 3–4 symbols that one integer point satisfies; when the
    drawn flag says so, the last row contradicts an earlier one."""
    symbols = LP_SYMBOLS[: draw(st.integers(3, 4))]
    point = {s: draw(st.integers(-3, 3)) for s in symbols}
    size = draw(st.integers(13, 30))
    rows = []
    for _ in range(size):
        coeffs = {s: draw(st.integers(-4, 4)) for s in symbols}
        value = sum(c * point[s] for s, c in coeffs.items())
        kind = draw(st.sampled_from([ConstraintKind.LE] * 3 + [ConstraintKind.EQ]))
        slack = 0 if kind is ConstraintKind.EQ else draw(st.integers(0, 3))
        rows.append(LinearConstraint.make(coeffs, -value - slack, kind))
    if draw(st.booleans()):
        # t + k <= 0 (or == 0) holds; t + k >= 1 cannot hold with it.
        row = rows[draw(st.integers(0, size - 2))]
        rows[-1] = LinearConstraint.make(
            {s: -c for s, c in row.coeffs}, 1 - row.constant
        )
    return symbols, rows


@st.composite
def lp_candidates(draw, symbols, system):
    """LE and EQ candidates, a loosened system row, and ``1 <= 0``."""
    candidates = [LinearConstraint.make({}, 1)]
    for kind in (ConstraintKind.LE, ConstraintKind.LE, ConstraintKind.EQ):
        coeffs = {s: draw(st.integers(-3, 3)) for s in symbols}
        candidates.append(
            LinearConstraint.make(coeffs, draw(st.integers(-8, 8)), kind)
        )
    row = draw(st.sampled_from(system))
    candidates.append(
        LinearConstraint.make(row.coeff_map, row.constant - draw(st.integers(0, 2)))
    )
    return [c for c in candidates if not c.is_trivial]


class TestMemoizedLpMatchesExactSolver:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_cold_and_renamed_answers_match(self, data):
        symbols, system = data.draw(lp_systems())
        candidates = data.draw(lp_candidates(symbols, system))
        expected = [exact_is_satisfiable(system)] + [
            exact_entails(system, c) for c in candidates
        ]

        def answers(rows, queries):
            return [is_satisfiable(rows)] + [entails(rows, c) for c in queries]

        clear_caches()
        assert answers(system, candidates) == expected
        misses = {table: cache_stats()[table]["misses"] for table in LP_TABLES}
        renaming = {s: fresh(s.name) for s in symbols}
        renamed = answers(
            [c.rename(renaming) for c in system],
            [c.rename(renaming) for c in candidates],
        )
        assert renamed == expected
        # Every renamed query was answered from the tables the cold pass filled.
        assert {table: cache_stats()[table]["misses"] for table in LP_TABLES} == misses
