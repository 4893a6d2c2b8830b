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
  does, cold and through the canonical-key memo tables;
* the int-row kernel — ``eliminate`` and ``minimize_constraints`` return
  the rows, in the order, of a symbol-keyed reference copy of the loop they
  replaced, including Imbert pruning, the minimization re-entry and the
  blow-up cap.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.formulas import fresh, post, sym
from repro.formulas.symbols import Symbol
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
from repro.polyhedra.constraint import combine
from repro.polyhedra.fourier_motzkin import BLOWUP_LIMIT, MINIMIZE_THRESHOLD
from repro.polyhedra.lp import entails as lp_entails
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


# --------------------------------------------------------------------- #
# Reference: the symbol-keyed elimination loop the int-row kernel
# replaced, kept verbatim in logic.  Column order is symbol-string order,
# so every order-dependent choice (pivot, defining equality, greedy
# minimization order, tie-breaks) must come out the same on int rows.
# --------------------------------------------------------------------- #
class _Tracked:
    __slots__ = ("constraint", "history", "eliminated")

    def __init__(self, constraint, history, eliminated):
        self.constraint = constraint
        self.history = history
        self.eliminated = eliminated


def _imbert_redundant(history, eliminated):
    return history.bit_count() > 1 + eliminated.bit_count()


def _reference_contradiction():
    return LinearConstraint.make({}, 1, ConstraintKind.LE)


def _reference_interval_contradiction(constraints):
    lower, upper = {}, {}

    def less(first, second):
        return first[0] * second[1] < second[0] * first[1]

    for constraint in constraints:
        if len(constraint.coeffs) != 1:
            continue
        symbol, coeff = constraint.coeffs[0]
        if coeff > 0:
            bound = (-constraint.constant, coeff)
        else:
            bound = (constraint.constant, -coeff)
        if constraint.kind is ConstraintKind.EQ:
            is_upper = is_lower = True
        else:
            is_upper = coeff > 0
            is_lower = not is_upper
        if is_upper and (symbol not in upper or less(bound, upper[symbol])):
            upper[symbol] = bound
        if is_lower and (symbol not in lower or less(lower[symbol], bound)):
            lower[symbol] = bound
    return any(
        symbol in upper and less(upper[symbol], low) for symbol, low in lower.items()
    )


def _reference_clean(tracked):
    seen = {}
    for t in tracked:
        constraint = t.constraint
        if constraint.is_contradiction:
            return None
        if constraint.is_trivial:
            continue
        coeffs = constraint.coeffs
        divisor = math.gcd(*(c for _, c in coeffs))
        if divisor > 1:
            coeffs = tuple((s, c // divisor) for s, c in coeffs)
        key = (coeffs, constraint.kind)
        existing = seen.get(key)
        if existing is None:
            seen[key] = (t, divisor)
            continue
        kept, kept_divisor = existing
        difference = (
            constraint.constant * kept_divisor - kept.constraint.constant * divisor
        )
        if constraint.kind is ConstraintKind.EQ and difference != 0:
            return None
        if difference > 0 or (
            difference == 0 and t.history.bit_count() < kept.history.bit_count()
        ):
            seen[key] = (t, divisor)
    result = [t for t, _ in seen.values()]
    if _reference_interval_contradiction([t.constraint for t in result]):
        return None
    return result


def _reference_pick_symbol(constraints, candidates):
    best = best_cost = None
    for symbol in candidates:
        pos = neg = 0
        has_eq = False
        for constraint in constraints:
            coeff = constraint.coefficient(symbol)
            if coeff == 0:
                continue
            if constraint.kind is ConstraintKind.EQ:
                has_eq = True
                break
            if coeff > 0:
                pos += 1
            else:
                neg += 1
        cost = -1 if has_eq else pos * neg
        if best_cost is None or cost < best_cost:
            best, best_cost = symbol, cost
            if cost == -1:
                break
    return best


def _reference_substitute_equality(tracked, symbol, symbol_bit, equality):
    eq_constraint = equality.constraint
    coeff = eq_constraint.coefficient(symbol)
    sign = 1 if coeff > 0 else -1
    result = []
    for t in tracked:
        if t is equality:
            continue
        constraint = t.constraint
        c = constraint.coefficient(symbol)
        if c == 0:
            result.append(t)
            continue
        history = t.history | equality.history
        eliminated = t.eliminated | equality.eliminated | symbol_bit
        if constraint.kind is ConstraintKind.LE and _imbert_redundant(
            history, eliminated
        ):
            continue
        combined = combine(
            constraint, abs(coeff), eq_constraint, -sign * c, constraint.kind
        )
        result.append(_Tracked(combined, history, eliminated))
    return result


def _reference_fourier_motzkin_step(tracked, symbol, symbol_bit):
    positives, negatives, untouched = [], [], []
    for t in tracked:
        coeff = t.constraint.coefficient(symbol)
        if coeff == 0:
            untouched.append(t)
        elif coeff > 0:
            positives.append(t)
        else:
            negatives.append(t)
    if len(positives) * len(negatives) + len(untouched) > BLOWUP_LIMIT:
        return untouched
    result = untouched
    for pos in positives:
        cp = pos.constraint.coefficient(symbol)
        for neg in negatives:
            history = pos.history | neg.history
            eliminated = pos.eliminated | neg.eliminated | symbol_bit
            if _imbert_redundant(history, eliminated):
                continue
            cn = neg.constraint.coefficient(symbol)
            combined = combine(
                pos.constraint, -cn, neg.constraint, cp, ConstraintKind.LE
            )
            result.append(_Tracked(combined, history, eliminated))
    return result


def _reference_minimize_tracked(tracked):
    best = {}
    for t in tracked:
        existing = best.get(t.constraint)
        if existing is None or t.history.bit_count() < existing.history.bit_count():
            best[t.constraint] = t
    minimized = reference_minimize([t.constraint for t in tracked])
    return [best.get(c) or _Tracked(c, 0, 0) for c in minimized]


def _reference_minimize_core(kept):
    index = 0
    while index < len(kept):
        candidate = kept[index]
        rest = kept[:index] + kept[index + 1 :]
        if rest and lp_entails(rest, candidate):
            kept = rest
        else:
            index += 1
    return kept


def reference_minimize(constraints):
    tracked = _reference_clean([_Tracked(c, 0, 0) for c in constraints])
    if tracked is None:
        return [_reference_contradiction()]
    cleaned = [t.constraint for t in tracked]
    if len(cleaned) <= 1:
        return cleaned
    return _reference_minimize_core(cleaned)


def reference_eliminate(constraints, symbols, minimize_threshold):
    cleaned = _reference_clean([_Tracked(c, 0, 0) for c in constraints])
    if cleaned is None:
        return [_reference_contradiction()]
    current = [t.constraint for t in cleaned]
    remaining = [
        s for s in dict.fromkeys(symbols) if any(c.coefficient(s) != 0 for c in current)
    ]
    if not remaining:
        return current
    tracked = [_Tracked(c, 1 << i, 0) for i, c in enumerate(current)]
    symbol_bits = {s: 1 << i for i, s in enumerate(remaining)}
    while remaining:
        symbol = _reference_pick_symbol([t.constraint for t in tracked], remaining)
        remaining.remove(symbol)
        if not any(t.constraint.coefficient(symbol) != 0 for t in tracked):
            continue
        equality = next(
            (
                t
                for t in tracked
                if t.constraint.kind is ConstraintKind.EQ
                and t.constraint.coefficient(symbol) != 0
            ),
            None,
        )
        if equality is not None:
            tracked = _reference_substitute_equality(
                tracked, symbol, symbol_bits[symbol], equality
            )
        else:
            tracked = _reference_fourier_motzkin_step(
                tracked, symbol, symbol_bits[symbol]
            )
        tracked = _reference_clean(tracked)
        if tracked is None:
            return [_reference_contradiction()]
        if len(tracked) > minimize_threshold:
            tracked = _reference_minimize_tracked(tracked)
    return [t.constraint for t in tracked]


#: Program symbols plus fresh ones whose string order ("t#10" < "t#9") is
#: not their index order.
KERNEL_SYMBOLS = [
    sym("x"),
    sym("y"),
    sym("z"),
    post("x"),
    Symbol("t", False, 9),
    Symbol("t", False, 10),
]
X, Y, Z, X_POST = KERNEL_SYMBOLS[:4]

#: x + k*y <= k and -x + k*z <= k for k = 1..25: eliminating x pairs 25
#: positive with 25 negative rows, past BLOWUP_LIMIT.
BLOWUP_SYSTEM = [
    LinearConstraint.make({X: 1, Y: k}, -k) for k in range(1, 26)
] + [LinearConstraint.make({X: -1, Z: k}, -k) for k in range(1, 26)]

#: Eliminating x' and then x combines rows derived in the first step; two of
#: those combinations exceed Imbert's bound and are pruned.
IMBERT_SYSTEM = [
    LinearConstraint.make({X: -2, X_POST: 1}, 0),
    LinearConstraint.make({X: -1, X_POST: -2, Z: 1}, 0),
    LinearConstraint.make({X: 1, X_POST: -1}, 0),
    LinearConstraint.make({X: 1, X_POST: 1}, 0),
]


@st.composite
def elimination_cases(draw):
    """2–14 rows over 3–6 symbols, an ordered subset of them to eliminate,
    and a minimization threshold low enough to re-enter minimization.

    Rows are built around one integer point, mostly with slack, so most
    systems are non-empty and elimination runs several steps deep; a
    negative slack or a shifted equality can still empty a system.
    """
    symbols = draw(
        st.lists(st.sampled_from(KERNEL_SYMBOLS), min_size=3, max_size=6, unique=True)
    )
    point = {s: draw(st.integers(-2, 2)) for s in symbols}
    rows = []
    for _ in range(draw(st.integers(2, 14))):
        mentioned = draw(
            st.lists(st.sampled_from(symbols), min_size=2, max_size=4, unique=True)
        )
        coeffs = {s: draw(st.integers(-3, 3)) for s in mentioned}
        kind = draw(st.sampled_from([ConstraintKind.LE] * 5 + [ConstraintKind.EQ]))
        value = sum(c * point[s] for s, c in coeffs.items())
        if kind is ConstraintKind.EQ:
            offset = draw(st.sampled_from([0, 0, 0, 1]))
        else:
            offset = draw(st.integers(-1, 3))
        rows.append(LinearConstraint.make(coeffs, -value - offset, kind))
    targets = draw(st.lists(st.sampled_from(symbols), min_size=2, unique=True))
    threshold = draw(st.one_of(st.integers(2, 8), st.just(MINIMIZE_THRESHOLD)))
    return rows, targets, threshold


class TestKernelMatchesSymbolKeyedReference:
    @settings(max_examples=150, deadline=None)
    @given(elimination_cases())
    @example((BLOWUP_SYSTEM, [X], MINIMIZE_THRESHOLD))
    @example((IMBERT_SYSTEM, [X_POST, X], MINIMIZE_THRESHOLD))
    def test_eliminate_and_minimize_return_the_reference_rows(self, case):
        system, targets, threshold = case
        expected = reference_eliminate(system, targets, threshold)
        minimized = reference_minimize(system)
        clear_caches()
        for _ in range(2):  # cold, then from the memo tables
            assert eliminate(system, targets, threshold) == expected
            assert minimize_constraints(system) == minimized
