"""Property-based tests (hypothesis) for the core data structures.

These check algebraic invariants of the substrates the analysis is built on:
polynomial arithmetic, the polyhedral domain (projection and join are
over-approximations; entailment is a partial order), exponential-polynomial
closed forms, and the loop-free part of the transition-formula algebra.
"""

from fractions import Fraction

import sympy
from hypothesis import example, given, settings, strategies as st

from repro.formulas import (
    And,
    Atom,
    Exists,
    Monomial,
    Or,
    Polynomial,
    atom_eq,
    atom_le,
    atom_lt,
    conjoin,
    disjoin,
    rename,
    substitute,
    sym,
)
from repro.polyhedra import LinearConstraint, Polyhedron, convex_hull_pair
from repro.recurrence import ExpPoly, geometric_convolution, solve_first_order

SYMBOLS = [sym(name) for name in ("x", "y", "z")]


@st.composite
def polynomials(draw, max_terms=4, max_degree=2):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        powers = {}
        for symbol in draw(st.lists(st.sampled_from(SYMBOLS), max_size=max_degree)):
            powers[symbol] = powers.get(symbol, 0) + 1
        coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        mono = Monomial.from_mapping(powers)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Polynomial(terms)


@st.composite
def assignments(draw):
    return {s: Fraction(draw(st.integers(-6, 6))) for s in SYMBOLS}


class TestPolynomialProperties:
    @given(polynomials(), polynomials(), assignments())
    @settings(max_examples=60, deadline=None)
    def test_addition_is_pointwise(self, p, q, env):
        assert (p + q).evaluate(env) == p.evaluate(env) + q.evaluate(env)

    @given(polynomials(), polynomials(), assignments())
    @settings(max_examples=60, deadline=None)
    def test_multiplication_is_pointwise(self, p, q, env):
        assert (p * q).evaluate(env) == p.evaluate(env) * q.evaluate(env)

    @given(polynomials(), assignments())
    @settings(max_examples=60, deadline=None)
    def test_negation_cancels(self, p, env):
        assert (p + (-p)).is_zero or (p + (-p)).evaluate(env) == 0

    @given(polynomials(), polynomials())
    @settings(max_examples=60, deadline=None)
    def test_degree_of_product(self, p, q):
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
        else:
            assert (p * q).degree == p.degree + q.degree


# Reference arithmetic: the term-by-term loops that ``+``, ``*`` and
# ``rename`` replaced, building every result through the public cleaning
# constructor.  The fast paths must agree with them in value and in term
# order (fresh ``dim_*`` symbols are minted in term order downstream).
def _reference_add(p, q):
    merged = dict(p.items())
    for mono, coeff in q.items():
        merged[mono] = merged.get(mono, Fraction(0)) + coeff
    return Polynomial(merged)


def _reference_neg(p):
    return Polynomial({mono: -coeff for mono, coeff in p.items()})


def _reference_mul(p, q):
    result = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = m1 * m2
            result[mono] = result.get(mono, Fraction(0)) + c1 * c2
    return Polynomial(result)


def _reference_rename(p, mapping):
    """``sum(constant(c) * var(t) ** power ...)``, one renamed term at a time."""
    result = Polynomial.zero()
    for mono, coeff in p.items():
        term = Polynomial.constant(coeff)
        for symbol, power in mono.powers:
            image = Polynomial.var(mapping.get(symbol, symbol))
            for _ in range(power):
                term = _reference_mul(term, image)
        result = _reference_add(result, term)
    return result


W = sym("w")
X, Y, Z = SYMBOLS

#: Renames onto the drawn symbols plus one symbol no polynomial mentions;
#: two keys often share a target.
renamings = st.dictionaries(st.sampled_from(SYMBOLS), st.sampled_from(SYMBOLS + [W]))


def _same_terms(actual, expected):
    assert actual == expected
    assert list(actual.items()) == list(expected.items())


class TestArithmeticMatchesReference:
    @given(polynomials(), polynomials())
    @settings(max_examples=100, deadline=None)
    def test_addition_and_subtraction(self, p, q):
        _same_terms(p + q, _reference_add(p, q))
        _same_terms(-q, _reference_neg(q))
        _same_terms(p - q, _reference_add(p, _reference_neg(q)))
        _same_terms(p - p, Polynomial.zero())

    @given(polynomials(), polynomials())
    @settings(max_examples=100, deadline=None)
    def test_multiplication(self, p, q):
        _same_terms(p * q, _reference_mul(p, q))

    @given(polynomials(), renamings)
    @settings(max_examples=200, deadline=None)
    # x + z - y + w after {x, y -> w}: the w from x cancels against the w
    # from y, and the original w comes back after z.
    @example(
        p=Polynomial(
            {Monomial.of(X): 1, Monomial.of(Z): 1, Monomial.of(Y): -1, Monomial.of(W): 1}
        ),
        mapping={X: W, Y: W},
    )
    # x - y + 3 after {x -> y}: the two renamed terms cancel outright.
    @example(p=Polynomial.var(X) - Polynomial.var(Y) + 3, mapping={X: Y})
    # x*y after {x -> y}: two symbols onto one target add their powers.
    @example(p=Polynomial.var(X) * Polynomial.var(Y), mapping={X: Y})
    # x - y after {x -> y, y -> x}: a swap is simultaneous, nothing cancels.
    @example(p=Polynomial.var(X) - Polynomial.var(Y), mapping={X: Y, Y: X})
    def test_rename(self, p, mapping):
        _same_terms(p.rename(mapping), _reference_rename(p, mapping))


#: One to two distinct symbols an ``Exists`` binds (renamings may map them).
binders = st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=2, unique=True)


@st.composite
def formulas(draw, depth=2):
    """Random And/Or/Exists trees over atoms of :func:`polynomials`."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        make = draw(st.sampled_from([atom_le, atom_lt, atom_eq]))
        return make(draw(polynomials()))
    children = draw(st.lists(formulas(depth - 1), min_size=1, max_size=3))
    combine = draw(st.sampled_from([conjoin, disjoin, None]))
    if combine is None:
        return Exists(tuple(draw(binders)), conjoin(children))
    return combine(children)


def _term_orders(formula):
    if isinstance(formula, Atom):
        return [list(formula.polynomial.items())]
    if isinstance(formula, (And, Or)):
        return [terms for child in formula.children for terms in _term_orders(child)]
    if isinstance(formula, Exists):
        return _term_orders(formula.body)
    return []


class TestFormulaRename:
    @given(binders, formulas(), renamings)
    @settings(max_examples=100, deadline=None)
    def test_rename_equals_substituting_variables(self, bound, body, mapping):
        formula = Exists(tuple(bound), body)
        renamed = rename(formula, mapping)
        expected = substitute(formula, {s: Polynomial.var(t) for s, t in mapping.items()})
        assert renamed == expected
        assert _term_orders(renamed) == _term_orders(expected)


def _boxes(draw_lo, draw_hi):
    x = SYMBOLS[0]
    lo, hi = sorted((draw_lo, draw_hi))
    return Polyhedron(
        [
            LinearConstraint.make({x: Fraction(-1)}, Fraction(lo)),   # x >= lo... -x + lo <= 0
            LinearConstraint.make({x: Fraction(1)}, Fraction(-hi)),   # x <= hi
        ]
    )


class TestPolyhedraProperties:
    @given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10))
    @settings(max_examples=40, deadline=None)
    def test_join_over_approximates_both(self, a, b, c, d):
        first = _boxes(a, b)
        second = _boxes(c, d)
        hull = convex_hull_pair(first, second)
        assert hull.contains(first)
        assert hull.contains(second)

    @given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_meet_is_contained_in_both(self, a, b, shift):
        first = _boxes(a, b)
        second = _boxes(a + shift, b + shift)
        meet = first.meet(second)
        if not meet.is_empty():
            assert first.contains(meet)
            assert second.contains(meet)

    @given(st.integers(-10, 10), st.integers(-10, 10))
    @settings(max_examples=40, deadline=None)
    def test_projection_over_approximates(self, a, b):
        x, y = SYMBOLS[0], SYMBOLS[1]
        box = _boxes(a, b)
        tied = box.add_constraints(
            [LinearConstraint.make({y: Fraction(1), x: Fraction(-1)}, 0, )]
        )
        projected = tied.project_onto([x])
        assert projected.contains(tied.project_onto([x]))
        # Every constraint of the projection is implied by the original.
        for constraint in projected.constraints:
            assert tied.entails(constraint)


class TestRecurrenceProperties:
    @given(st.integers(1, 4), st.integers(0, 5), st.integers(-3, 3), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_first_order_closed_form_matches_iteration(self, a, g_const, v0, steps):
        closed = solve_first_order(a, ExpPoly.constant(g_const), v0, 0)
        value = sympy.Integer(v0)
        for k in range(steps + 1):
            if k >= closed.valid_from:
                assert sympy.simplify(closed.evaluate(k) - value) == 0
            value = a * value + g_const

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_convolution_matches_literal_sum(self, a, base, upto):
        g = ExpPoly.exponential(base)
        closed = geometric_convolution(a, g)
        for n in range(upto):
            literal = sum(sympy.Integer(a) ** (n - 1 - m) * base**m for m in range(n))
            assert sympy.simplify(closed.evaluate(n) - literal) == 0

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_exppoly_ring_laws(self, c1, c2, at):
        e1 = ExpPoly.exponential(2, c1) + ExpPoly.variable()
        e2 = ExpPoly.constant(c2)
        left = (e1 + e2).evaluate(at)
        assert sympy.simplify(left - (e1.evaluate(at) + e2.evaluate(at))) == 0
        product = (e1 * e2).evaluate(at)
        assert sympy.simplify(product - (e1.evaluate(at) * e2.evaluate(at))) == 0
