"""Linear-programming queries over sets of linear constraints.

The paper's implementation delegates satisfiability and entailment checks to
an SMT solver; this reproduction answers them with the exact rational simplex
of :mod:`repro.polyhedra.simplex` instead, so no verdict depends on a float
tolerance or a solver version.  Three queries are provided:

* :func:`is_satisfiable` — is the constraint system non-empty (over Q)?
* :func:`maximize` — the exact supremum of a linear objective over the system;
* :func:`entails` — does the system imply a given constraint?

The two decision queries are memoized on the canonically numbered
constraint system (:mod:`repro.polyhedra.cache`), and :func:`is_satisfiable`
first tries a syntactic interval test on the numbered rows
(:func:`interval_contradiction`, which Fourier–Motzkin's clean-up shares)
that needs no simplex at all.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ..formulas.symbols import Symbol
from . import cache
from .cache import IntRow
from .constraint import ConstraintKind, LinearConstraint
from .simplex import ExactLpResult, exact_entails, exact_is_satisfiable, exact_maximize

__all__ = ["maximize", "is_satisfiable", "entails"]

#: Memo tables for the two soundness-critical (and frequently repeated)
#: queries.  Both are pure functions of the numbered constraint system,
#: so the tables survive across polyhedra, hull folds and minimization passes.
_SAT_CACHE = cache.register_cache("lp.is_satisfiable")
_ENTAILS_CACHE = cache.register_cache("lp.entails")


def maximize(
    objective: Mapping[Symbol, Fraction | int],
    constraints: Sequence[LinearConstraint],
) -> ExactLpResult:
    """Exactly maximize ``sum objective[s]*s`` subject to ``constraints``."""
    return exact_maximize(objective, constraints)


def is_satisfiable(constraints: Sequence[LinearConstraint]) -> bool:
    """Whether the constraints admit a rational solution.

    Syntactic contradictions and crossed single-symbol bounds are caught
    without a simplex; everything else is decided exactly.
    """
    for constraint in constraints:
        if constraint.is_contradiction:
            return False
    nontrivial = [c for c in constraints if c.coeffs]
    if not nontrivial:
        return True
    _, _, rows = cache.numbered(nontrivial)
    if interval_contradiction(rows):
        return False
    key = cache.canonical_key(rows)
    return _SAT_CACHE.lookup(key, lambda: exact_is_satisfiable(nontrivial))


def interval_contradiction(rows: Iterable[IntRow]) -> bool:
    """Cheap syntactic emptiness test from single-column rows.

    Collects the tightest lower/upper bound each single-column row puts on
    its column (equalities contribute both); a crossed pair of bounds proves
    the system empty with no LP call.  ``False`` means "unknown", never
    "non-empty".
    """
    # Bounds are kept as (numerator, positive denominator) pairs and
    # compared by cross-multiplication.
    lower: dict[int, tuple[int, int]] = {}
    upper: dict[int, tuple[int, int]] = {}
    for coeffs, constant, is_eq in rows:
        if len(coeffs) != 1:
            continue
        ((column, coeff),) = coeffs
        # coeff * column + constant (<=|==) 0 bounds it by -constant/coeff.
        if coeff > 0:
            bound = (-constant, coeff)
        else:
            bound = (constant, -coeff)
        if is_eq:
            is_upper = is_lower = True
        else:
            is_upper = coeff > 0
            is_lower = not is_upper
        if is_upper and (column not in upper or _less(bound, upper[column])):
            upper[column] = bound
        if is_lower and (column not in lower or _less(lower[column], bound)):
            lower[column] = bound
    for column, low in lower.items():
        high = upper.get(column)
        if high is not None and _less(high, low):
            return True
    return False


def _less(first: tuple[int, int], second: tuple[int, int]) -> bool:
    """``first < second`` for (numerator, positive denominator) pairs."""
    return first[0] * second[1] < second[0] * first[1]


def entails(
    constraints: Sequence[LinearConstraint], candidate: LinearConstraint
) -> bool:
    """Whether ``constraints`` implies ``candidate`` over the rationals.

    For an LE candidate ``t + d <= 0`` this checks ``sup t <= -d``; for an EQ
    candidate both directions are checked.  An infeasible constraint system
    entails everything.
    """
    if candidate.is_trivial:
        return True
    key = cache.entailment_key(constraints, candidate)
    return _ENTAILS_CACHE.lookup(key, lambda: _entails_uncached(constraints, candidate))


def _entails_uncached(
    constraints: Sequence[LinearConstraint], candidate: LinearConstraint
) -> bool:
    if candidate.kind is ConstraintKind.EQ:
        # Each direction is an LE query of its own, memoized on its own key.
        le = LinearConstraint.make(candidate.coeff_map, candidate.constant)
        ge = LinearConstraint.make(
            {s: -c for s, c in candidate.coeffs}, -candidate.constant
        )
        return entails(constraints, le) and entails(constraints, ge)
    return exact_entails(constraints, candidate)
