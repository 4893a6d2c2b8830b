"""Quantifier elimination for linear constraints (Fourier–Motzkin).

Polyhedral projection is the work-horse of the convex-hull algorithm (Alg. 1
in the paper, line 4: ``project(Q, X)``).  The implementation here eliminates
one symbol at a time:

* a symbol defined by an *equality* constraint is eliminated by Gaussian
  substitution (cheap, exact, and by far the most common case because
  transition-formula composition introduces mid-state symbols that are defined
  by assignment equalities);
* otherwise classic Fourier–Motzkin combination of the positive and negative
  occurrences is used.

Constraints are gcd-primitive integer rows, so both steps are integer
multiply-adds (:func:`~repro.polyhedra.constraint.combine`) with a positive
factor on every inequality, and the row gcd taken when a row is built is the
only normalisation.

Derived constraints carry their **history**: the set of input constraints
they descend from, together with the set of symbols eliminated along their
derivation.  Imbert's first acceleration theorem states that a derived
inequality whose history contains more than ``1 + #eliminated`` input
constraints is redundant — implied by the other constraints the algorithm
keeps — so such combinations are dropped *at generation time*, before they
can feed the quadratic blow-up of later elimination steps or trigger an
LP-based minimization pass.  The pruning is exact: it removes only redundant
rows, so the projection's solution set is unchanged.

After each elimination step syntactically redundant constraints are removed;
when the constraint count still grows beyond a threshold an LP-based
minimization pass prunes semantically redundant constraints to keep the
blow-up bounded.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ..formulas.symbols import Symbol
from . import cache as memo
from .constraint import ConstraintKind, LinearConstraint, combine
from . import lp

__all__ = ["eliminate", "minimize_constraints", "MINIMIZE_THRESHOLD"]

#: When more than this many constraints accumulate during elimination, run an
#: LP-based redundancy-removal pass.
MINIMIZE_THRESHOLD = 120

#: Hard cap after which elimination falls back to dropping the constraints
#: that mention the symbol (a sound over-approximation of the projection).
BLOWUP_LIMIT = 600

#: Memo tables keyed on canonicalised systems: identical projections recur
#: constantly (the hull re-eliminates equal lifted systems whenever a join
#: is revisited, and fresh-symbol indices never hit a key twice without the
#: canonical renaming).
_PROJECTION_CACHE = memo.register_cache("fm.eliminate")
_MINIMIZE_CACHE = memo.register_cache("fm.minimize")


class _Tracked:
    """One constraint plus its Imbert derivation history.

    ``history`` is a bitmask over the input-constraint indices the row
    descends from; ``eliminated`` is a bitmask over the symbols officially
    eliminated along its derivation.  Imbert's first acceleration theorem:
    an inequality with ``popcount(history) > 1 + popcount(eliminated)`` is
    redundant and may be dropped without changing the projection.  Bitmasks
    keep the per-combination cost to two integer ORs and two popcounts.
    """

    __slots__ = ("constraint", "history", "eliminated")

    def __init__(self, constraint: LinearConstraint, history: int, eliminated: int):
        self.constraint = constraint
        self.history = history
        self.eliminated = eliminated


def _imbert_redundant(history: int, eliminated: int) -> bool:
    return history.bit_count() > 1 + eliminated.bit_count()


def eliminate(
    constraints: Sequence[LinearConstraint],
    symbols: Iterable[Symbol],
    minimize_threshold: int = MINIMIZE_THRESHOLD,
) -> list[LinearConstraint]:
    """Project the constraint system onto the complement of ``symbols``.

    Returns a system over the remaining symbols whose solution set is exactly
    the projection (or, if the blow-up cap was hit, a sound over-approximation
    of it).  Contradictory systems are returned as a single ``1 <= 0``
    constraint so callers can detect emptiness syntactically.

    The computation is memoized on the canonicalised (renamed, sorted)
    system, so both the cached and the uncached path run the elimination on
    the canonical form: hits and misses return identical constraint lists.
    """
    cleaned = _clean([_Tracked(c, 0, 0) for c in constraints])
    if cleaned is None:
        return [_contradiction()]
    current = [t.constraint for t in cleaned]
    targets = [
        s
        for s in dict.fromkeys(symbols)
        if any(c.coefficient(s) != 0 for c in current)
    ]
    if not targets:
        return current
    canonical, extras, _, inverse = memo.canonical_system(current, targets)
    key = (canonical, extras, minimize_threshold)
    projected = _PROJECTION_CACHE.lookup(
        key,
        lambda: tuple(
            _eliminate_core(list(canonical), list(extras), minimize_threshold)
        ),
    )
    return [c.rename(inverse) for c in projected]


def _eliminate_core(
    current: list[LinearConstraint],
    remaining: list[Symbol],
    minimize_threshold: int,
) -> list[LinearConstraint]:
    tracked = [_Tracked(c, 1 << i, 0) for i, c in enumerate(current)]
    symbol_bits = {s: 1 << i for i, s in enumerate(remaining)}
    while remaining:
        symbol = _pick_symbol([t.constraint for t in tracked], remaining)
        remaining.remove(symbol)
        if not any(t.constraint.coefficient(symbol) != 0 for t in tracked):
            continue
        tracked = _eliminate_one(tracked, symbol, symbol_bits[symbol])
        tracked = _clean(tracked)
        if tracked is None:
            return [_contradiction()]
        if len(tracked) > minimize_threshold:
            tracked = _minimize_tracked(tracked)
    return [t.constraint for t in tracked]


def _contradiction() -> LinearConstraint:
    return LinearConstraint.make({}, 1, ConstraintKind.LE)


def _pick_symbol(
    constraints: Sequence[LinearConstraint], candidates: Sequence[Symbol]
) -> Symbol:
    """Choose the cheapest symbol to eliminate next.

    Symbols defined by an equality are preferred (cost 0); otherwise the
    symbol minimizing ``#positive * #negative`` inequality occurrences.
    """
    best = None
    best_cost = None
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
    assert best is not None
    return best


def _eliminate_one(
    tracked: Sequence[_Tracked], symbol: Symbol, symbol_bit: int
) -> list[_Tracked]:
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
        return _substitute_equality(tracked, symbol, symbol_bit, equality)
    return _fourier_motzkin_step(tracked, symbol, symbol_bit)


def _substitute_equality(
    tracked: Sequence[_Tracked],
    symbol: Symbol,
    symbol_bit: int,
    equality: _Tracked,
) -> list[_Tracked]:
    """Eliminate ``symbol`` using ``equality`` by Gaussian substitution.

    Substitution is the Fourier combination of each row with the (directed)
    equality, so derived rows union the equality's history and count
    ``symbol`` as eliminated; inequality rows whose history then exceeds
    Imbert's bound are redundant and dropped.
    """
    eq_constraint = equality.constraint
    coeff = eq_constraint.coefficient(symbol)
    # |coeff| * row - sign(coeff) * c * equality cancels the symbol, and the
    # row's factor is positive, so an inequality keeps its direction.
    sign = 1 if coeff > 0 else -1
    result: list[_Tracked] = []
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


def _fourier_motzkin_step(
    tracked: Sequence[_Tracked], symbol: Symbol, symbol_bit: int
) -> list[_Tracked]:
    """One Fourier–Motzkin elimination step for ``symbol``, Imbert-pruned."""
    positives: list[_Tracked] = []
    negatives: list[_Tracked] = []
    untouched: list[_Tracked] = []
    for t in tracked:
        coeff = t.constraint.coefficient(symbol)
        if coeff == 0:
            untouched.append(t)
        elif coeff > 0:
            positives.append(t)
        else:
            negatives.append(t)
    if len(positives) * len(negatives) + len(untouched) > BLOWUP_LIMIT:
        # Sound fallback: forget every constraint that mentions the symbol.
        return untouched
    result = untouched
    for pos in positives:
        cp = pos.constraint.coefficient(symbol)
        for neg in negatives:
            history = pos.history | neg.history
            eliminated = pos.eliminated | neg.eliminated | symbol_bit
            if _imbert_redundant(history, eliminated):
                # Imbert's acceleration theorem: this combination is implied
                # by the surviving rows — skip it before it is even built.
                continue
            # |cn| * pos + cp * neg: both factors are positive and the
            # symbol cancels.
            cn = neg.constraint.coefficient(symbol)
            combined = combine(
                pos.constraint, -cn, neg.constraint, cp, ConstraintKind.LE
            )
            result.append(_Tracked(combined, history, eliminated))
    return result


def _clean(tracked: Sequence[_Tracked]) -> list[_Tracked] | None:
    """Drop trivial/duplicate/dominated rows; None on contradiction.

    Two rows are duplicates when their left-hand sides agree up to a
    positive factor.  The row gcd includes the constant, so duplicates can
    differ in their stored coefficients (``2x + 3 <= 0`` and ``x + 1 <= 0``):
    rows are keyed on the coefficient-primitive left-hand side, and their
    constants are compared over it by cross-multiplication.  Of two
    duplicate inequalities the tighter one is kept; two duplicate equalities
    with different constants prove the system empty.  When one row arises
    from several derivations the smallest history is kept — every
    derivation is a genuine one, and a smaller history keeps the row safe
    from Imbert pruning longer (plain systems pass empty histories).

    Besides this syntactic subsumption, single-symbol bounds are
    propagated: a crossed lower/upper pair proves the whole system empty
    before any LP or combination step runs on it.
    """
    # key -> (row, gcd of the row's coefficients)
    seen: dict[tuple, tuple[_Tracked, int]] = {}
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
        # Sign of constant/divisor - kept.constant/kept_divisor.
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
    if lp.interval_contradiction([t.constraint for t in result]):
        return None
    return result


def _minimize_tracked(tracked: Sequence[_Tracked]) -> list[_Tracked]:
    """LP-minimize the constraints of ``tracked``, re-attaching histories.

    Rows removed by the LP pass simply disappear; surviving rows keep the
    (smallest) history of the derivation that produced them.  A row the LP
    pass *rewrote* (it never does today) would fall back to an empty
    history, which Imbert's bound can never prune — the sound default.
    """
    best: dict[LinearConstraint, _Tracked] = {}
    for t in tracked:
        existing = best.get(t.constraint)
        if existing is None or t.history.bit_count() < existing.history.bit_count():
            best[t.constraint] = t
    minimized = minimize_constraints([t.constraint for t in tracked])
    return [best.get(c) or _Tracked(c, 0, 0) for c in minimized]


def minimize_constraints(
    constraints: Sequence[LinearConstraint],
) -> list[LinearConstraint]:
    """Remove constraints entailed by the remaining ones (LP-based).

    Memoized on the canonicalised system; the entailment queries themselves
    are additionally memoized in the LP layer, so re-minimizing a system
    that grew by a few constraints only pays for the new queries.
    """
    tracked = _clean([_Tracked(c, 0, 0) for c in constraints])
    if tracked is None:
        return [_contradiction()]
    cleaned = [t.constraint for t in tracked]
    if len(cleaned) <= 1:
        return cleaned
    canonical, _, _, inverse = memo.canonical_system(cleaned)
    minimized = _MINIMIZE_CACHE.lookup(
        canonical, lambda: tuple(_minimize_core(list(canonical)))
    )
    return [c.rename(inverse) for c in minimized]


def _minimize_core(
    kept: list[LinearConstraint],
) -> list[LinearConstraint]:
    index = 0
    while index < len(kept):
        candidate = kept[index]
        rest = kept[:index] + kept[index + 1 :]
        if rest and lp.entails(rest, candidate):
            kept = rest
        else:
            index += 1
    return kept
