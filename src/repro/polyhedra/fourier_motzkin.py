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

The loop never touches a symbol.  :func:`eliminate` numbers the system's
symbols once, in string order (:func:`~repro.polyhedra.cache.numbered`), and
runs on int rows ``(((column, coeff), ...), constant, is_eq)``; the result
is mapped back through the numbering once.  Columns follow symbol order, so
every order-dependent choice (the pivot column, the defining equality, the
greedy minimization order, the tie-breaks) is the one the symbols would
give.  Rows are gcd-primitive, so both steps are integer multiply-adds with a
positive factor on every inequality, and the row gcd taken when a row is
built is the only normalisation.  Each row also carries what the loop
re-reads on every step, computed once when the row is built: a bitmask of
its columns and the key its duplicate clean-up compares on.

Derived constraints carry their **history**: the set of input constraints
they descend from, together with the set of columns eliminated along their
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
from .cache import IntRow
from .constraint import ConstraintKind, LinearConstraint
from . import lp

__all__ = ["eliminate", "minimize_constraints", "MINIMIZE_THRESHOLD"]

#: When more than this many constraints accumulate during elimination, run an
#: LP-based redundancy-removal pass.
MINIMIZE_THRESHOLD = 120

#: Hard cap after which elimination falls back to dropping the constraints
#: that mention the symbol (a sound over-approximation of the projection).
BLOWUP_LIMIT = 600

#: Memo tables keyed on numbered systems: identical projections recur
#: constantly (the hull re-eliminates equal lifted systems whenever a join
#: is revisited, and fresh-symbol indices never hit a key twice without the
#: canonical numbering).  Values hold int rows (projection) and kept
#: positions (minimization), never symbols.
_PROJECTION_CACHE = memo.register_cache("fm.eliminate")
_MINIMIZE_CACHE = memo.register_cache("fm.minimize")

#: ``1 <= 0``: the row an empty projection is reported as.
_CONTRADICTION: IntRow = ((), 1, False)


class _Row:
    """One int row of the system being projected, plus what the loop reuses.

    ``row`` is the gcd-primitive int row and ``mask`` has bit ``column`` set
    for each column it mentions; ``key`` (the coefficient-primitive
    left-hand side with the kind) and ``divisor`` (the coefficient gcd) are
    what :func:`_clean` compares duplicates on.  ``history`` and
    ``eliminated`` are bitmasks over the input rows the row descends from
    and the columns its derivation eliminated: by Imbert's first
    acceleration theorem an inequality with ``popcount(history) > 1 +
    popcount(eliminated)`` is redundant and may be dropped.
    """

    __slots__ = ("row", "mask", "key", "divisor", "history", "eliminated")

    def __init__(
        self,
        coeffs: Sequence[tuple[int, int]],
        constant: int,
        is_eq: bool,
        history: int,
        eliminated: int,
    ):
        # Divide by the gcd of all entries (constant included) to make the
        # row primitive; the coefficient gcd left over keys duplicates.
        divisor = math.gcd(*[c for _, c in coeffs])
        common = math.gcd(divisor, constant)
        if common > 1:
            coeffs = [(column, c // common) for column, c in coeffs]
            constant //= common
            divisor //= common
        mask = 0
        for column, _ in coeffs:
            mask |= 1 << column
        row = tuple(coeffs)
        self.row = (row, constant, is_eq)
        self.mask = mask
        if divisor > 1:
            row = tuple([(column, c // divisor) for column, c in row])
        self.key = (row, is_eq)
        self.divisor = divisor
        self.history = history
        self.eliminated = eliminated


def _combine(
    first: _Row,
    first_factor: int,
    second: _Row,
    second_factor: int,
    is_eq: bool,
    history: int,
    eliminated: int,
) -> _Row:
    """The primitive row of ``first_factor * first + second_factor * second``.

    Callers pick the factors so that one column cancels (its zero
    coefficient is dropped), and give every inequality a positive factor so
    it keeps its direction.
    """
    first_coeffs, first_constant, _ = first.row
    second_coeffs, second_constant, _ = second.row
    merged = {column: first_factor * c for column, c in first_coeffs}
    for column, c in second_coeffs:
        merged[column] = merged.get(column, 0) + second_factor * c
    return _Row(
        sorted([entry for entry in merged.items() if entry[1]]),
        first_factor * first_constant + second_factor * second_constant,
        is_eq,
        history,
        eliminated,
    )


def _coefficient(row: _Row, column: int) -> int:
    for entry_column, c in row.row[0]:
        if entry_column == column:
            return c
    return 0


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

    The elimination runs on the numbered, cleaned int rows, memoized on
    them: hits and misses return identical constraint lists.  Cleaning drops
    only trivial and duplicate rows, so the numbering stays canonical.
    """
    by_column, columns, input_rows = memo.numbered(constraints)
    rows = _cleaned(input_rows)
    if rows is None:
        return [_contradiction()]
    targets = tuple(columns[s] for s in dict.fromkeys(symbols) if s in columns)
    if targets:
        key = (tuple([r.row for r in rows]), targets, minimize_threshold)
        projected = _PROJECTION_CACHE.lookup(
            key, lambda: _eliminate_core(rows, targets, minimize_threshold, by_column)
        )
    else:
        projected = [r.row for r in rows]
    return [memo.to_constraint(row, by_column) for row in projected]


def _cleaned(rows: Sequence[IntRow]) -> list[_Row] | None:
    """Numbered input rows after :func:`_clean`, with empty histories."""
    return _clean([_Row(*row, 0, 0) for row in rows])


def _eliminate_core(
    rows: list[_Row],
    targets: Sequence[int],
    minimize_threshold: int,
    symbols: Sequence[Symbol],
) -> tuple[IntRow, ...]:
    for index, row in enumerate(rows):
        row.history = 1 << index
    bits = {column: 1 << index for index, column in enumerate(targets)}
    width = len(symbols)
    remaining = list(targets)
    while remaining:
        column = _pick_column(rows, remaining, width)
        remaining.remove(column)
        equality = next((r for r in rows if r.row[2] and r.mask >> column & 1), None)
        if equality is not None:
            rows = _substitute(rows, column, bits[column], equality)
        elif any(r.mask >> column & 1 for r in rows):
            rows = _fourier_motzkin_step(rows, column, bits[column])
        else:
            continue
        rows = _clean(rows)
        if rows is None:
            return (_CONTRADICTION,)
        if len(rows) > minimize_threshold:
            # Renumbering drops the eliminated columns, so the key is the
            # one a direct minimize_constraints call builds.
            constraints = [memo.to_constraint(r.row, symbols) for r in rows]
            kept = _kept(constraints, tuple(memo.numbered(constraints)[2]))
            rows = [rows[i] for i in kept]
    return tuple([r.row for r in rows])


def _contradiction() -> LinearConstraint:
    return LinearConstraint.make({}, 1, ConstraintKind.LE)


def _pick_column(rows: Sequence[_Row], candidates: Sequence[int], width: int) -> int:
    """Choose the cheapest column to eliminate next, in one pass over rows.

    Columns defined by an equality are preferred (cost 0, the first such
    candidate wins); otherwise the first candidate minimizing
    ``#positive * #negative`` inequality occurrences.
    """
    positive = [0] * width
    negative = [0] * width
    defined = 0
    for row in rows:
        coeffs, _, is_eq = row.row
        if is_eq:
            defined |= row.mask
            continue
        for column, c in coeffs:
            if c > 0:
                positive[column] += 1
            else:
                negative[column] += 1
    best = candidates[0]
    best_cost = None
    for column in candidates:
        if defined >> column & 1:
            return column
        cost = positive[column] * negative[column]
        if best_cost is None or cost < best_cost:
            best, best_cost = column, cost
    return best


def _substitute(
    rows: Sequence[_Row], column: int, bit: int, equality: _Row
) -> list[_Row]:
    """Eliminate ``column`` using ``equality`` by Gaussian substitution.

    Substitution is the Fourier combination of each row with the (directed)
    equality, so derived rows union the equality's history and count the
    column as eliminated; inequality rows whose history then exceeds
    Imbert's bound are redundant and dropped.
    """
    coeff = _coefficient(equality, column)
    # |coeff| * row - sign(coeff) * c * equality cancels the column, and the
    # row's factor is positive, so an inequality keeps its direction.
    factor = abs(coeff)
    sign = 1 if coeff > 0 else -1
    result: list[_Row] = []
    for row in rows:
        if row is equality:
            continue
        if not row.mask >> column & 1:
            result.append(row)
            continue
        history = row.history | equality.history
        eliminated = row.eliminated | equality.eliminated | bit
        is_eq = row.row[2]
        if not is_eq and history.bit_count() > 1 + eliminated.bit_count():
            continue
        c = _coefficient(row, column)
        result.append(
            _combine(row, factor, equality, -sign * c, is_eq, history, eliminated)
        )
    return result


def _fourier_motzkin_step(rows: Sequence[_Row], column: int, bit: int) -> list[_Row]:
    """One Fourier–Motzkin elimination step for ``column``, Imbert-pruned."""
    positives: list[tuple[_Row, int]] = []
    negatives: list[tuple[_Row, int]] = []
    untouched: list[_Row] = []
    for row in rows:
        if not row.mask >> column & 1:
            untouched.append(row)
            continue
        c = _coefficient(row, column)
        if c > 0:
            positives.append((row, c))
        else:
            negatives.append((row, c))
    if len(positives) * len(negatives) + len(untouched) > BLOWUP_LIMIT:
        # Sound fallback: forget every row that mentions the column.
        return untouched
    result = untouched
    for pos, cp in positives:
        for neg, cn in negatives:
            history = pos.history | neg.history
            eliminated = pos.eliminated | neg.eliminated | bit
            if history.bit_count() > 1 + eliminated.bit_count():
                # Imbert's acceleration theorem: this combination is implied
                # by the surviving rows — skip it before it is even built.
                continue
            # |cn| * pos + cp * neg: both factors are positive and the
            # column cancels.
            result.append(_combine(pos, -cn, neg, cp, False, history, eliminated))
    return result


def _clean(rows: Sequence[_Row]) -> list[_Row] | None:
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

    Besides this syntactic subsumption, single-column bounds are propagated
    (:func:`~repro.polyhedra.lp.interval_contradiction`): a crossed
    lower/upper pair proves the whole system empty before any LP or
    combination step runs on it.
    """
    seen: dict[tuple, _Row] = {}
    for row in rows:
        coeffs, constant, is_eq = row.row
        if not coeffs:
            if constant > 0 or (is_eq and constant):
                return None
            continue
        kept = seen.get(row.key)
        if kept is None:
            seen[row.key] = row
            continue
        # Sign of constant/divisor - kept.constant/kept.divisor.
        difference = constant * kept.divisor - kept.row[1] * row.divisor
        if is_eq and difference != 0:
            return None
        if difference > 0 or (
            difference == 0 and row.history.bit_count() < kept.history.bit_count()
        ):
            seen[row.key] = row
    result = list(seen.values())
    if lp.interval_contradiction([row.row for row in result]):
        return None
    return result


def minimize_constraints(
    constraints: Sequence[LinearConstraint],
) -> list[LinearConstraint]:
    """Remove constraints entailed by the remaining ones (LP-based).

    Memoized on the numbered, cleaned system; the entailment queries
    themselves are additionally memoized in the LP layer, so re-minimizing a
    system that grew by a few constraints only pays for the new queries.
    """
    symbols, _, input_rows = memo.numbered(constraints)
    rows = _cleaned(input_rows)
    if rows is None:
        return [_contradiction()]
    cleaned = [memo.to_constraint(row.row, symbols) for row in rows]
    return [cleaned[i] for i in _kept(cleaned, tuple([row.row for row in rows]))]


def _kept(constraints: list[LinearConstraint], rows: tuple[IntRow, ...]) -> tuple:
    """Positions greedy minimization keeps, memoized on the numbered rows."""
    if len(rows) <= 1:
        return tuple(range(len(rows)))
    return _MINIMIZE_CACHE.lookup(rows, lambda: _minimize_core(constraints))


def _minimize_core(kept: list[LinearConstraint]) -> tuple[int, ...]:
    positions = list(range(len(kept)))
    index = 0
    while index < len(kept):
        candidate = kept[index]
        rest = kept[:index] + kept[index + 1 :]
        if rest and lp.entails(rest, candidate):
            kept = rest
            del positions[index]
        else:
            index += 1
    return tuple(positions)
