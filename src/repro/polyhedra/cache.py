"""Content-keyed memoization for the polyhedral hot path.

The convex-hull procedure (Alg. 1) re-projects and re-checks near-identical
constraint systems constantly: ``minimize_constraints`` asks one entailment
query per kept constraint per pass, cube enumeration asks the same
satisfiability question for structurally equal cubes, and hull construction
re-eliminates the same lifted systems whenever a join is revisited.  This
module provides small in-process memo tables for those pure queries, keyed on
a *canonical numbering* of the constraint system (:func:`numbered`): its
symbols are numbered once, in string order, and every row becomes a tuple of
ints ``(((column, coeff), ...), constant, is_eq)``.  Two systems that differ
only in fresh-symbol indices number to the same rows, and the semantic
queries also sort the rows, so they share one cache entry — mirroring the
content-addressed design of the engine's on-disk result cache.  Keys and
memoized values hold ints only, never symbols, so they hash and compare at C
speed.

The tables are bounded (FIFO eviction) and process-local; batch-engine
workers fork with empty-to-warm parent tables and diverge independently,
which cannot change any result because every memoized query is a pure
function of its canonical key.  A long-lived warm worker keeps its tables
across tasks (:func:`keep_warm`) for as long as it lives; nothing is written
to disk, so a new process always starts with empty tables.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from ..formulas.symbols import Symbol
from .constraint import ConstraintKind, LinearConstraint

__all__ = [
    "IntRow",
    "MemoCache",
    "canonical_key",
    "clear_caches",
    "cache_stats",
    "entailment_key",
    "keep_warm",
    "numbered",
    "register_cache",
    "to_constraint",
]

_LE = ConstraintKind.LE
_EQ = ConstraintKind.EQ

#: Default per-table entry cap.  Projection results are small (a list of
#: constraints); a few thousand entries is a handful of megabytes.
DEFAULT_CAPACITY = 4096

_REGISTRY: dict[str, "MemoCache"] = {}


class MemoCache:
    """A bounded FIFO memo table with hit/miss counters."""

    __slots__ = ("name", "capacity", "_entries", "hits", "misses")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY):
        self.name = name
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Hashable, compute: Callable[[], object]) -> object:
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            value = compute()
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return value
        self.hits += 1
        return value

    def contains(self, key: Hashable) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }


def register_cache(name: str, capacity: int = DEFAULT_CAPACITY) -> MemoCache:
    """Create (or fetch) the named memo table in the module registry."""
    cache = _REGISTRY.get(name)
    if cache is None:
        cache = MemoCache(name, capacity)
        _REGISTRY[name] = cache
    return cache


#: Depth of active :func:`keep_warm` scopes; non-zero suppresses clearing.
_WARM_DEPTH = 0


def clear_caches(force: bool = False) -> None:
    """Empty every registered memo table (between tasks, and in tests).

    Inside a :func:`keep_warm` scope this is a no-op unless ``force`` is
    given, so code written for cold-per-task semantics (the batch engine's
    :func:`~repro.engine.tasks.execute_task`) can run unchanged in a warm
    worker without dropping its tables.
    """
    if _WARM_DEPTH and not force:
        return
    for cache in _REGISTRY.values():
        cache.clear()


@contextlib.contextmanager
def keep_warm() -> Iterator[None]:
    """Scope for long-lived workers: keep memo tables across tasks.

    While the scope is active, :func:`clear_caches` keeps the tables (they
    stay bounded by their FIFO capacity, so a warm worker cannot grow them
    without limit).  Memoized queries are pure functions of their canonical
    keys, so a warm table changes latency, never results.
    """
    global _WARM_DEPTH
    _WARM_DEPTH += 1
    try:
        yield
    finally:
        _WARM_DEPTH -= 1


def cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/entry counters of every registered table."""
    return {name: cache.stats() for name, cache in sorted(_REGISTRY.items())}


# ---------------------------------------------------------------------- #
# Canonical numbering
# ---------------------------------------------------------------------- #
#: ``(((column, coeff), ...), constant, is_eq)``: a constraint row over
#: numbered columns, sorted by column, with the gcd-primitive int entries of
#: the :class:`~repro.polyhedra.constraint.LinearConstraint` it numbers.
IntRow = tuple[tuple[tuple[int, int], ...], int, bool]


def numbered(
    constraints: Sequence[LinearConstraint],
) -> tuple[list[Symbol], dict[Symbol, int], list[IntRow]]:
    """Number the symbols of ``constraints`` and rewrite each row over them.

    Returns ``(symbols, columns, rows)``: ``symbols[column]`` is the symbol
    of a column, ``columns`` the inverse map and ``rows[i]`` the int row of
    the ``i``-th constraint.

    The numbering is **order-isomorphic**: columns are assigned in the
    symbols' string order, the order a constraint sorts its symbols in, so
    every row's columns come out sorted and row order is preserved.  An
    algorithm whose output depends on symbol or row order (Fourier–Motzkin's
    pivot choice, greedy minimization) therefore computes on the int rows
    exactly what it computes on the symbols, and memoizing on the rows
    cannot change any result: it only lets systems that differ in
    fresh-symbol indices share entries.  Only the symbols the rows mention
    are numbered, so isomorphic systems number alike.
    """
    symbols = sorted({s for c in constraints for s, _ in c.coeffs}, key=str)
    columns = {s: i for i, s in enumerate(symbols)}
    rows = [
        (tuple([(columns[s], v) for s, v in c.coeffs]), c.constant, c.kind is _EQ)
        for c in constraints
    ]
    return symbols, columns, rows


def to_constraint(row: IntRow, symbols: Sequence[Symbol]) -> LinearConstraint:
    """The constraint an int row numbers (columns are sorted, so no sort)."""
    coeffs, constant, is_eq = row
    return LinearConstraint(
        tuple([(symbols[column], v) for column, v in coeffs]),
        constant,
        _EQ if is_eq else _LE,
    )


def canonical_key(rows: Iterable[IntRow]) -> tuple[IntRow, ...]:
    """A hashable, order-insensitive content key for a *semantic* query.

    The numbered rows are sorted, so permutations of one system share a
    key.  Only use this for queries whose answer is a pure function of the
    solution set (satisfiability, entailment) — not for computations whose
    syntactic output depends on row order.
    """
    return tuple(sorted(rows))


def entailment_key(
    constraints: Sequence[LinearConstraint], candidate: LinearConstraint
) -> tuple:
    """A content key for an entailment query ``constraints |= candidate``.

    The candidate is numbered with the system but kept separate in the key
    (it is the query, not part of the system).
    """
    _, _, rows = numbered([*constraints, candidate])
    query = rows.pop()
    return (canonical_key(rows), query)
