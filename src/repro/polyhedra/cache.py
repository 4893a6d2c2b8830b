"""Content-keyed memoization for the polyhedral hot path.

The convex-hull procedure (Alg. 1) re-projects and re-checks near-identical
constraint systems constantly: ``minimize_constraints`` asks one entailment
query per kept constraint per pass, cube enumeration asks the same
satisfiability question for structurally equal cubes, and hull construction
re-eliminates the same lifted systems whenever a join is revisited.  This
module provides small in-process memo tables for those pure queries, keyed on
a *canonicalised* form of the constraint system: symbols are renamed to
positional placeholders (in sorted order) and constraints are sorted, so two
systems that differ only in fresh-symbol indices or constraint order share
one cache entry — mirroring the content-addressed design of the engine's
on-disk result cache.

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
from .constraint import LinearConstraint

__all__ = [
    "MemoCache",
    "canonical_key",
    "canonical_system",
    "clear_caches",
    "cache_stats",
    "keep_warm",
    "register_cache",
]

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
# Canonicalisation
# ---------------------------------------------------------------------- #
def canonical_system(
    constraints: Sequence[LinearConstraint],
    extra_symbols: Iterable[Symbol] = (),
) -> tuple[
    tuple[LinearConstraint, ...],
    tuple[Symbol, ...],
    dict[Symbol, Symbol],
    dict[Symbol, Symbol],
]:
    """Rename a constraint system to canonical positional symbols.

    Returns ``(canonical_constraints, canonical_extras, forward, inverse)``
    where ``forward`` maps original symbols to placeholders and ``inverse``
    maps back.

    The renaming is **order-isomorphic**: placeholders are assigned in the
    symbols' string order and their zero-padded names sort the same way, and
    constraint order is preserved.  An algorithm whose output depends on
    symbol ordering or constraint ordering (Fourier–Motzkin's pivot choice,
    greedy minimization, the presolve's choice of the first symbol of an
    equality) therefore computes *exactly* the renaming of what it would
    compute on the original system — so memoizing on the canonical form
    cannot change any result, it only lets systems differing in fresh-symbol
    indices share entries.  The renamed rows keep their integer entries, so
    the keys hash plain int tuples.
    """
    symbols = sorted(
        {s for c in constraints for s in c.symbols} | set(extra_symbols), key=str
    )
    forward = {s: Symbol(f"_cv{i:05d}") for i, s in enumerate(symbols)}
    inverse = {v: k for k, v in forward.items()}
    canonical = tuple(c.rename(forward) for c in constraints)
    extras = tuple(forward[s] for s in dict.fromkeys(extra_symbols))
    return canonical, extras, forward, inverse


def canonical_key(
    constraints: Sequence[LinearConstraint],
    extra_symbols: Iterable[Symbol] = (),
) -> tuple:
    """A hashable, order-insensitive content key for a *semantic* query.

    Constraints are additionally sorted, so permutations of one system share
    a key.  Only use this for queries whose answer is a pure function of the
    solution set (satisfiability, entailment) — not for computations whose
    syntactic output depends on constraint order.
    """
    canonical, extras, _, _ = canonical_system(constraints, extra_symbols)
    return (
        tuple(sorted(canonical, key=lambda c: (c.coeffs, c.constant, c.kind.value))),
        tuple(sorted(extras, key=str)),
    )


def entailment_key(
    constraints: Sequence[LinearConstraint], candidate: LinearConstraint
) -> tuple:
    """A content key for an entailment query ``constraints |= candidate``.

    The candidate is renamed with the same symbol map as the system but kept
    separate in the key (it is the query, not part of the system).
    """
    canonical, _, forward, _ = canonical_system(
        constraints, candidate.symbols
    )
    ordered = tuple(
        sorted(canonical, key=lambda c: (c.coeffs, c.constant, c.kind.value))
    )
    return (ordered, candidate.rename(forward))
