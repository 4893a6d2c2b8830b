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
function of its canonical key.

The tables are also **persistable**: :func:`save_snapshot` serializes every
table into one atomic entry of a :class:`~repro.engine.storage.CacheStorage`
and :func:`load_snapshot` absorbs it back, so warm service workers reload
their projection/LP memo across restarts (``repro serve``, ``repro bench
--engine warm``) and ``repro cache stats`` can report it.  Snapshots are
guarded by a caller-supplied fingerprint (the engine passes its code
fingerprint): a snapshot written by different analysis code is silently
ignored rather than replayed, because the memoized *values* are shaped by
the algorithms that computed them.
"""

from __future__ import annotations

import contextlib
import io
import pickle
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator, Sequence

from ..formulas.symbols import Symbol
from .constraint import LinearConstraint

if TYPE_CHECKING:  # pragma: no cover - layering: engine imports polyhedra
    from ..engine.storage import CacheStorage

__all__ = [
    "MemoCache",
    "RestrictedUnpickler",
    "canonical_key",
    "canonical_system",
    "clear_caches",
    "cache_stats",
    "keep_warm",
    "load_snapshot",
    "register_cache",
    "restricted_loads",
    "save_snapshot",
    "snapshot_stats",
]

#: Default per-table entry cap.  Projection results are small (a list of
#: constraints); a few thousand entries is a handful of megabytes.
DEFAULT_CAPACITY = 4096

_REGISTRY: dict[str, "MemoCache"] = {}


class MemoCache:
    """A bounded FIFO memo table with hit/miss counters.

    ``persistent`` marks the table as part of the on-disk memo snapshot;
    only tables whose keys and values stay within the snapshot's closed
    class vocabulary (see ``_ALLOWED_CLASSES``) may set it.
    """

    __slots__ = ("name", "capacity", "persistent", "_entries", "hits", "misses")

    def __init__(
        self, name: str, capacity: int = DEFAULT_CAPACITY, persistent: bool = False
    ):
        self.name = name
        self.capacity = capacity
        self.persistent = persistent
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

    def export_entries(self) -> list[tuple[Hashable, object]]:
        """The table's entries in insertion (FIFO) order."""
        return list(self._entries.items())

    def absorb(self, entries: Iterable[tuple[Hashable, object]]) -> int:
        """Install snapshot entries without touching the hit/miss counters.

        Existing keys win (they are newer), and absorption stops at the
        capacity instead of evicting — a persisted snapshot must warm the
        table, never push out entries this process computed itself.
        Returns how many entries were actually added.
        """
        added = 0
        for key, value in entries:
            if len(self._entries) >= self.capacity:
                break
            if key in self._entries:
                continue
            self._entries[key] = value
            added += 1
        return added

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


def register_cache(
    name: str, capacity: int = DEFAULT_CAPACITY, persistent: bool = False
) -> MemoCache:
    """Create (or fetch) the named memo table in the module registry."""
    cache = _REGISTRY.get(name)
    if cache is None:
        cache = MemoCache(name, capacity, persistent)
        _REGISTRY[name] = cache
    elif persistent:
        cache.persistent = True
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
    """Persistence hook for long-lived workers: keep memo tables across tasks.

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
# Snapshot persistence (CacheStorage-backed)
# ---------------------------------------------------------------------- #
#: Entry name of the memo snapshot inside its storage namespace.
SNAPSHOT_NAME = "polyhedra-memo"

#: Bump on incompatible changes to the pickled snapshot layout.  Schema 2:
#: constraints are gcd-primitive integer rows, so no entry holds a Fraction.
#: Schema 3: symbols pickle as their constructor arguments only (their
#: cached hash is valid under one ``PYTHONHASHSEED``).
SNAPSHOT_SCHEMA = 3

#: The closed vocabulary a memo snapshot may contain.  Result-cache
#: directories are shareable between machines, so a snapshot must be treated
#: as untrusted input: unpickling goes through a restricted Unpickler that
#: resolves only these classes — a crafted blob naming anything else (the
#: classic ``os.system`` reduce) fails to load and reads as a cold start.
#: Only tables registered with ``persistent=True`` (the projection/LP memo,
#: whose keys and values are plain constraint-system data) are snapshotted;
#: tables keyed on richer objects (the abstraction layer's formulas) stay
#: per-process rather than growing this vocabulary.
_ALLOWED_CLASSES = {
    ("builtins", "frozenset"),
    ("repro.formulas.symbols", "Symbol"),
    ("repro.polyhedra.constraint", "ConstraintKind"),
    ("repro.polyhedra.constraint", "LinearConstraint"),
}


class RestrictedUnpickler(pickle.Unpickler):
    """An unpickler that resolves only a caller-supplied class vocabulary.

    ``allowed`` is a set of ``(module, qualname)`` pairs — enumerate the
    concrete classes, never whole modules: a module-prefix allowlist is an
    arbitrary-code-execution hole, because pickle's REDUCE/NEWOBJ opcodes
    call whatever global they name and large libraries ship eval-style
    callables (``sympy.sympify`` evaluates attacker strings).  Every class
    on the list must also construct safely from attacker-chosen arguments;
    for a class whose constructor is unsafe on some argument types, put a
    validating stand-in into ``overrides`` (mapping ``(module, qualname)``
    to the replacement callable) instead of allowing it raw.  Any other
    global fails to resolve, so a crafted blob in a shared cache directory
    cannot execute code on load — it reads as a cold start.
    """

    def __init__(self, file, allowed, overrides=None):
        super().__init__(file)
        self._allowed = allowed
        self._overrides = overrides or {}

    def find_class(self, module: str, name: str):
        override = self._overrides.get((module, name))
        if override is not None:
            return override
        if (module, name) in self._allowed:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"snapshot references disallowed class {module}.{name}"
        )


def restricted_loads(data: bytes, allowed, overrides=None):
    """``pickle.loads`` through a :class:`RestrictedUnpickler` (see above)."""
    return RestrictedUnpickler(io.BytesIO(data), allowed, overrides).load()


def save_snapshot(storage: "CacheStorage", fingerprint: str) -> int:
    """Persist every registered memo table into ``storage``; returns entries.

    An existing snapshot with the same fingerprint is merged in first
    (entries are pure functions of their keys, so merging concurrent
    workers' tables is conflict-free; this process's entries win on
    overlap).  Write failures are swallowed — a broken snapshot store must
    never sink an analysis run — and reported as 0.
    """
    tables: dict[str, list] = {}
    merged = _load_tables(storage, fingerprint)
    for name, cache in sorted(_REGISTRY.items()):
        if not cache.persistent:
            continue
        entries = dict(merged.get(name, ()))
        entries.update(cache.export_entries())
        if entries:
            tables[name] = list(entries.items())
    if not tables:
        # Nothing to persist (e.g. a worker that only served cache hits):
        # don't replace a useful snapshot with an empty one.
        return 0
    payload = {
        "schema": SNAPSHOT_SCHEMA,
        "fingerprint": fingerprint,
        "tables": tables,
    }
    try:
        storage.write(SNAPSHOT_NAME, pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0
    return sum(len(entries) for entries in tables.values())


def load_snapshot(storage: "CacheStorage", fingerprint: str) -> int:
    """Absorb a persisted snapshot into the registered tables.

    Entries already present locally are kept (they are at least as fresh).
    A snapshot written under a different fingerprint — different analysis
    code — is ignored.  Returns how many entries were loaded.
    """
    loaded = 0
    for name, entries in _load_tables(storage, fingerprint).items():
        table = _REGISTRY.get(name)
        if table is None or not table.persistent:
            # A table this build does not persist (renamed, or a snapshot
            # from a foreign build claiming extra tables): ignore it.
            continue
        loaded += table.absorb(entries)
    return loaded


def _load_tables(storage: "CacheStorage", fingerprint: str) -> dict[str, list]:
    """The snapshot's per-table entry lists, or ``{}`` when absent/stale."""
    try:
        data = storage.read(SNAPSHOT_NAME)
    except Exception:
        return {}
    if data is None:
        return {}
    try:
        payload = restricted_loads(data, _ALLOWED_CLASSES)
    except Exception:
        # Truncated file, incompatible pickle, a class outside the allowed
        # vocabulary, or classes that moved since the snapshot was written:
        # treat as a cold start.
        return {}
    if not isinstance(payload, dict):
        return {}
    if payload.get("schema") != SNAPSHOT_SCHEMA:
        return {}
    if payload.get("fingerprint") != fingerprint:
        return {}
    tables = payload.get("tables")
    return tables if isinstance(tables, dict) else {}


def snapshot_stats(storage: "CacheStorage", fingerprint: str) -> dict[str, object]:
    """A JSON-ready description of the persisted snapshot (for cache stats)."""
    try:
        size = storage.size_of(SNAPSHOT_NAME)
    except Exception:
        size = 0
    tables = _load_tables(storage, fingerprint) if size else {}
    return {
        "present": size > 0,
        "bytes": size,
        "entries": sum(len(entries) for entries in tables.values()),
        "tables": {name: len(entries) for name, entries in sorted(tables.items())},
    }


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
