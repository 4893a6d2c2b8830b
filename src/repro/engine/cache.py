"""Content-addressed on-disk cache of analysis results.

A cache entry is keyed by everything that determines the analysis output:
the program source, the task's semantic fields (kind, procedure, cost
variable, substitutions, extra parameters), the full
:class:`~repro.core.chora.ChoraOptions` fingerprint, and the code version —
a content hash of the installed ``repro`` sources, so editing a benchmark,
flipping an ablation switch, or changing *any* analysis code (even without
a version bump) each invalidates the affected entries.  Benchmark *names*
are deliberately not part of the key: two suites sharing a program share its
cached result.

Entries are single JSON documents named by the key's SHA-256 digest, held
in a pluggable :class:`~repro.engine.storage.CacheStorage` backend.  The
default backend is a directory of files written atomically (temp file +
rename) so concurrent engines — including ``repro bench --shard i/n``
shards on different machines pointing at one shared directory — can mix
reads and writes safely; the key is host-independent, so a shared store
turns N machines into one batch.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Any, Optional

from .. import __version__
from ..core import ChoraOptions
from .config import cache_enabled, default_cache_directory
from .storage import CacheStorage, DirectoryStorage
from .tasks import AnalysisTask

__all__ = ["ResultCache", "make_cache", "CACHE_SCHEMA_VERSION"]

#: Bump when the cached payload shape changes incompatibly.
CACHE_SCHEMA_VERSION = 1


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """A content hash of the installed ``repro`` package sources.

    Computed once per process; keying cache entries on it means an edit to
    any analysis module invalidates stale results even when the declared
    package version does not change (the common case during development).
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256(__version__.encode("utf-8"))
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        try:
            digest.update(path.read_bytes())
        except OSError:
            continue
    return digest.hexdigest()


def cache_key(task: AnalysisTask, options: ChoraOptions) -> str:
    """The SHA-256 cache key of one (task, options) pair."""
    material = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "code": code_fingerprint(),
            "task": task.cache_material(),
            "options": options.to_dict(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def make_cache(
    no_cache: bool = False, directory: Optional[Path | str] = None
) -> Optional["ResultCache"]:
    """The cache implied by CLI-style switches (shared by CLI and examples).

    ``no_cache`` wins over everything; an explicitly requested ``directory``
    wins over the ``REPRO_NO_CACHE`` environment default; otherwise caching
    is on at the default location unless the environment disables it.
    """
    if no_cache:
        return None
    if directory is not None:
        return ResultCache(directory)
    if not cache_enabled():
        return None
    return ResultCache(default_cache_directory())


class ResultCache:
    """Content-addressed analysis payloads over a pluggable storage backend.

    ``ResultCache(directory)`` keeps the historical behaviour (one JSON file
    per entry in ``directory``); ``ResultCache(storage=backend)`` accepts
    any :class:`~repro.engine.storage.CacheStorage`, which is how tests
    substitute an in-memory store without the engine noticing.
    """

    def __init__(
        self,
        directory: Optional[Path | str] = None,
        *,
        storage: Optional[CacheStorage] = None,
    ):
        if storage is None:
            if directory is None:
                raise ValueError("ResultCache needs a directory or a storage backend")
            storage = DirectoryStorage(directory)
        elif directory is not None:
            raise ValueError("pass either a directory or a storage backend, not both")
        self.storage = storage

    @property
    def directory(self) -> Optional[Path]:
        """The backing directory, when the backend has one (else ``None``)."""
        if isinstance(self.storage, DirectoryStorage):
            return self.storage.directory
        return None

    def key(self, task: AnalysisTask, options: ChoraOptions) -> str:
        return cache_key(task, options)

    def _load_entry(self, key: str) -> Optional[dict[str, Any]]:
        data = self.storage.read(key)
        if data is None:
            return None
        try:
            entry = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return entry if isinstance(entry, dict) else None

    def get(self, key: str) -> Optional[dict[str, Any]]:
        """The cached payload for ``key``, or ``None`` on a miss."""
        entry = self._load_entry(key)
        if entry is None:
            return None
        payload = entry.get("payload")
        return payload if isinstance(payload, dict) else None

    def put(
        self,
        key: str,
        payload: dict[str, Any],
        *,
        task_name: str = "",
        suite: Optional[str] = None,
    ) -> None:
        """Store ``payload`` under ``key`` (atomic; failures are non-fatal).

        ``task_name`` and ``suite`` are reporting metadata (shown by
        ``repro cache stats``), not part of the content key.
        """
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "code": __version__,
            "task": task_name,
            "suite": suite,
            "payload": payload,
        }
        try:
            data = json.dumps(entry, sort_keys=True).encode("utf-8")
            self.storage.write(key, data)
        except (OSError, TypeError, ValueError):
            # A broken cache must never break the analysis run.
            return

    def clear(self) -> int:
        """Delete all entries; returns how many were removed."""
        removed = 0
        for name in list(self.storage.names()):
            if self.storage.delete(name):
                removed += 1
        return removed

    # ------------------------------------------------------------------ #
    # The polyhedral memo snapshot (persisted projection/LP memo tables)
    # lives in a ``memo`` namespace of the same storage backend.  Warm
    # service workers read and write it (see repro.service.pool); the
    # methods below only surface it to ``repro cache stats|clear``.
    # ------------------------------------------------------------------ #
    def memo_storage(self) -> CacheStorage:
        """The storage namespace holding the polyhedral memo snapshot."""
        return self.storage.namespace("memo")

    def memo_snapshot_stats(self) -> dict[str, Any]:
        """Presence/size/per-table entry counts of the memo snapshot."""
        from ..polyhedra.cache import snapshot_stats

        return snapshot_stats(self.memo_storage(), code_fingerprint())

    def clear_memo_snapshot(self) -> bool:
        """Remove the memo snapshot; returns whether one existed."""
        from ..polyhedra.cache import SNAPSHOT_NAME

        return self.memo_storage().delete(SNAPSHOT_NAME)

    # ------------------------------------------------------------------ #
    # The persisted incremental summary store (per-SCC procedure summaries
    # of the warm workers, see repro.core.incremental) lives in an
    # ``incremental`` namespace of the same backend.
    # ------------------------------------------------------------------ #
    def incremental_storage(self) -> CacheStorage:
        """The storage namespace holding the incremental summary store."""
        return self.storage.namespace("incremental")

    def incremental_store_stats(self) -> dict[str, Any]:
        """Presence/size/component counts of the incremental summary store."""
        from ..core.incremental import store_stats

        return store_stats(self.incremental_storage(), code_fingerprint())

    def clear_incremental_store(self) -> bool:
        """Remove the incremental summary store; returns whether one existed."""
        from ..core.incremental import STORE_NAME

        return self.incremental_storage().delete(STORE_NAME)

    def stats(self) -> dict[str, Any]:
        """Entry count, total size, and per-suite breakdown of the cache.

        The ``suites`` mapping counts entries by the suite that produced
        them; entries recorded outside any suite (``repro analyze``, the
        service) or predating the suite metadata appear under ``"(none)"``.
        The breakdown reads every entry: an on-demand report for ``repro
        cache stats``, not a monitoring probe.
        """
        names = list(self.storage.names())
        stats: dict[str, Any] = {
            "directory": self.storage.location(),
            "entries": len(names),
        }
        size = 0
        suites: dict[str, int] = {}
        for name in names:
            data = self.storage.read(name)
            if data is None:
                continue
            size += len(data)
            try:
                entry = json.loads(data.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                entry = None
            suite = (entry or {}).get("suite") or "(none)"
            suites[suite] = suites.get(suite, 0) + 1
        stats["bytes"] = size
        stats["suites"] = dict(sorted(suites.items()))
        return stats
