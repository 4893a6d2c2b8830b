"""Pluggable storage backends for the content-addressed result cache.

:class:`~repro.engine.cache.ResultCache` computes *what* to store (the
content key and the JSON entry); a :class:`CacheStorage` decides *where*.
The contract is deliberately tiny — atomic whole-entry reads and writes
under opaque string names — so that a backend can be a local directory, a
directory on a network file system shared by N machines (which is how
``repro bench --shard i/n`` turns N hosts into one batch: the cache key is
host-independent, so every shard reads the others' results from the shared
store), or an in-memory dict in tests.  A store holds result entries only:
warm analysis state (memo tables, per-SCC summaries) never leaves the
worker process that built it.

Contract
--------
* ``write`` is atomic per entry: a concurrent ``read`` sees either the
  complete previous value or the complete new value, never a torn one.
  Last-writer-wins races are benign because entries are content-addressed —
  two writers for one name are writing the same analysis result.
* Failures are the caller's problem only for ``read``-side corruption
  (handled by :class:`ResultCache` as a miss); ``write`` failures must not
  raise in a way that sinks an analysis batch (``ResultCache.put`` wraps
  them).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
import os
import tempfile
from pathlib import Path
from typing import Iterator, Optional

__all__ = ["CacheStorage", "DirectoryStorage", "MemoryStorage"]


class CacheStorage(ABC):
    """Atomic key→bytes storage for cache entries (see module docstring)."""

    @abstractmethod
    def read(self, name: str) -> Optional[bytes]:
        """The stored bytes for ``name``, or ``None`` when absent/unreadable."""

    @abstractmethod
    def write(self, name: str, data: bytes) -> None:
        """Atomically store ``data`` under ``name`` (may raise ``OSError``)."""

    @abstractmethod
    def delete(self, name: str) -> bool:
        """Remove ``name``; returns whether an entry was actually removed."""

    @abstractmethod
    def names(self) -> Iterator[str]:
        """Iterate over the stored entry names (order unspecified)."""

    @abstractmethod
    def location(self) -> str:
        """A human-readable description of where entries live."""


class DirectoryStorage(CacheStorage):
    """One file per entry in a directory (the default backend).

    Writes go through a temp file + ``os.replace`` so concurrent engines —
    including shards on different machines pointing at one shared directory
    — can mix reads and writes safely.
    """

    #: File extension of cache entries (kept from the pre-interface layout,
    #: so existing cache directories remain valid).
    SUFFIX = ".json"

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)

    def _path(self, name: str) -> Path:
        return self.directory / f"{name}{self.SUFFIX}"

    def read(self, name: str) -> Optional[bytes]:
        try:
            return self._path(name).read_bytes()
        except OSError:
            return None

    def write(self, name: str, data: bytes) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(
            dir=self.directory, prefix=".cache-", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data)
            os.replace(temp_path, self._path(name))
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def delete(self, name: str) -> bool:
        try:
            self._path(name).unlink()
            return True
        except OSError:
            return False

    def names(self) -> Iterator[str]:
        if not self.directory.is_dir():
            return
        for path in self.directory.glob(f"*{self.SUFFIX}"):
            yield path.name[: -len(self.SUFFIX)]

    def location(self) -> str:
        return str(self.directory)


class MemoryStorage(CacheStorage):
    """A process-local dict backend (tests, ephemeral service caches)."""

    def __init__(self) -> None:
        self._entries: dict[str, bytes] = {}

    def read(self, name: str) -> Optional[bytes]:
        return self._entries.get(name)

    def write(self, name: str, data: bytes) -> None:
        self._entries[name] = data

    def delete(self, name: str) -> bool:
        return self._entries.pop(name, None) is not None

    def names(self) -> Iterator[str]:
        yield from list(self._entries)

    def location(self) -> str:
        return "<memory>"
