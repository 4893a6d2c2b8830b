"""Environment configuration shared by the engine, the CLI and the benches.

The bench harness historically read ``REPRO_FULL_BENCH`` from its own
``conftest.py``; the flag lives here now so the CLI, the examples and the
pytest harness stay in sync (``benchmarks/conftest.py`` re-exports it).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping

__all__ = [
    "FULL_BENCH_ENV",
    "CACHE_DIR_ENV",
    "NO_CACHE_ENV",
    "DEFAULT_SERVICE_PORT",
    "full_bench_enabled",
    "cache_enabled",
    "default_cache_directory",
]

#: Default TCP port of ``repro serve`` (CHORA was published at PLDI 2020).
#: Lives here — not in :mod:`repro.service` — so the CLI parser can show it
#: without importing the service (and http.server) on every invocation.
DEFAULT_SERVICE_PORT = 8734

#: Set to ``1`` to include the slowest benchmarks (strassen, qsort_steps,
#: closest_pair, ackermann, the full Fig.-3 sweep); closest_pair is the
#: slowest of them.
FULL_BENCH_ENV = "REPRO_FULL_BENCH"

#: Overrides where the on-disk result cache lives.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Set to ``1`` to disable the result cache entirely.
NO_CACHE_ENV = "REPRO_NO_CACHE"


def full_bench_enabled(environ: Mapping[str, str] = os.environ) -> bool:
    """Whether the slow benchmark rows should be included."""
    return environ.get(FULL_BENCH_ENV, "") == "1"


def cache_enabled(environ: Mapping[str, str] = os.environ) -> bool:
    """Whether the on-disk result cache should be used by default."""
    return environ.get(NO_CACHE_ENV, "") != "1"


def default_cache_directory(environ: Mapping[str, str] = os.environ) -> Path:
    """Where cached analysis results live unless the caller overrides it."""
    override = environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-chora"
