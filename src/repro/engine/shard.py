"""Deterministic suite sharding over the host-independent cache key.

``repro bench --shard i/n`` splits a suite into ``n`` disjoint, exhaustive
shards so that ``n`` machines pointing at one shared cache directory act as
one batch.  The partition is a pure function of each task's *cache
material* (the semantic fields that determine its analysis output — the
same material the result cache keys on), so:

* every machine computes the same partition with no coordination,
* renaming a benchmark or re-ordering a suite does not move work between
  shards, and
* a task appearing in two suites lands on the same shard both times.

After running its own slice, a shard *merges*: tasks owned by other shards
are looked up in the shared :class:`~repro.engine.cache.ResultCache` and
reported as cache hits when present, or as ``pending`` (with the owning
shard named) when that shard has not finished yet.  Once every shard has
run, any one of them therefore reports the complete suite — with verdicts
bit-identical to an unsharded run, because cached payloads are exactly what
the unsharded engine would have computed.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Optional, Sequence

from ..core import ChoraOptions
from .batch import BatchResult, fill_unreported
from .cache import ResultCache
from .tasks import AnalysisTask

__all__ = [
    "parse_shard",
    "shard_index",
    "partition_tasks",
    "merge_foreign_results",
    "merged_shard_results",
]

_SHARD_SPEC = re.compile(r"^(\d+)/(\d+)$")


def parse_shard(spec: str) -> tuple[int, int]:
    """Parse an ``i/n`` shard spec into 1-based ``(index, count)``.

    Raises ``ValueError`` on malformed specs, ``n < 1`` or ``i`` outside
    ``1..n``.
    """
    match = _SHARD_SPEC.match(spec.strip())
    if not match:
        raise ValueError(f"bad shard spec {spec!r} (expected I/N, e.g. 2/4)")
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1:
        raise ValueError(f"bad shard spec {spec!r}: shard count must be >= 1")
    if not 1 <= index <= count:
        raise ValueError(f"bad shard spec {spec!r}: index must be in 1..{count}")
    return index, count


def shard_index(task: AnalysisTask, count: int) -> int:
    """The 1-based shard that owns ``task`` in an ``n=count`` partition.

    Derived from a SHA-256 of the task's cache material, so the assignment
    is deterministic across hosts, processes and suite orderings.
    """
    material = json.dumps(
        task.cache_material(), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(material.encode("utf-8")).hexdigest()
    return int(digest[:16], 16) % count + 1


def partition_tasks(
    tasks: Sequence[AnalysisTask], index: int, count: int
) -> tuple[list[tuple[int, AnalysisTask]], list[tuple[int, AnalysisTask]]]:
    """Split ``tasks`` into (mine, foreign) slices for shard ``index``/``count``.

    Both slices carry the original task positions so a merged report can be
    reassembled in suite order.
    """
    mine: list[tuple[int, AnalysisTask]] = []
    foreign: list[tuple[int, AnalysisTask]] = []
    for position, task in enumerate(tasks):
        if shard_index(task, count) == index:
            mine.append((position, task))
        else:
            foreign.append((position, task))
    return mine, foreign


def merge_foreign_results(
    foreign: Sequence[tuple[int, AnalysisTask]],
    cache: ResultCache,
    options: ChoraOptions,
    count: int,
) -> list[tuple[int, BatchResult]]:
    """Resolve other shards' tasks from the shared store.

    Each foreign task becomes either a cache-hit :class:`BatchResult`
    (bit-identical to what its owning shard computed) or a ``pending``
    record naming the shard responsible for it.
    """
    merged: list[tuple[int, BatchResult]] = []
    for position, task in foreign:
        payload = cache.get(cache.key(task, options))
        if payload is not None:
            result = BatchResult.succeeded(task, payload, 0.0, True)
        else:
            result = BatchResult.failed(
                task,
                "pending",
                0.0,
                f"owned by shard {shard_index(task, count)}/{count};"
                " not in the shared cache yet",
            )
        merged.append((position, result))
    return merged


def merged_shard_results(
    tasks: Sequence[AnalysisTask],
    own_results: Sequence[BatchResult],
    mine: Sequence[tuple[int, AnalysisTask]],
    foreign: Sequence[tuple[int, AnalysisTask]],
    cache: ResultCache,
    options: ChoraOptions,
    count: int,
) -> list[BatchResult]:
    """Assemble the full suite report of one shard run, in suite order.

    Every task of the suite appears exactly once in the report: a slot that
    received neither an own result nor a merged foreign one (an engine
    bookkeeping bug, e.g. ``own_results`` shorter than ``mine``) is filled
    with an explicit ``error`` record instead of being dropped — a silently
    shortened report would read as a smaller suite.
    """
    slots: list[Optional[BatchResult]] = [None] * len(tasks)
    for (position, _), result in zip(mine, own_results):
        slots[position] = result
    for position, result in merge_foreign_results(foreign, cache, options, count):
        slots[position] = result
    return fill_unreported(tasks, slots)
