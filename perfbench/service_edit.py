"""service-edit: an editor session against ``repro serve --workers 1``.

Set-up starts ``repro serve --workers 1`` on a fresh cache directory and
sends every fast row once.  ``setup_s`` is the median, over
:data:`READY_SPAWNS` fresh services, of the time from spawning the process
until ``/v1/healthz`` answers, plus the warm-up requests of the last one,
each calibrated on its own.

The measured phase is one keep-alive, closed-loop client (an editor that
waits for each answer) replaying the seeded hit/edit/rename stream of
:mod:`stream`.  It runs the HTTP front-end, the worker pool, the result
cache, the incremental store and the warm memo tables, none of which
paper-cold touches; the analysis layers do real work only on renames.

One worker, because with two workers and one client the cache misses
alternate between workers, and edit latency then depends on which worker
saw the original program.

The traced run replays the same set-up and the stream's first round in this
process, through the worker's own public entry points: a ``ResultCache``, an
``IncrementalAnalyzer`` installed with ``set_program_analyzer``,
``keep_warm`` and ``execute_task``.  One round keeps the per-layer totals on
the scale of ``wall_s``.  The HTTP/pool split comes from the untraced run.
"""

from __future__ import annotations

import http.client
import json
import math
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import tracing
from calibrate import Sample, measure
from rows import (
    Unit,
    answer_matches,
    calibrated,
    end_to_end,
    load_rows,
    normalized,
    peak_child_rss_mb,
    raw,
    unit_medians,
)
from stream import CLASSES, Request, build_stream, class_counts, setup_document

#: Fresh services timed from spawn to healthy; the median enters ``setup_s``.
READY_SPAWNS = 3

#: Calibrated seconds of one round (every row once per class) on the
#: reference machine; ``--seconds`` buys ``round(seconds / ROUND_REFERENCE_S)``
#: rounds (at least one).
ROUND_REFERENCE_S = 7.0

#: Client-side ceiling on one answer: far above any request.
REQUEST_TIMEOUT_S = 300.0

#: Ceiling on a service's start-up and on its clean shutdown.
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 120.0


class Service:
    """One ``repro serve --workers 1`` process on a fresh cache directory."""

    def __init__(self, env: Mapping[str, str], cache_dir: Path):
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", "1",
                "--cache-dir", str(cache_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        self.address: Optional[tuple[str, int]] = None

    def wait_ready(self) -> None:
        """Block until the banner is printed and ``/v1/healthz`` answers."""
        deadline = time.monotonic() + START_TIMEOUT_S
        readable, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_S)
        banner = self.process.stdout.readline() if readable else ""
        if " on http://" not in banner:
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        host, port = banner.split(" on http://", 1)[1].split()[0].rsplit(":", 1)
        self.address = (host, int(port))
        connection = http.client.HTTPConnection(*self.address, timeout=START_TIMEOUT_S)
        try:
            while True:
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return
                if time.monotonic() > deadline:
                    raise RuntimeError(f"repro serve healthz answered {response.status}")
                time.sleep(0.01)
        finally:
            connection.close()

    def stop(self) -> None:
        """SIGTERM (the clean shutdown path), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Client:
    """One keep-alive HTTP connection posting to ``/v1/analyze``."""

    def __init__(self, address: tuple[str, int]):
        self.connection = http.client.HTTPConnection(*address, timeout=REQUEST_TIMEOUT_S)

    def analyze(self, body: bytes) -> tuple[int, bytes]:
        self.connection.request(
            "POST", "/v1/analyze", body=body, headers={"Content-Type": "application/json"}
        )
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.connection.close()


def _body(document: Mapping[str, Any]) -> bytes:
    return json.dumps(document, sort_keys=True).encode("utf-8")


def _post(client: Client, request: Request, expected: Mapping[str, Any]) -> tuple[Unit, Any]:
    """Send one request, time it, and check the answer; return the unit and record."""
    body = _body(request.document)
    (status, data), sample = measure(lambda: client.analyze(body))
    record: Any = None
    ok = status == 200
    if ok:
        record = json.loads(data)
        ok = (
            record.get("outcome") == "ok"
            and answer_matches(expected, record.get("payload") or {})
            and record.get("cache_hit") == (request.kind == "hit")
        )
    return Unit(request.row, request.kind, sample, ok), record


def run(seed: int, seconds: int, trace: bool, env: Mapping[str, str], workdir: Path) -> dict:
    rows = load_rows()
    expected = {row.key: row.expected for row in rows}
    originals = {row.key: setup_document(row.task) for row in rows}
    warmup = [Request("setup", row.key, originals[row.key]) for row in rows]
    stream = build_stream(originals, max(1, round(seconds / ROUND_REFERENCE_S)), seed)

    services: list[Service] = []

    def start(index: int) -> Service:
        services.append(Service(env, workdir / f"serve-cache-{index}"))
        services[-1].wait_ready()
        return services[-1]

    ready: list[Sample] = []
    setup_units: list[Unit] = []
    units: list[Unit] = []
    records: list[Any] = []
    try:
        for index in range(READY_SPAWNS):
            service, sample = measure(lambda: start(index))
            ready.append(sample)
            if index < READY_SPAWNS - 1:
                service.stop()
        client = Client(service.address)
        try:
            for request in warmup:
                unit, record = _post(client, request, expected[request.row])
                setup_units.append(unit)
                records.append(record)
            for request in stream:
                unit, record = _post(client, request, expected[request.row])
                units.append(unit)
                records.append(record)
        finally:
            client.close()
    finally:
        for service in services:
            service.stop()
    peak_rss_mb = peak_child_rss_mb()

    def metrics(seconds_of) -> dict[str, float]:
        setup_s = statistics.median(seconds_of(sample) for sample in ready) + sum(
            seconds_of(unit.sample) for unit in setup_units
        )
        return end_to_end(setup_s, units, seconds_of, peak_rss_mb)

    report = {
        "setup": {
            "ready": [sample.to_dict() for sample in ready],
            "warmup": [unit.to_dict() for unit in setup_units],
        },
        "units": [unit.to_dict() for unit in units],
        "classes": class_counts(stream),
        "class_p50_ms": {
            kind: statistics.median(
                unit.sample.calibrated_s * 1000 for unit in units if unit.kind == kind
            )
            for kind in CLASSES
        },
        # Whether every hit beat every edit and every edit every rename, so
        # that the fast, middle and slow thirds are exactly the classes.
        "classes_separated": _separated(units),
        "metrics": metrics(calibrated),
        "raw_metrics": metrics(raw),
        "attempted": len(setup_units) + len(units),
        "failed": sum(not unit.ok for unit in setup_units + units),
        "checks": [],
    }
    if trace:
        # One round, so that per-layer totals compare with wall_s (one round).
        replayed = warmup + stream[: len(CLASSES) * len(rows)]
        report["trace"] = _traced_replay(
            replayed, records[: len(replayed)], ready, setup_units, units, workdir, report
        )
    return report


def _separated(units: Sequence[Unit]) -> bool:
    medians = unit_medians(units, calibrated)
    ranges = [
        [value for (kind, _), value in medians.items() if kind == wanted] for wanted in CLASSES
    ]
    return all(max(lower) < min(upper) for lower, upper in zip(ranges, ranges[1:]))


def _traced_replay(
    requests: Sequence[Request],
    records: Sequence[Any],
    ready: Sequence[Sample],
    setup_units: Sequence[Unit],
    units: Sequence[Unit],
    workdir: Path,
    report: dict,
) -> dict:
    """Replay ``requests`` in this process under the tracer; ``records`` are
    their HTTP answers.  Per-layer metrics cover the requests after set-up."""
    from repro.core import ChoraOptions, IncrementalAnalyzer, IncrementalReport
    from repro.engine import ResultCache, execute_task, set_program_analyzer
    from repro.polyhedra.cache import cache_stats, keep_warm
    from repro.service.server import task_from_request

    tracer = tracing.install()
    cache = ResultCache(workdir / "replay-cache")
    options = ChoraOptions()
    analyzer = IncrementalAnalyzer()
    previous = set_program_analyzer(analyzer.analyze)
    stream_start = len(setup_units)
    factors: dict[int, float] = {}
    memo: dict = {}
    reused = analysed = 0
    traced_units = []
    try:
        with keep_warm():
            for index, (request, record) in enumerate(zip(requests, records)):
                task, _ = task_from_request(_body(request.document), "application/json")

                def serve() -> tuple[dict, bool]:
                    # The pool's path: the result cache, then a warm worker.
                    key = cache.key(task, options)
                    payload = cache.get(key)
                    if payload is not None:
                        return payload, True
                    payload = execute_task(task, options)
                    cache.put(key, payload, task_name=task.name, suite=task.suite)
                    return payload, False

                tracer.unit = index
                analyzer.last_report = IncrementalReport()
                cubes_before, memo_before = tracer.cubes, cache_stats()
                (payload, hit), sample = measure(serve)
                report["attempted"] += 1
                problem = _replay_problem(request, record, payload, hit, analyzer.last_report)
                if problem:
                    report["failed"] += 1
                    report["checks"].append(f"request {index} ({request.kind} {request.row}): {problem}")
                if index < stream_start:
                    tracer.cubes = cubes_before  # count the stream's cubes only
                    continue
                factors[index] = sample.factor
                traced_units.append(Unit(request.row, request.kind, sample, True))
                tracing.add_memo(memo, tracing.memo_delta(memo_before, cache_stats()))
                reused += len(analyzer.last_report.reused)
                analysed += len(analyzer.last_report.analyzed)
    finally:
        set_program_analyzer(previous)

    spans = tracer.take()
    calls, self_s, functions = tracing.layer_totals(spans, factors)
    # Whether a function runs at all is a property of the workload, set-up
    # included: a warm round can answer every question of a rare kind
    # (exact satisfiability, say) from the memo tables.
    for label in tracing.idle_functions("service-edit", Counter(span[1] for span in spans)):
        report["failed"] += 1
        report["checks"].append(f"{label} recorded no call on service-edit")
    answered = [
        (unit.sample, record["wall_time"])
        for unit, record in zip(units, records[stream_start:])
        if record is not None
    ]
    frontend_ms = [(sample.raw_s - pool_s) * sample.factor * 1000 for sample, pool_s in answered]
    pool_ms = [pool_s * sample.factor * 1000 for sample, pool_s in answered]
    metrics = tracing.layer_metrics(calls, self_s, tracer.cubes, memo)
    metrics.update(
        {
            "setup.import_s": 0.0,
            "setup.serve_ready_s": statistics.median(sample.calibrated_s for sample in ready),
            "setup.warmup_s": sum(unit.sample.calibrated_s for unit in setup_units),
            "engine.dispatch_ms": 0.0,
            "service.frontend_ms": statistics.median(frontend_ms),
            "service.pool_ms": statistics.median(pool_ms),
            "core.incremental.reused_frac": reused / (reused + analysed) if reused + analysed else 0.0,
            "trace.overhead_s": math.fsum(unit_medians(traced_units, calibrated).values())
            - report["metrics"]["wall_s"],
        }
    )
    return {
        "metrics": metrics,
        "function_calls": dict(sorted(functions.items())),
        "memo": memo,
        "sites": tracer.sites,
        "spans": spans,
    }


def _replay_problem(request: Request, record: Any, payload: dict, hit: bool, report: Any) -> str:
    """Why a replayed request disagrees with its HTTP twin or its class ('' if not)."""
    if record is None or normalized(payload) != normalized(record.get("payload")):
        return "traced payload differs from the untraced payload"
    if request.kind == "hit" and not hit:
        return "the result cache missed a resubmission"
    if request.kind == "edit" and (hit or len(report.analyzed) != 1):
        return f"an edit re-analysed {list(report.analyzed)}, not just its helper"
    if request.kind == "rename" and (hit or report.reused):
        return f"a rename spliced {list(report.reused)}"
    return ""
