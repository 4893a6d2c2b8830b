"""The ``repro`` command line interface.

::

    repro analyze FILE [--procedure P] [--cost-variable V] [--sub k=v ...]
                [--lint]
    repro bench --suite table1|fig3|table2|all [--tool chora|icra|unrolling]
                [--depth N] [--jobs N] [--full] [--json]
                [--engine pool|warm] [--lint]
    repro lint FILE ... [--severity error|warning|info] [--disable CODES]
               [--json]
    repro batch --url URL (--suite NAME | --tasks FILE) [--deadline-ms MS]
                [--retry-429 N] [--json]
    repro serve [--host H] [--port P] [--workers N] [--timeout S]
                [--backlog N]
    repro fuzz [--seed S] [--count N] [--runs R] [--size K] [--minimize]
               [--out DIR] [--no-baselines] [--jobs N] [--timeout S] [--json]
    repro suites
    repro cache stats|clear [--cache-dir DIR]

``analyze`` runs the full CHORA pipeline on one mini-language file and prints
the procedure summaries, assertion verdicts and (when a procedure is named)
the cost bound.  ``bench`` reproduces an evaluation artefact of the paper
through the batch engine: programs run concurrently in worker processes,
results are cached on disk, and a pathological program can at worst time out
— never sink the batch; ``--tool`` swaps in one of the paper's comparison
baselines, ``--engine warm`` serves the batch from long-lived warm workers
instead of one process per task; under the default engine every task the
cache misses runs cold in its own fork.  ``bench`` exits 1 when a row errors
or crashes; a timed-out row is not a failure.  ``serve`` starts the warm
analysis service, whose workers keep their warm state in memory for as long
as they live: an asyncio HTTP endpoint
(versioned under ``/v1``, with keep-alive, bounded admission, per-request
deadlines and a ``/v1/metrics`` SLO document that also carries the pool
counters) whose ``POST /v1/analyze`` accepts program source and returns the
same JSON records as ``repro analyze --json`` and whose ``POST /v1/batch``
runs whole suites; ``batch`` is the matching client — it sends a suite (or
an inline task list) to a remote service and renders the records exactly
like ``repro bench``.
``lint`` runs the semantic diagnostics passes (see ``docs/linting.md``)
over program files without analysing them: exit status 1 when any
error-severity diagnostic fires, 0 otherwise; ``analyze`` and ``bench``
accept ``--lint`` to reject invalid programs (error diagnostics) before
spending analysis time on them — on lint-clean programs a gated run is
bit-identical to an ungated one.
``fuzz`` runs the differential fuzzer: seeded random programs, every
analyser claim cross-checked against concrete interpreter runs, findings
written to ``--out`` (minimized with ``--minimize``); exit status 1 when a
campaign surfaces a violation.

The full command reference with examples lives in ``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

from .benchlib.suites import SUITES, suite_names
from .engine.suites import TOOLS
from .core import ChoraOptions
from .engine import (
    AnalysisTask,
    BatchEngine,
    BatchResult,
    ResultCache,
    default_cache_directory,
    full_bench_enabled,
    make_cache,
    suite_tasks,
    summarize_batch,
)
from .engine.config import DEFAULT_SERVICE_PORT
from .lint import SEVERITIES as _LINT_SEVERITIES
from .reporting import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CHORA reproduction: templates and recurrences, better together.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="analyse one mini-language program file"
    )
    analyze.add_argument("file", type=Path, help="path to the program source")
    analyze.add_argument(
        "--procedure", help="procedure to extract a cost bound from"
    )
    analyze.add_argument(
        "--cost-variable",
        default="cost",
        help="instrumented cost variable (default: cost)",
    )
    analyze.add_argument(
        "--sub",
        action="append",
        default=[],
        metavar="NAME=INT",
        help="substitute a parameter in the bound (repeatable)",
    )
    _lint_gate_argument(analyze)
    _engine_arguments(analyze, jobs=False)

    lint = commands.add_parser(
        "lint", help="run the semantic diagnostics passes over program files"
    )
    lint.add_argument(
        "files", type=Path, nargs="+", metavar="FILE", help="program sources to lint"
    )
    lint.add_argument(
        "--severity",
        choices=list(_LINT_SEVERITIES),
        default=_LINT_SEVERITIES[-1],
        help="report only diagnostics at least this severe (default: all)",
    )
    lint.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="CODES",
        help="comma-separated diagnostic codes to suppress (repeatable),"
        " e.g. --disable R003,R101",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    bench = commands.add_parser(
        "bench", help="run one of the paper's benchmark suites through the engine"
    )
    bench.add_argument(
        "--suite",
        required=True,
        choices=sorted(suite_names()) + ["all"],
        help="which evaluation artefact to reproduce",
    )
    bench.add_argument(
        "--full",
        action="store_true",
        help="include the 16 slow rows (closest_pair is the slowest; "
        "default honours REPRO_FULL_BENCH)",
    )
    bench.add_argument(
        "--tool",
        choices=sorted(TOOLS),
        default="chora",
        help="analyser to run the suite with: chora (native) or one of the"
        " paper's comparison baselines (default: chora)",
    )
    bench.add_argument(
        "--depth",
        type=int,
        default=None,
        metavar="N",
        help="unrolling depth for --tool unrolling (default: the unroller's)",
    )
    bench.add_argument(
        "--engine",
        choices=["pool", "warm"],
        default="pool",
        help="pool: one forked process per task (default); warm: long-lived"
        " warm workers with hot caches (see repro serve)",
    )
    _lint_gate_argument(bench)
    _engine_arguments(bench, jobs=True)

    serve = commands.add_parser(
        "serve", help="serve analysis requests over HTTP from warm workers"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_SERVICE_PORT,
        help=f"TCP port; 0 picks a free one (default: {DEFAULT_SERVICE_PORT})",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="number of warm worker processes (default: 2)",
    )
    serve.add_argument(
        "--backlog",
        type=int,
        default=None,
        metavar="N",
        help="admission queue length beyond the worker count: at most"
        " workers+N analysis requests in flight before the service answers"
        " 429 (default: 16)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    _engine_arguments(serve, jobs=False, json_flag=False)

    batch = commands.add_parser(
        "batch",
        help="send a suite (or inline tasks) to a remote repro serve /batch",
    )
    batch.add_argument(
        "--url",
        required=True,
        metavar="URL",
        help="base URL of a running analysis service, e.g."
        " http://127.0.0.1:8734",
    )
    batch.add_argument(
        "--suite",
        choices=sorted(suite_names()) + ["all"],
        default=None,
        help="suite to run remotely (the service resolves it from its own"
        " benchmark registry)",
    )
    batch.add_argument(
        "--full",
        action="store_true",
        help="include the slow rows (resolved by the service)",
    )
    batch.add_argument(
        "--tool",
        choices=sorted(TOOLS),
        default="chora",
        help="analyser the service should run the suite with (default: chora)",
    )
    batch.add_argument(
        "--depth",
        type=int,
        default=None,
        metavar="N",
        help="unrolling depth for --tool unrolling (default: the unroller's)",
    )
    batch.add_argument(
        "--tasks",
        type=Path,
        default=None,
        metavar="FILE",
        help="send an inline task list instead of a suite: a JSON list of"
        " /analyze-shaped task objects (mutually exclusive with --suite)",
    )
    batch.add_argument(
        "--http-timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="client-side HTTP timeout for the whole batch (default: 600)",
    )
    batch.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="server-side deadline for the whole batch (X-Repro-Deadline-Ms;"
        " the service answers 504 past it)",
    )
    batch.add_argument(
        "--retry-429",
        type=int,
        default=2,
        metavar="N",
        help="how many times to retry a 429 backpressure answer, honouring"
        " the service's Retry-After hint (0 fails fast; default: 2)",
    )
    batch.add_argument(
        "--json", action="store_true", help="emit the service's JSON document"
    )

    fuzz = commands.add_parser(
        "fuzz",
        help="differential fuzzing: random programs, analyser claims checked"
        " against seeded concrete executions",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    fuzz.add_argument(
        "--count", type=int, default=100, help="programs to generate (default: 100)"
    )
    fuzz.add_argument(
        "--runs",
        type=int,
        default=10,
        help="seeded concrete interpreter runs per program (default: 10)",
    )
    fuzz.add_argument(
        "--size", type=int, default=3, help="generator size budget (default: 3)"
    )
    fuzz.add_argument(
        "--no-baselines",
        action="store_true",
        help="check only CHORA's claims (skip the unrolling and ICRA baselines)",
    )
    fuzz.add_argument(
        "--minimize",
        action="store_true",
        help="shrink each finding to a minimal reproducer (slower: every"
        " shrink candidate is re-analysed)",
    )
    fuzz.add_argument(
        "--out",
        type=Path,
        default=Path("fuzz-findings"),
        help="directory for finding artifacts (default: fuzz-findings/)",
    )
    _engine_arguments(fuzz, jobs=True)

    commands.add_parser("suites", help="list the benchmark suites")

    cache = commands.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=["stats", "clear"])
    _cache_location_arguments(cache)

    return parser


def _timeout_seconds(text: str) -> float:
    """Parse ``--timeout``: a non-negative float; ``0`` is a real deadline.

    ``0`` means an *immediate* deadline — every task times out — which is
    what a literal reading of "0 seconds" promises, and is occasionally
    useful (e.g. draining a suite into pure cache-hit reporting).  It must
    never silently disable the deadline; omitting the flag does that.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid timeout {text!r}") from None
    if not math.isfinite(value):
        # NaN compares False against every deadline check downstream, which
        # would silently disable the deadline; infinities are just "omit
        # the flag" in disguise.
        raise argparse.ArgumentTypeError(
            f"timeout must be a finite number of seconds, got {text}"
        )
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"timeout must be >= 0 seconds, got {text}"
        )
    return value


def _engine_arguments(
    parser: argparse.ArgumentParser,
    jobs: bool,
    json_flag: bool = True,
) -> None:
    if jobs:
        parser.add_argument(
            "--jobs",
            "-j",
            type=int,
            default=1,
            help="number of concurrent worker processes (default: 1)",
        )
    parser.add_argument(
        "--timeout",
        type=_timeout_seconds,
        default=None,
        metavar="SECONDS",
        help="per-program deadline; 0 is an immediate deadline, omit the"
        " flag for no deadline (default: none)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    _cache_location_arguments(parser)
    if json_flag:
        parser.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )


def _cache_location_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="result cache location (default: REPRO_CACHE_DIR or ~/.cache/repro-chora)",
    )


def _lint_gate_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lint",
        action="store_true",
        help="lint each program first and reject those with error-severity"
        " diagnostics (structured task errors, never crashes); lint-clean"
        " programs analyse bit-identically to a run without --lint",
    )


def _apply_lint_gate(arguments: argparse.Namespace) -> None:
    """Install ``--lint`` process-wide so forked and spawned workers see it.

    An environment variable, because it must reach worker processes
    without entering task cache keys.  ``main`` restores the variable on
    exit so in-process callers (tests, embedding) do not gate every later
    run.
    """
    if getattr(arguments, "lint", False):
        import os

        from .engine.tasks import LINT_GATE_ENV

        os.environ[LINT_GATE_ENV] = "1"


def _make_engine(arguments: argparse.Namespace) -> BatchEngine:
    return BatchEngine(
        jobs=getattr(arguments, "jobs", 1),
        # None (flag omitted) disables the deadline; 0 is a real, immediate
        # deadline and must not be coerced away.
        timeout=arguments.timeout,
        cache=make_cache(
            no_cache=getattr(arguments, "no_cache", False),
            directory=arguments.cache_dir,
        ),
        options=ChoraOptions(),
    )


# ---------------------------------------------------------------------- #
# Sub-commands
# ---------------------------------------------------------------------- #
def _command_analyze(arguments: argparse.Namespace) -> int:
    _apply_lint_gate(arguments)
    try:
        source = arguments.file.read_text(encoding="utf-8")
    except OSError as error:
        print(f"repro: cannot read {arguments.file}: {error}", file=sys.stderr)
        return 2
    # A malformed program is the user's typo, not an analysis failure:
    # report the conventional one-line file:line diagnostic and exit 2
    # before spending engine time on it.
    from .lang import ParseError, parse_program
    from .lint import parse_failure_diagnostic

    try:
        parse_program(source)
    except ParseError as error:
        print(parse_failure_diagnostic(error).render(str(arguments.file)), file=sys.stderr)
        return 2
    substitutions = []
    for item in arguments.sub:
        name, _, value = item.partition("=")
        try:
            substitutions.append((name, int(value)))
        except ValueError:
            print(f"repro: bad --sub {item!r} (expected NAME=INT)", file=sys.stderr)
            return 2
    task = AnalysisTask(
        name=arguments.file.stem,
        source=source,
        kind="analyze",
        procedure=arguments.procedure,
        cost_variable=arguments.cost_variable,
        substitutions=tuple(sorted(substitutions)),
    )
    engine = _make_engine(arguments)
    result = engine.run([task])[0]
    if arguments.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0 if result.ok else 1
    if not result.ok:
        # The payload-level detail is a full traceback; the last line is the
        # exception itself, which is what a user typo needs to see.
        lines = [line for line in result.detail.splitlines() if line.strip()]
        detail = lines[-1] if lines else result.detail
        print(f"{result.outcome}: {detail}", file=sys.stderr)
        # Front-end rejections (unsupported constructs, --lint errors) are
        # usage errors like a parse failure, not analysis failures.
        return 2 if result.detail.startswith("invalid-program:") else 1
    payload = result.payload
    for name, text in payload.get("summaries", {}).items():
        print(f"=== {name} ===")
        print(text)
        print()
    for outcome in payload.get("assertions", []):
        status = "PROVED " if outcome["proved"] else "UNKNOWN"
        print(f"{status} assert({outcome['text']}) in {outcome['procedure']}")
    if payload.get("bound") is not None:
        expression = payload.get("expression")
        suffix = f"  [{expression}]" if expression else ""
        print(f"cost bound for {arguments.procedure}: {payload['bound']}{suffix}")
    cached = " (cached)" if result.cache_hit else ""
    print(f"done in {result.wall_time:.2f}s{cached}")
    return 0


def _command_bench(arguments: argparse.Namespace) -> int:
    _apply_lint_gate(arguments)
    full = arguments.full or full_bench_enabled()
    try:
        tasks = suite_tasks(
            arguments.suite, full, tool=arguments.tool, depth=arguments.depth
        )
    except ValueError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    options = ChoraOptions()
    cache = make_cache(
        no_cache=getattr(arguments, "no_cache", False),
        directory=arguments.cache_dir,
    )

    def progress(result: BatchResult) -> None:
        if not arguments.json:
            print(f"  {result.name}: {_verdict(result)}", flush=True)

    if arguments.engine == "warm":
        from .service import WorkerPool, run_batch

        with WorkerPool(
            workers=arguments.jobs,
            timeout=arguments.timeout,
            options=options,
            cache=cache,
        ) as pool:
            # The same suite-serving path POST /batch uses, so a local warm
            # bench and a served suite return identical records.
            results, _ = run_batch(
                pool, tasks, suite=arguments.suite, progress=progress
            )
    else:
        engine = BatchEngine(
            jobs=arguments.jobs,
            timeout=arguments.timeout,
            cache=cache,
            options=options,
        )
        results = engine.run(tasks, progress=progress)

    totals = summarize_batch(results)
    if arguments.json:
        print(
            json.dumps(
                {
                    "suite": arguments.suite,
                    "tool": arguments.tool,
                    "engine": arguments.engine,
                    "jobs": arguments.jobs,
                    "full": full,
                    "results": [result.to_dict() for result in results],
                    "totals": totals,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        _print_batch_report(results, totals)
    return 1 if totals["error"] or totals["crash"] else 0


def _print_batch_report(results, totals: dict) -> None:
    """The human-readable table + summary line shared by bench and batch."""
    print()
    print(
        format_table(
            ["benchmark", "suite", "kind", "outcome", "verdict", "time", "cache"],
            [
                [
                    result.name,
                    result.suite or "-",
                    result.kind,
                    result.outcome,
                    _verdict(result),
                    f"{result.wall_time:.2f}s",
                    "hit" if result.cache_hit else "-",
                ]
                for result in results
            ],
        )
    )
    # Defaults: local engines always fill every counter, but this also
    # renders responses from a remote service of another version.
    def count(key: str):
        value = totals.get(key)
        return value if isinstance(value, (int, float)) else 0

    crash = f", {count('crash')} crash" if count("crash") else ""
    print(
        f"\n{count('ok')}/{count('total')} ok, {count('proved')} proved, "
        f"{count('timeout')} timeout, {count('error')} error{crash}, "
        f"{count('cache_hits')} cache hits, {count('wall_time'):.2f}s total"
    )


def _command_batch(arguments: argparse.Namespace) -> int:
    """Client mode: run a suite on a remote ``repro serve`` via POST /v1/batch."""
    from .service.client import (
        MalformedResponse,
        ServiceClient,
        ServiceHTTPError,
        ServiceUnreachable,
    )

    if (arguments.suite is None) == (arguments.tasks is None):
        print(
            "repro batch: pass exactly one of --suite NAME or --tasks FILE",
            file=sys.stderr,
        )
        return 2
    if arguments.tasks is not None:
        # An inline task list carries its own kind/params per task; suite
        # options silently doing nothing would mislabel measurements.
        if arguments.tool != "chora" or arguments.depth is not None or arguments.full:
            print(
                "repro batch: --tool/--depth/--full apply to --suite runs;"
                " inline --tasks objects set their own kind and params",
                file=sys.stderr,
            )
            return 2
        try:
            items = json.loads(arguments.tasks.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            print(f"repro batch: cannot read {arguments.tasks}: {error}", file=sys.stderr)
            return 2
        if not isinstance(items, list):
            print(
                f"repro batch: {arguments.tasks} must hold a JSON list of"
                " task objects",
                file=sys.stderr,
            )
            return 2
        body: dict = {"tasks": items}
    else:
        body = {
            "suite": arguments.suite,
            "full": arguments.full or full_bench_enabled(),
            "tool": arguments.tool,
        }
        if arguments.depth is not None:
            body["depth"] = arguments.depth
    try:
        with ServiceClient(arguments.url, timeout=arguments.http_timeout) as client:
            document = client.batch(
                body,
                deadline_ms=arguments.deadline_ms,
                retries_429=arguments.retry_429,
            ).document
    except ServiceHTTPError as error:
        # The envelope names the failure precisely; quote it.  429 and 504
        # are the service's SLO protections doing their job, called out as
        # such rather than reported as generic HTTP failures.
        hint = ""
        if error.status == 429 and error.retry_after is not None:
            hint = f" (retry after {error.retry_after:g}s)"
        rid = f" [{error.request_id}]" if error.request_id else ""
        print(
            f"repro batch: the service answered {error.status}"
            f" {error.code or 'error'}: {error.message}{hint}{rid}",
            file=sys.stderr,
        )
        return 2
    except ServiceUnreachable as error:
        print(f"repro batch: cannot reach {arguments.url}: {error}", file=sys.stderr)
        return 2
    except MalformedResponse as error:
        print(f"repro batch: malformed service response: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"repro batch: {error}", file=sys.stderr)
        return 2
    if not isinstance(document, dict):
        print("repro batch: malformed service response: not a JSON object",
              file=sys.stderr)
        return 2
    try:
        results = [BatchResult.from_dict(r) for r in document.get("results", [])]
        totals = dict(document["totals"])
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        print(f"repro batch: malformed service response: {error}", file=sys.stderr)
        return 2
    if arguments.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        _print_batch_report(results, totals)
        spliced = sum(
            len(entry.get("reused", ()))
            for entry in document.get("incremental", [])
            if isinstance(entry, dict)
        )
        print(f"{spliced} procedure summaries spliced by the service")
    if totals.get("error") or totals.get("crash"):
        return 1
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    from .service import serve as build_server

    cache = make_cache(
        no_cache=getattr(arguments, "no_cache", False),
        directory=arguments.cache_dir,
    )
    try:
        # serve() binds the socket before forking the pool, so a busy port
        # fails here with nothing to clean up.
        from .service.server import DEFAULT_BACKLOG

        server = build_server(
            host=arguments.host,
            port=arguments.port,
            workers=arguments.workers,
            timeout=arguments.timeout,
            cache=cache,
            verbose=arguments.verbose,
            backlog=(
                arguments.backlog
                if arguments.backlog is not None
                else DEFAULT_BACKLOG
            ),
        )
    except OSError as error:
        print(
            f"repro serve: cannot bind {arguments.host}:{arguments.port}: {error}",
            file=sys.stderr,
        )
        return 2
    host, port = server.address
    routes = ", ".join(f"{method} {name}" for name, method in server.ROUTES.items())
    # SIGTERM (what init systems and CI send) must take the same clean
    # shutdown path as Ctrl-C, so the server stops and joins its workers
    # instead of dying past them; background jobs in non-interactive shells
    # cannot even receive SIGINT.  Callers wait for the banner before they
    # signal, so it is printed only once the handler is in place.
    import signal

    def _on_sigterm(signum, frame):
        raise KeyboardInterrupt

    previous = None
    try:
        try:
            previous = signal.signal(signal.SIGTERM, _on_sigterm)
        except ValueError:  # not on the main thread (embedded in tests)
            pass
        print(
            f"repro serve: {arguments.workers} warm workers on http://{host}:{port}"
            f" (/v1: {routes}; admits {server.capacity} requests; Ctrl-C stops)",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        server.close()
    return 0


def _verdict(result: BatchResult) -> str:
    if result.outcome != "ok":
        return result.outcome
    if result.bound is not None:
        return result.bound
    if result.proved is not None:
        return "proved" if result.proved else "unknown"
    return "ok"


#: Per-program deadline applied when ``repro fuzz`` is run without
#: ``--timeout``: unlike the benchmark suites, generated programs have no
#: curated size, so an unbounded campaign could sink on one pathological
#: program.
FUZZ_DEFAULT_TIMEOUT = 60.0


def _fuzz_violation_kinds(result: BatchResult) -> set[str]:
    """The violation kinds one fuzz task exhibited (empty = clean/skipped).

    Engine-level outcomes map onto finding kinds: a worker crash is an
    analyser bug (``analyzer-crash``), a task error is an infrastructure or
    generator bug (``oracle-error``); timeouts are skips, not findings.
    """
    if result.outcome == "crash":
        return {"analyzer-crash"}
    if result.outcome == "error":
        return {"oracle-error"}
    if result.outcome != "ok":
        return set()
    findings = result.payload.get("findings", [])
    return {f["kind"] for f in findings if f["kind"] != "disagreement"}


def _command_fuzz(arguments: argparse.Namespace) -> int:
    # Importing the package registers the "fuzz" task kind; workers inherit
    # the registration through fork.
    from .fuzz import GeneratorConfig, format_program, generate_program, program_seed
    from .fuzz.shrink import shrink_program

    if arguments.timeout is None:
        arguments.timeout = FUZZ_DEFAULT_TIMEOUT
    config = GeneratorConfig(size=arguments.size)
    params = (
        ("runs", arguments.runs),
        ("seed", arguments.seed),
        ("baselines", not arguments.no_baselines),
    )
    tasks = []
    for index in range(arguments.count):
        seed = program_seed(arguments.seed, index)
        source = format_program(generate_program(seed, config))
        tasks.append(
            AnalysisTask(
                name=f"fuzz-s{arguments.seed}-{index:04d}",
                source=source,
                kind="fuzz",
                params=params + (("program_seed", seed),),
                suite="fuzz",
            )
        )

    done = 0

    def progress(result: BatchResult) -> None:
        nonlocal done
        done += 1
        if not arguments.json:
            kinds = _fuzz_violation_kinds(result)
            status = ",".join(sorted(kinds)) if kinds else result.outcome
            print(f"  [{done}/{len(tasks)}] {result.name}: {status}", flush=True)

    engine = _make_engine(arguments)
    results = engine.run(tasks, progress=progress)

    # ---- collect findings ---------------------------------------------- #
    task_by_name = {task.name: task for task in tasks}
    findings: list[dict] = []
    skipped = 0
    for result in results:
        if result.outcome == "timeout":
            skipped += 1
            continue
        kinds = _fuzz_violation_kinds(result)
        if not kinds:
            continue
        record = {
            "name": result.name,
            "campaign_seed": arguments.seed,
            "program_seed": task_by_name[result.name].param("program_seed"),
            "outcome": result.outcome,
            "kinds": sorted(kinds),
            "findings": list(result.payload.get("findings", []))
            or [{"kind": next(iter(kinds)), "detail": result.detail}],
            "claims": dict(result.payload.get("claims", {})),
            "source": task_by_name[result.name].source,
        }
        findings.append(record)

    # ---- minimize ------------------------------------------------------ #
    if arguments.minimize and findings:
        shrink_engine = BatchEngine(
            jobs=1,
            timeout=arguments.timeout,
            cache=None,
            options=ChoraOptions(),
        )

        def reproduces_factory(kinds: set[str]):
            def reproduces(candidate: str) -> bool:
                probe = AnalysisTask(
                    name="shrink-probe", source=candidate, kind="fuzz", params=params
                )
                outcome = shrink_engine.run([probe])[0]
                return bool(_fuzz_violation_kinds(outcome) & kinds)

            return reproduces

        for record in findings:
            if not arguments.json:
                print(f"  minimizing {record['name']} ...", flush=True)
            record["minimized_source"] = shrink_program(
                record["source"], reproduces_factory(set(record["kinds"]))
            )

    # ---- artifacts ------------------------------------------------------ #
    if findings:
        arguments.out.mkdir(parents=True, exist_ok=True)
        for record in findings:
            stem = arguments.out / record["name"]
            stem.with_suffix(".c").write_text(record["source"], encoding="utf-8")
            if "minimized_source" in record:
                (arguments.out / f"{record['name']}.min.c").write_text(
                    record["minimized_source"], encoding="utf-8"
                )
            stem.with_suffix(".json").write_text(
                json.dumps(
                    {key: value for key, value in record.items() if key != "source"},
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
                encoding="utf-8",
            )

    # ---- report --------------------------------------------------------- #
    disagreements = sum(
        1
        for result in results
        if result.outcome == "ok"
        for f in result.payload.get("findings", [])
        if f["kind"] == "disagreement"
    )
    if arguments.json:
        print(
            json.dumps(
                {
                    "seed": arguments.seed,
                    "count": arguments.count,
                    "runs": arguments.runs,
                    "checked": len(results) - skipped,
                    "skipped": skipped,
                    "disagreements": disagreements,
                    "violations": findings,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            f"\n{len(results) - skipped}/{len(results)} programs checked"
            f" ({skipped} timed out), {len(findings)} with violations,"
            f" {disagreements} precision disagreements"
        )
        for record in findings:
            print(f"\n{record['name']} ({', '.join(record['kinds'])}):")
            for finding in record["findings"]:
                print(f"  - {finding['detail']}")
            print(f"  artifacts: {arguments.out / record['name']}.c / .json")
    return 1 if findings else 0


def _command_lint(arguments: argparse.Namespace) -> int:
    """Lint program files; exit 1 on error diagnostics, 0 otherwise."""
    from .lint import filter_diagnostics, has_errors, lint_source

    disabled = [
        code for item in arguments.disable for code in item.split(",") if code
    ]
    any_errors = False
    total = 0
    documents: list[dict] = []
    for path in arguments.files:
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as error:
            print(f"repro lint: cannot read {path}: {error}", file=sys.stderr)
            return 2
        diagnostics = filter_diagnostics(
            lint_source(source), arguments.severity, disabled
        )
        any_errors = any_errors or has_errors(diagnostics)
        total += len(diagnostics)
        if arguments.json:
            documents.append(
                {
                    "file": str(path),
                    "ok": not has_errors(diagnostics),
                    "diagnostics": [d.to_dict() for d in diagnostics],
                }
            )
        else:
            for diagnostic in diagnostics:
                print(diagnostic.render(str(path)))
    if arguments.json:
        print(
            json.dumps(
                {"ok": not any_errors, "files": documents},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        files = len(arguments.files)
        print(
            f"{files} file{'s' if files != 1 else ''} linted,"
            f" {total} diagnostic{'s' if total != 1 else ''}"
        )
    return 1 if any_errors else 0


def _command_suites(arguments: argparse.Namespace) -> int:
    rows = []
    for suite in SUITES.values():
        fast = len(suite.iter(False))
        rows.append([suite.name, suite.title, fast, len(suite.entries)])
    print(format_table(["suite", "title", "fast entries", "total"], rows))
    return 0


def _command_cache(arguments: argparse.Namespace) -> int:
    cache = ResultCache(arguments.cache_dir or default_cache_directory())
    try:
        if arguments.action == "clear":
            removed = cache.clear()
            print(f"removed {removed} cached results from {cache.directory}")
            return 0
        stats = cache.stats()
        print(f"store: {stats['directory']}")
        print(f"{stats['entries']} entries, {stats['bytes']} bytes")
        for suite, count in stats["suites"].items():
            print(f"  {suite}: {count}")
    except OSError as error:
        print(f"repro cache: {error}", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "analyze": _command_analyze,
    "bench": _command_bench,
    "lint": _command_lint,
    "batch": _command_batch,
    "serve": _command_serve,
    "fuzz": _command_fuzz,
    "suites": _command_suites,
    "cache": _command_cache,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    import os

    from .engine.tasks import LINT_GATE_ENV

    arguments = build_parser().parse_args(argv)
    saved_gate = os.environ.get(LINT_GATE_ENV)
    try:
        return _COMMANDS[arguments.command](arguments)
    except BrokenPipeError:
        # Output piped into e.g. ``head``; not an analysis failure.
        return 0
    finally:
        if os.environ.get(LINT_GATE_ENV) != saved_gate:
            if saved_gate is None:
                os.environ.pop(LINT_GATE_ENV, None)
            else:
                os.environ[LINT_GATE_ENV] = saved_gate


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
