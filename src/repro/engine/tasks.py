"""Units of batch work and the registry of analysis kinds.

An :class:`AnalysisTask` is a self-contained, picklable description of one
analysis: the program source plus the semantic knobs of the run.  What
"running" a task means is dispatched on its ``kind`` through a registry, so
new workloads (baselines, ablations, test probes) plug into the batch engine
without touching it:

* ``"analyze"`` — whole-program procedure summaries (+ assertion checking
  when the program has assertions, + a cost bound when a procedure is named);
* ``"complexity"`` — a Table-1 style cost bound for one procedure;
* ``"assertion"`` — Table-2 / Fig.-3 style assertion checking;
* ``"complexity-icra"`` / ``"assertion-unrolling"`` — the baselines.

Every runner returns a JSON-serializable *payload* dict, which is what the
result cache stores and what :class:`~repro.engine.batch.BatchResult`
carries; the conventional keys ``"proved"`` (bool) and ``"bound"`` (str) are
surfaced as result columns when present.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Optional, TYPE_CHECKING

from ..baselines import analyze_program_icra, check_assertions_by_unrolling
from ..core import (
    AnalysisResult,
    ChoraOptions,
    analyze_program,
    check_assertions,
    cost_bound,
)
from ..lang import ParseError, SemanticsError, parse_program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..benchlib.suites import SuiteEntry

__all__ = [
    "AnalysisTask",
    "InvalidProgram",
    "KindRunner",
    "LINT_GATE_ENV",
    "execute_task",
    "lint_gate_enabled",
    "register_kind",
    "registered_kinds",
    "set_program_analyzer",
]

#: When set (to anything but ``""``/``"0"``), :func:`execute_task` lints each
#: program before analysing it and rejects programs with error-severity
#: diagnostics.  An environment variable — not an options field — so the
#: setting reaches forked and spawned batch workers without ever entering
#: task cache keys or analysis fingerprints: on lint-clean programs a gated
#: run is bit-identical to an ungated one.
LINT_GATE_ENV = "REPRO_LINT_GATE"


class InvalidProgram(Exception):
    """The front end rejects a task's program (parse error, unsupported
    construct, or — with the lint gate on — error-severity diagnostics).

    A structured, one-line task outcome: batch workers report it as an
    ``error`` result with an ``invalid-program:`` detail instead of a
    traceback, the CLI maps it to exit 2, and the service answers 400.
    """


def lint_gate_enabled() -> bool:
    return os.environ.get(LINT_GATE_ENV, "") not in ("", "0")


@dataclass(frozen=True)
class AnalysisTask:
    """One unit of work for the batch engine (picklable, hashable)."""

    name: str
    source: str
    kind: str = "analyze"
    procedure: Optional[str] = None
    cost_variable: str = "cost"
    substitutions: tuple[tuple[str, int], ...] = ()
    #: kind-specific parameters (e.g. ``("depth", 12)`` for unrolling).
    params: tuple[tuple[str, Any], ...] = ()
    #: the suite this task came from, if any (reporting only).
    suite: Optional[str] = None

    @classmethod
    def from_entry(cls, entry: "SuiteEntry", suite: Optional[str] = None) -> "AnalysisTask":
        """Build a task from a :class:`~repro.benchlib.suites.SuiteEntry`."""
        return cls(
            name=entry.name,
            source=entry.source,
            kind=entry.kind,
            procedure=entry.procedure,
            cost_variable=entry.cost_variable,
            substitutions=entry.substitutions,
            suite=suite,
        )

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def cache_material(self) -> dict[str, Any]:
        """The semantic fields that determine the analysis output.

        The task ``name`` and ``suite`` are labels, not inputs, and are left
        out so renamed or shared benchmarks reuse cached results.
        """
        return {
            "source": self.source,
            "kind": self.kind,
            "procedure": self.procedure,
            "cost_variable": self.cost_variable,
            "substitutions": list(map(list, self.substitutions)),
            "params": [[key, value] for key, value in self.params],
        }


KindRunner = Callable[[AnalysisTask, ChoraOptions], dict]

_KIND_RUNNERS: dict[str, KindRunner] = {}

#: Replacement for :func:`~repro.core.analyze_program` in CHORA-native kinds,
#: or ``None`` for the default.  The warm analysis service installs an
#: :class:`~repro.core.incremental.IncrementalAnalyzer` here so repeated and
#: lightly-edited programs splice cached procedure summaries.
_PROGRAM_ANALYZER: Optional[Callable] = None


def set_program_analyzer(analyzer: Optional[Callable]) -> Optional[Callable]:
    """Install (or, with ``None``, remove) the program-analysis override.

    Returns the previous override so callers can restore it.  The override
    applies to the ``analyze`` / ``assertion`` / ``complexity`` kinds, which
    run CHORA itself; the baseline kinds are never redirected.
    """
    global _PROGRAM_ANALYZER
    previous = _PROGRAM_ANALYZER
    _PROGRAM_ANALYZER = analyzer
    return previous


def _analyze(program, options: ChoraOptions) -> AnalysisResult:
    if _PROGRAM_ANALYZER is not None:
        return _PROGRAM_ANALYZER(program, options)
    return analyze_program(program, options)


def register_kind(name: str) -> Callable[[KindRunner], KindRunner]:
    """Register the runner for a task kind (decorator).

    Runners must be module-level functions so tasks stay picklable across
    worker processes.
    """

    def decorate(runner: KindRunner) -> KindRunner:
        _KIND_RUNNERS[name] = runner
        return runner

    return decorate


def registered_kinds() -> tuple[str, ...]:
    return tuple(sorted(_KIND_RUNNERS))


def execute_task(task: AnalysisTask, options: ChoraOptions = ChoraOptions()) -> dict:
    """Run one task to completion and return its payload.

    This is the exact function batch workers execute; calling it directly
    gives the serial, in-process behaviour (used by the tests, and by
    perfbench's traced rows, which time it without process bookkeeping).
    """
    from ..polyhedra.cache import clear_caches

    try:
        runner = _KIND_RUNNERS[task.kind]
    except KeyError:
        known = ", ".join(registered_kinds())
        raise ValueError(f"unknown task kind {task.kind!r} (known: {known})") from None
    # Start from cold memo tables so a task's result is independent of what
    # ran before it in this process — the same guarantee forked batch
    # workers get — and so long batches cannot accumulate unbounded tables.
    # The gate runs first so clear_caches() then wipes any satisfiability
    # answers lint cached: the analysis proper starts cold either way and
    # its verdicts are bit-identical with or without the gate.
    _apply_lint_gate(task)
    clear_caches()
    try:
        return runner(task, options)
    except ParseError as error:
        raise InvalidProgram(f"parse error: {error}") from error
    except SemanticsError as error:
        raise InvalidProgram(f"unsupported construct: {error}") from error


def _apply_lint_gate(task: AnalysisTask) -> None:
    """Reject ``task`` when the lint gate is on and its program has errors.

    The fuzz kind is exempt: its oracle runs the lint cross-check itself and
    must see the program regardless.
    """
    if not lint_gate_enabled() or task.kind == "fuzz":
        return
    from ..formulas.symbols import preserved_fresh_counter
    from ..lint import lint_source

    # Lint translates conditions to formulas only to ask satisfiability
    # questions; restoring the fresh-symbol counter keeps the analysis's
    # own symbol numbering identical to a run without the gate.
    with preserved_fresh_counter():
        errors = [d for d in lint_source(task.source) if d.severity == "error"]
    if errors:
        rendered = "; ".join(d.render() for d in errors)
        raise InvalidProgram(f"lint: {rendered}")


# ---------------------------------------------------------------------- #
# Built-in kinds
# ---------------------------------------------------------------------- #
def _assertion_payload(outcomes) -> dict:
    return {
        "proved": bool(outcomes) and all(outcome.proved for outcome in outcomes),
        "assertions": [
            {
                "procedure": outcome.site.procedure,
                "text": outcome.site.text,
                "proved": outcome.proved,
            }
            for outcome in outcomes
        ],
    }


def _bound_payload(result: AnalysisResult, task: AnalysisTask) -> dict:
    bound = cost_bound(
        result,
        task.procedure,
        task.cost_variable,
        substitutions=dict(task.substitutions) or None,
    )
    return {
        "bound": bound.asymptotic,
        "expression": str(bound.expression) if bound.found else None,
        "found": bound.found,
    }


@register_kind("complexity")
def _run_complexity(task: AnalysisTask, options: ChoraOptions) -> dict:
    result = _analyze(parse_program(task.source), options)
    return _bound_payload(result, task)


@register_kind("complexity-icra")
def _run_complexity_icra(task: AnalysisTask, options: ChoraOptions) -> dict:
    result = analyze_program_icra(parse_program(task.source), options)
    return _bound_payload(result, task)


@register_kind("assertion")
def _run_assertion(task: AnalysisTask, options: ChoraOptions) -> dict:
    result = _analyze(parse_program(task.source), options)
    return _assertion_payload(check_assertions(result, options.abstraction))


@register_kind("assertion-icra")
def _run_assertion_icra(task: AnalysisTask, options: ChoraOptions) -> dict:
    result = analyze_program_icra(parse_program(task.source), options)
    return _assertion_payload(check_assertions(result, options.abstraction))


@register_kind("assertion-unrolling")
def _run_assertion_unrolling(task: AnalysisTask, options: ChoraOptions) -> dict:
    outcomes = check_assertions_by_unrolling(
        parse_program(task.source),
        depth=int(task.param("depth", 12)),
        options=options.abstraction,
    )
    return _assertion_payload(outcomes)


@register_kind("analyze")
def _run_analyze(task: AnalysisTask, options: ChoraOptions) -> dict:
    result = _analyze(parse_program(task.source), options)
    payload: dict[str, Any] = {
        "summaries": {name: str(summary) for name, summary in result.summaries.items()},
    }
    outcomes = check_assertions(result, options.abstraction)
    if outcomes:
        payload.update(_assertion_payload(outcomes))
    if task.procedure:
        payload.update(_bound_payload(result, task))
    return payload
