"""The concrete-execution oracle of the differential fuzzer.

For one generated program the oracle collects every *claim* the analysers
make — CHORA's cost/return/depth bounds for the entry procedure, CHORA's
(and optionally the unrolling and ICRA baselines') ``proved`` verdicts on
assertions — and then replays the program through N seeded runs of the
concrete interpreter (:mod:`repro.lang.interp`), flagging:

* **bound-violation** — an observed cost / return value / recursion depth
  strictly exceeds a claimed upper bound (evaluated at the run's concrete
  arguments; bounds with residual symbolic parameters, or referencing an
  argument outside the strictly-positive regime the closed forms are derived
  in, are skipped, never guessed);
* **assert-unsound** — a run fails an assertion some tool *proved*; matching
  is by assertion text, and a text is only eligible when **every** site with
  that text was proved (the interpreter reports failures by condition text);
* **analyzer-error** — an analyser raised an exception;
* **oracle-error** — the generated program itself is malformed (undefined
  variable, division by zero, arity mismatch): a generator bug, which must
  surface as loudly as an analyser bug;
* **generator-invariant** — the semantic lint (:mod:`repro.lint`) reports an
  error- or warning-severity diagnostic on the generated program.  The
  generator promises well-formed programs (every variable declared, divisors
  constant and positive, recursions with base cases that make progress), so
  a lint finding means the generator broke an invariant *before* any
  interpreter run could trip over it.  Info-severity diagnostics (dead
  stores, never-read globals, ...) are stylistic and deliberately excluded —
  generated programs are allowed to be ugly, not wrong.  The
  condition-triviality codes R203/R204 are likewise excluded: the generator
  makes no non-triviality promise about conditions (``m <= m`` and
  ``7 < min(5, n)`` are fair game), and those codes sharpen with the
  abstraction's precision, which would hold campaign cleanliness hostage to
  precision improvements;
* **disagreement** (info only) — tools return different ``proved`` verdicts
  for the same assertion; sound tools may legitimately differ in precision,
  so this is reported but never fails a campaign.

Runs blocked by a failed ``assume`` or an empty ``nondet(lo, hi)`` range are
**discarded** (counted, not flagged): blocked executions carry no information.
Runs that exhaust the step budget are likewise discarded.

The module also registers the ``"fuzz"`` batch-engine kind, so campaigns get
per-program timeout and crash isolation for free.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import sympy

from ..baselines import analyze_program_icra, check_assertions_by_unrolling
from ..core import ChoraOptions, analyze_program, check_assertions, cost_bound, return_bound
from ..engine.tasks import AnalysisTask, register_kind
from ..lang import ast, parse_program
from ..lang.interp import (
    AssertionFailure,
    AssumeBlocked,
    ExecutionLimitExceeded,
    Interpreter,
    InterpreterError,
)

__all__ = ["Finding", "OracleConfig", "OracleReport", "check_program"]

#: Numerical slack when comparing an observed integer against an evaluated
#: symbolic bound (sympy may produce e.g. ``2.9999999999999996``).
EPSILON = 1e-6


@dataclass(frozen=True)
class OracleConfig:
    """Knobs of one oracle check (all deterministic given ``seed``)."""

    #: number of seeded concrete runs per program.
    runs: int = 10
    #: base seed; run ``i`` uses ``seed * 1000003 + i``.
    seed: int = 0
    #: step budget per concrete run (exceeding it discards the run).
    max_steps: int = 200_000
    #: recursion-depth budget per concrete run.  Kept far below the
    #: interpreter's default: the interpreter itself recurses ~8 Python
    #: frames per program frame, so a generated program legitimately
    #: recursing thousands deep would hit Python's stack limit before the
    #: interpreter's own check.  Deep runs are discarded, not flagged.
    max_depth: int = 64
    #: concrete entry arguments are drawn from ``[0, max_arg]`` — bounds are
    #: stated over positive parameters, so the oracle stays in that regime.
    max_arg: int = 7
    #: also collect claims from the unrolling and ICRA baselines.
    baselines: bool = True
    #: recursion depth for the unrolling baseline (2 keeps the baseline an
    #: order of magnitude cheaper than depth 3 on generated programs while
    #: still exercising the sound beyond-depth over-approximation).
    unroll_depth: int = 2
    #: cross-check generated programs against the semantic lint; error- and
    #: warning-severity diagnostics become ``generator-invariant`` findings.
    lint: bool = True


@dataclass(frozen=True)
class Finding:
    """One oracle observation about one program."""

    kind: str  # bound-violation | assert-unsound | analyzer-error | oracle-error | disagreement
    detail: str
    run_seed: int | None = None

    @property
    def is_violation(self) -> bool:
        """Disagreements are informational; everything else is a bug."""
        return self.kind != "disagreement"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail, "run_seed": self.run_seed}


@dataclass
class OracleReport:
    """Everything the oracle learned about one program."""

    findings: list[Finding] = field(default_factory=list)
    runs_completed: int = 0
    runs_discarded: int = 0
    #: human-readable claims that were actually checked, e.g.
    #: ``{"cost": "2*n + 1", "assert(cost >= 0)": "proved"}``.
    claims: dict[str, str] = field(default_factory=dict)

    @property
    def violations(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.is_violation]

    def to_dict(self) -> dict:
        return {
            "findings": [finding.to_dict() for finding in self.findings],
            "runs_completed": self.runs_completed,
            "runs_discarded": self.runs_discarded,
            "claims": self.claims,
        }


# ---------------------------------------------------------------------- #
# Claim collection
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _BoundClaim:
    """An upper bound some tool claims for an observable of the entry."""

    tool: str
    observable: str  # "cost" | "return" | "depth"
    expression: sympy.Expr

    def evaluated_at(self, arguments: dict[str, int]) -> float | None:
        """The bound at concrete arguments, or None if it is uncheckable.

        Uncheckable means residual free symbols; a referenced argument that
        is not strictly positive (closed forms are derived over
        ``sympy.Symbol(..., positive=True)`` — at ``n = 0`` the expression
        simply makes no claim, e.g. ``depth <= n`` for a procedure whose
        base case still costs one frame); or a value that is not a real
        number (``zoo``/``nan`` from a quotient whose denominator vanishes,
        or a ``Max``/``Min`` that cannot compare one).  Such bounds are
        skipped, never guessed; ``+oo`` evaluates fine and is trivially
        satisfied.
        """
        substitution = {
            symbol: arguments[symbol.name]
            for symbol in self.expression.free_symbols
            if symbol.name in arguments
        }
        if any(value < 1 for value in substitution.values()):
            return None
        try:
            # A Max or Min raises on a non-real argument (the log of zero).
            value = self.expression.subs(substitution)
            if value.free_symbols:
                return None
            numeric = float(value)
        except (TypeError, ValueError):
            return None
        return None if math.isnan(numeric) else numeric


def _entry_bound_claims(
    program: ast.Program, result, tool: str, entry: str
) -> tuple[list[_BoundClaim], list[Finding]]:
    claims: list[Finding] = []
    bounds: list[_BoundClaim] = []
    try:
        cost = cost_bound(result, entry, "cost")
        if cost.found:
            bounds.append(_BoundClaim(tool, "cost", cost.expression))
        returned = return_bound(result, entry)
        if returned.found:
            bounds.append(_BoundClaim(tool, "return", returned.expression))
        summary = result.summaries.get(entry)
        if summary is not None and summary.is_recursive:
            depth = summary.depth_bound.symbolic_bound
            if depth is not None:
                bounds.append(_BoundClaim(tool, "depth", depth))
    except Exception as exc:  # noqa: BLE001 — any analyser exception is a finding
        claims.append(
            Finding("analyzer-error", f"{tool}: bound extraction raised {exc!r}")
        )
    return bounds, claims


def _proved_assertion_texts(outcomes) -> set[str]:
    """Texts for which *every* site was proved (text-level soundness claim)."""
    proved: dict[str, bool] = {}
    for outcome in outcomes:
        text = outcome.site.text
        proved[text] = proved.get(text, True) and outcome.proved
    return {text for text, all_proved in proved.items() if all_proved}


# ---------------------------------------------------------------------- #
# The oracle
# ---------------------------------------------------------------------- #
def check_program(
    program: ast.Program | str,
    config: OracleConfig = OracleConfig(),
    options: ChoraOptions = ChoraOptions(),
) -> OracleReport:
    """Differentially check one program; see the module docstring for rules."""
    if isinstance(program, str):
        program = parse_program(program)
    report = OracleReport()
    entry = program.procedures[-1].name

    # ---- lint cross-check ---------------------------------------------- #
    if config.lint:
        report.findings.extend(_lint_findings(program))

    # ---- collect claims ------------------------------------------------ #
    bounds: list[_BoundClaim] = []
    proved_by: dict[str, set[str]] = {}
    try:
        result = analyze_program(program, options)
    except Exception as exc:  # noqa: BLE001
        report.findings.append(Finding("analyzer-error", f"chora: analysis raised {exc!r}"))
        return report
    tool_bounds, findings = _entry_bound_claims(program, result, "chora", entry)
    bounds.extend(tool_bounds)
    report.findings.extend(findings)
    try:
        proved_by["chora"] = _proved_assertion_texts(
            check_assertions(result, options.abstraction)
        )
    except Exception as exc:  # noqa: BLE001
        report.findings.append(
            Finding("analyzer-error", f"chora: assertion checking raised {exc!r}")
        )

    if config.baselines:
        try:
            proved_by["unrolling"] = _proved_assertion_texts(
                check_assertions_by_unrolling(program, config.unroll_depth, options.abstraction)
            )
        except Exception as exc:  # noqa: BLE001
            report.findings.append(
                Finding("analyzer-error", f"unrolling: raised {exc!r}")
            )
        try:
            icra_result = analyze_program_icra(program, options)
            icra_bounds, icra_findings = _entry_bound_claims(
                program, icra_result, "icra", entry
            )
            bounds.extend(icra_bounds)
            report.findings.extend(icra_findings)
        except Exception as exc:  # noqa: BLE001
            report.findings.append(Finding("analyzer-error", f"icra: raised {exc!r}"))

    for claim in bounds:
        report.claims[f"{claim.tool}:{claim.observable}"] = str(claim.expression)
    for tool, texts in proved_by.items():
        for text in sorted(texts):
            report.claims[f"{tool}:assert({text})"] = "proved"

    # Precision disagreements between sound tools are informational.
    tools = sorted(proved_by)
    for index, first in enumerate(tools):
        for second in tools[index + 1 :]:
            for text in sorted(proved_by[first] ^ proved_by[second]):
                prover = first if text in proved_by[first] else second
                other = second if prover == first else first
                report.findings.append(
                    Finding(
                        "disagreement",
                        f"assert({text}): {prover} proves it, {other} does not",
                    )
                )

    # ---- concrete runs ------------------------------------------------- #
    proved_texts = {
        text: tool for tool, texts in proved_by.items() for text in texts
    }
    parameters = program.procedure(entry).scalar_parameters
    argument_rng = random.Random(config.seed ^ 0x5EED)
    for run_index in range(config.runs):
        run_seed = config.seed * 1000003 + run_index
        arguments = {
            name: argument_rng.randint(0, config.max_arg) for name in parameters
        }
        interpreter = Interpreter(
            program,
            rng=random.Random(run_seed),
            max_steps=config.max_steps,
            max_depth=config.max_depth,
        )
        try:
            execution = interpreter.run(entry, arguments)
        except (AssumeBlocked, ExecutionLimitExceeded, RecursionError):
            report.runs_discarded += 1
            continue
        except AssertionFailure as failure:
            text = str(failure)
            tool = proved_texts.get(text)
            if tool is not None:
                report.findings.append(
                    Finding(
                        "assert-unsound",
                        f"{tool} proved assert({text}) but it fails at"
                        f" {entry}({_format_args(arguments, parameters)})",
                        run_seed=run_seed,
                    )
                )
            # A failing *unproved* assertion is the expected behaviour of a
            # data-dependent assertion — the run still counts as completed.
            report.runs_completed += 1
            continue
        except (InterpreterError, KeyError, ZeroDivisionError, TypeError) as exc:
            report.findings.append(
                Finding(
                    "oracle-error",
                    f"generated program is malformed: {exc!r}",
                    run_seed=run_seed,
                )
            )
            continue

        report.runs_completed += 1
        observed = {
            "cost": execution.globals.get("cost"),
            "return": execution.return_value,
            "depth": execution.procedure_depths.get(entry),
        }
        for claim in bounds:
            actual = observed.get(claim.observable)
            if actual is None:
                continue
            limit = claim.evaluated_at(arguments)
            if limit is None:
                continue
            if actual > limit + EPSILON:
                report.findings.append(
                    Finding(
                        "bound-violation",
                        f"{claim.tool} claims {claim.observable} <="
                        f" {claim.expression} for {entry}, but"
                        f" {entry}({_format_args(arguments, parameters)}) observed"
                        f" {claim.observable} = {actual} > {limit}",
                        run_seed=run_seed,
                    )
                )
    return report


#: Lint codes the cross-check ignores: the generator promises well-formed
#: programs, not non-trivial conditions (see the module docstring).
_LINT_EXEMPT_CODES = frozenset({"R203", "R204"})


def _lint_findings(program: ast.Program) -> list[Finding]:
    """Error/warning lint diagnostics as ``generator-invariant`` findings.

    The lint translates conditions into formulas to ask satisfiability
    questions; the fresh-symbol counter is restored afterwards so the
    analyses below mint exactly the symbols they would without the check.
    """
    from ..formulas.symbols import preserved_fresh_counter
    from ..lint import lint_program

    with preserved_fresh_counter():
        diagnostics = lint_program(program)
    return [
        Finding("generator-invariant", diagnostic.render())
        for diagnostic in diagnostics
        if diagnostic.severity in ("error", "warning")
        and diagnostic.code not in _LINT_EXEMPT_CODES
    ]


def _format_args(arguments: dict[str, int], parameters: tuple[str, ...]) -> str:
    return ", ".join(f"{name}={arguments[name]}" for name in parameters)


# ---------------------------------------------------------------------- #
# Batch-engine integration
# ---------------------------------------------------------------------- #
@register_kind("fuzz")
def _run_fuzz(task: AnalysisTask, options: ChoraOptions) -> dict:
    """Batch runner: oracle-check ``task.source``.

    Params: ``runs`` (concrete runs), ``seed`` (oracle seed), ``baselines``
    (bool), ``max_steps``.  The payload surfaces ``proved`` as "no violations"
    so batch reports render fuzz campaigns like any other suite.
    """
    config = OracleConfig(
        runs=int(task.param("runs", 10)),
        seed=int(task.param("seed", 0)),
        baselines=bool(task.param("baselines", True)),
        max_steps=int(task.param("max_steps", 200_000)),
        lint=bool(task.param("lint", True)),
    )
    report = check_program(task.source, config, options)
    payload = report.to_dict()
    payload["proved"] = not report.violations
    payload["bound"] = report.claims.get("chora:cost", "n.b.")
    return payload
