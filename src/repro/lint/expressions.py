"""Expression and condition lint passes.

* **R201 / R202** — division checks, mirroring exactly what
  :func:`repro.lang.semantics._translate_division` accepts: the divisor must
  be a *positive integer constant*.  A constant zero divisor is R201; a
  negative or non-constant one is R202.  Both are errors because the
  analysis rejects the whole program when it meets such a division.
* **R203 / R204 / R205** — constant conditions, decided with the same
  machinery the assertion checker uses: translate the condition (and its
  negation) to a formula and ask
  :func:`repro.abstraction.is_formula_satisfiable`.  Only **UNSAT** answers
  — which are exact — produce a diagnostic, so the passes have zero false
  positives by construction.  ``nondet``-dependent conditions are safe
  automatically: their fresh symbols are existentially quantified, so both
  polarities stay satisfiable.  ``while`` conditions that are always *true*
  are deliberately not flagged (that is a legitimate idiom; the degenerate
  no-escape case is R104).  ``assert`` conditions are never sat-checked:
  deciding them is the analysis's job, not the linter's.
* **R206** — a call inside a condition.  The call hoister only rewrites
  statements, so the semantics rejects such a program outright.
"""

from __future__ import annotations

from typing import Optional

from ..abstraction import AbstractionOptions, is_formula_satisfiable
from ..lang import SemanticsError, ast, translate_condition, translate_expression
from .diagnostics import Diagnostic

__all__ = ["check_program", "classify_condition", "condition_always_true"]

#: Options for the satisfiability oracle; the defaults match the analysis.
_OPTIONS = AbstractionOptions()


# ---------------------------------------------------------------------- #
# Condition classification
# ---------------------------------------------------------------------- #
def _has_call(node: ast.Node) -> bool:
    return any(isinstance(n, ast.CallExpr) for n in ast.walk(node))


def classify_condition(condition: ast.Cond) -> Optional[str]:
    """``"true"`` / ``"false"`` when provably constant, else ``None``.

    Exact in the claimed direction: an answer is only produced when the
    opposite polarity is *unsatisfiable*.
    """
    if isinstance(condition, ast.BoolLit):
        return "true" if condition.value else "false"
    if isinstance(condition, ast.NondetBool) or _has_call(condition):
        return None
    try:
        positive = translate_condition(condition)
        negative = translate_condition(ast.NotCond(condition))
    except SemanticsError:
        return None  # the division pass reports the root cause
    if not is_formula_satisfiable(positive, _OPTIONS):
        return "false"
    if not is_formula_satisfiable(negative, _OPTIONS):
        return "true"
    return None


def condition_always_true(condition: ast.Cond) -> bool:
    """Whether ``condition`` holds in every state (UNSAT-exact)."""
    return classify_condition(condition) == "true"


# ---------------------------------------------------------------------- #
# The pass
# ---------------------------------------------------------------------- #
class _Checker:
    def __init__(self, procedure: str) -> None:
        self.procedure = procedure
        self.diagnostics: list[Diagnostic] = []
        self._seen: set[tuple[str, Optional[int], str]] = set()

    def _emit(
        self, code: str, severity: str, message: str, line: Optional[int]
    ) -> None:
        key = (code, line, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.diagnostics.append(
            Diagnostic(
                code=code,
                severity=severity,
                message=message,
                line=line,
                procedure=self.procedure,
            )
        )

    # -- expressions -------------------------------------------------- #
    def check_divisor(self, divisor: ast.Expr, line: Optional[int]) -> None:
        if _has_call(divisor):
            self._emit(
                "R202",
                "error",
                f"unsupported divisor '{divisor}': the analysis only supports"
                " positive integer constant divisors",
                line,
            )
            return
        try:
            translated = translate_expression(divisor)
        except SemanticsError:
            return  # a nested division inside the divisor reports itself
        if not translated.value.is_constant:
            self._emit(
                "R202",
                "error",
                f"unsupported divisor '{divisor}': the analysis only supports"
                " positive integer constant divisors",
                line,
            )
            return
        constant = translated.value.constant_value
        if constant == 0:
            self._emit("R201", "error", "division by the constant zero", line)
        elif constant < 0:
            self._emit(
                "R202",
                "error",
                f"unsupported divisor {constant}: the analysis only supports"
                " positive integer constant divisors",
                line,
            )

    # -- conditions --------------------------------------------------- #
    def check_condition(
        self, condition: ast.Cond, line: Optional[int], kind: str
    ) -> None:
        """``kind`` is one of ``if``/``while``/``assume``/``assert``/``ternary``."""
        if _has_call(condition):
            self._emit(
                "R206",
                "error",
                "call inside a condition: the front end cannot hoist it",
                line,
            )
        if kind == "assert":
            return  # deciding assertions is the analysis's job
        verdict = classify_condition(condition)
        if verdict is None:
            return
        if verdict == "false":
            noun = {"assume": "assume blocks every execution"}.get(
                kind, "condition is always false"
            )
            self._emit("R204", "warning", f"{noun}", line)
        elif kind == "assume":
            self._emit("R205", "info", "tautological assume (it constrains nothing)", line)
        elif kind != "while":  # while(true) is an idiom; R104 covers no-escape
            self._emit("R203", "warning", "condition is always true", line)


#: The statements that carry a condition, by the ``kind`` it is checked as.
_CONDITION_KINDS = {ast.If: "if", ast.While: "while", ast.Assume: "assume", ast.Assert: "assert"}


def check_program(program: ast.Program) -> list[Diagnostic]:
    """Run the expression/condition passes over every procedure."""
    diagnostics: list[Diagnostic] = []
    for procedure in program.procedures:
        checker = _Checker(procedure.name)
        for statement in ast.walk(procedure.body):
            if not isinstance(statement, ast.Stmt):
                continue
            line = statement.line
            kind = _CONDITION_KINDS.get(type(statement))
            if kind is not None:
                checker.check_condition(statement.condition, line, kind)
            # The statement's own expressions and conditions: nested
            # statements are checked under their own lines.
            for child in ast.children(statement):
                if isinstance(child, ast.Stmt):
                    continue
                for node in ast.walk(child):
                    if isinstance(node, ast.BinOp) and node.op == "/":
                        checker.check_divisor(node.right, line)
                    elif isinstance(node, ast.Ternary):
                        checker.check_condition(node.condition, line, "ternary")
        diagnostics += checker.diagnostics
    return diagnostics
