"""Call-graph lint passes: reachability, base cases, descent, infinite loops.

* **R101** — procedures a program's ``main()`` can never call (informational:
  suite files legitimately keep several independent entry procedures, so the
  pass only runs when the program declares ``main``).
* **R102** — recursive components in which *no* invocation can terminate.
  This generalizes the base-case reachability check of
  :func:`repro.core.missing_base.procedures_without_base_case` to a least
  fixpoint: a member can terminate iff its CFG has an entry→exit path whose
  intra-component calls all target members already known to terminate.
  (A §4.5-style component — some member without its own base case but able
  to bottom out through a sibling — is *not* flagged; the analysis handles
  it by the missing-base-case transformation.)
* **R103** — a recursive component every one of whose intra-component call
  sites passes every shared scalar argument *unchanged* (the syntactic
  parameter itself, resolved through single-assignment locals).  If no
  recursive call ever changes any value a guard could test, no guard can
  ever flip, and the recursion diverges.  Any syntactic change — ``n - 1``,
  ``n / 2``, ``y1 - y2``, a ``nondet`` — counts as potential progress:
  whether changed arguments actually terminate is
  :mod:`repro.core.depth_bound`'s job, not a syntactic pass's.
* **R104** — a loop whose condition is always true and whose body contains
  no ``return``, no call, and no non-determinism: no execution entering it
  ever leaves, so every bound the analysis reports about code behind it is
  vacuous.
"""

from __future__ import annotations

from typing import Optional

from ..lang import SemanticsError, ast, build_call_graph, build_cfg
from ..lang.cfg import ControlFlowGraph
from .diagnostics import Diagnostic
from .expressions import condition_always_true

__all__ = ["check_program"]


# ---------------------------------------------------------------------- #
# R101: procedures unreachable from main
# ---------------------------------------------------------------------- #
def _check_unreachable_procedures(program: ast.Program) -> list[Diagnostic]:
    names = program.procedure_names
    if "main" not in names or len(names) < 2:
        return []
    graph = build_call_graph(program)
    seen = {"main"}
    frontier = ["main"]
    while frontier:
        for callee in graph.callees(frontier.pop()):
            if callee in names and callee not in seen:
                seen.add(callee)
                frontier.append(callee)
    return [
        Diagnostic(
            code="R101",
            severity="info",
            message=f"procedure '{procedure.name}' is unreachable from main()",
            line=procedure.line,
            procedure=procedure.name,
        )
        for procedure in program.procedures
        if procedure.name not in seen
    ]


# ---------------------------------------------------------------------- #
# R102: recursive components with no base case at all
# ---------------------------------------------------------------------- #
def _check_missing_base_cases(
    program: ast.Program, cfgs: dict[str, ControlFlowGraph]
) -> list[Diagnostic]:
    graph = build_call_graph(program)
    diagnostics: list[Diagnostic] = []
    for component in graph.strongly_connected_components():
        members = frozenset(component)
        if not graph.is_recursive(component):
            continue
        if any(name not in cfgs for name in members):
            continue
        terminating: frozenset[str] = frozenset()
        changed = True
        while changed:
            changed = False
            for name in component:
                if name in terminating:
                    continue
                # Entry→exit reachability where intra-component calls must
                # target members already known to terminate.
                blocked = members - terminating
                cfg = cfgs[name]
                if cfg.exit in cfg.reachable(
                    lambda edge: getattr(edge, "callee", None) not in blocked
                ):
                    terminating |= {name}
                    changed = True
        for name in sorted(members - terminating):
            cycle = ", ".join(sorted(members))
            diagnostics.append(
                Diagnostic(
                    code="R102",
                    severity="error",
                    message=(
                        f"no invocation of '{name}' can terminate: every path to"
                        f" its exit re-enters the recursive cycle {{{cycle}}}"
                        " (no base case)"
                    ),
                    line=program.procedure(name).line,
                    procedure=name,
                )
            )
    return diagnostics


# ---------------------------------------------------------------------- #
# R103: no strictly-descending argument anywhere in a recursive component
# ---------------------------------------------------------------------- #
def _single_assignment_locals(procedure: ast.Procedure) -> dict[str, ast.Expr]:
    """Locals defined by exactly one initializer/assignment in the body."""
    counts: dict[str, int] = {}
    values: dict[str, ast.Expr] = {}
    for node in ast.walk(procedure.body):
        if isinstance(node, ast.VarDecl):
            name, value = node.name, node.init
        elif isinstance(node, ast.Assign):
            name, value = node.name, node.value
        elif isinstance(node, ast.Havoc):
            name, value = node.name, None
        else:
            continue
        if value is None:
            # An uninitialized declaration or a havoc is not a binding.
            counts[name] = counts.get(name, 0) + 2
        else:
            counts[name] = counts.get(name, 0) + 1
            values[name] = value
    parameters = set(procedure.scalar_parameters)
    return {
        name: value
        for name, value in values.items()
        if counts.get(name) == 1 and name not in parameters
    }


def _unchanged(
    expression: ast.Expr,
    parameter: str,
    bindings: dict[str, ast.Expr],
    fuel: int = 3,
) -> bool:
    """Whether ``expression`` is just ``parameter`` passed through unchanged.

    Resolves one step at a time through single-assignment locals so
    ``int m = n; f(m);`` still reads as passing ``n`` unchanged.  Anything
    that is not a plain variable reference — any arithmetic, ``nondet``,
    ``min``/``max`` — changes the value as far as this pass can tell, and
    counts as potential progress.
    """
    if isinstance(expression, ast.VarRef):
        if expression.name == parameter:
            return True
        if fuel > 0 and expression.name in bindings:
            return _unchanged(bindings[expression.name], parameter, bindings, fuel - 1)
    return False


def _check_descent(
    program: ast.Program, cfgs: dict[str, ControlFlowGraph]
) -> list[Diagnostic]:
    graph = build_call_graph(program)
    diagnostics: list[Diagnostic] = []
    for component in graph.strongly_connected_components():
        members = frozenset(component)
        if not graph.is_recursive(component):
            continue
        if any(name not in cfgs for name in members):
            continue
        sites = 0
        checkable = 0
        first_line: Optional[int] = None
        descending = False
        for caller in sorted(members):
            caller_procedure = program.procedure(caller)
            caller_variables = set(caller_procedure.scalar_parameters) | set(
                cfgs[caller].locals
            )
            bindings = _single_assignment_locals(caller_procedure)
            for edge in cfgs[caller].call_edges:
                if edge.callee not in members:
                    continue
                sites += 1
                line = edge.origin.line if edge.origin is not None else None
                if first_line is None and line is not None:
                    first_line = line
                callee_parameters = program.procedure(edge.callee).parameters
                for parameter, argument in zip(callee_parameters, edge.arguments):
                    if parameter.is_array:
                        continue
                    # Descent only chains when the caller also binds the
                    # shared name (the value the callee shrinks is the one
                    # the caller received).
                    if parameter.name not in caller_variables:
                        continue
                    checkable += 1
                    if not _unchanged(argument, parameter.name, bindings):
                        descending = True
                        break
                if descending:
                    break
            if descending:
                break
        if sites and checkable and not descending:
            cycle = ", ".join(sorted(members))
            diagnostics.append(
                Diagnostic(
                    code="R103",
                    severity="warning",
                    message=(
                        f"recursive cycle {{{cycle}}} passes every shared argument"
                        " unchanged at every recursive call site; the recursion"
                        " makes no progress"
                    ),
                    line=first_line,
                    procedure=sorted(members)[0],
                )
            )
    return diagnostics


# ---------------------------------------------------------------------- #
# R104: nondet-free infinite loops
# ---------------------------------------------------------------------- #
#: Nodes by which a loop body may leave the loop or see a changing value:
#: a return, a call, non-determinism (``nondet``, ``*``, array reads,
#: havocs, uninitialized declarations), or an assume that blocks or an
#: assert that aborts the execution.
_ESCAPES = (
    ast.Return,
    ast.CallStmt,
    ast.CallExpr,
    ast.Nondet,
    ast.NondetBool,
    ast.ArrayRead,
    ast.Havoc,
    ast.Assume,
    ast.Assert,
)


def _check_infinite_loops(program: ast.Program) -> list[Diagnostic]:
    return [
        Diagnostic(
            code="R104",
            severity="warning",
            message=(
                "infinite loop: the condition is always true and the"
                " body contains no return, call, or nondet"
            ),
            line=loop.line,
            procedure=procedure.name,
        )
        for procedure in program.procedures
        for loop in ast.walk(procedure.body)
        if isinstance(loop, ast.While)
        and condition_always_true(loop.condition)
        and not any(
            isinstance(node, _ESCAPES) or (isinstance(node, ast.VarDecl) and node.init is None)
            for node in ast.walk(loop.body)
        )
    ]


# ---------------------------------------------------------------------- #
# Program entry point
# ---------------------------------------------------------------------- #
def check_program(program: ast.Program) -> list[Diagnostic]:
    """Run every call-graph pass over ``program``."""
    cfgs: dict[str, ControlFlowGraph] = {}
    for procedure in program.procedures:
        try:
            cfgs[procedure.name] = build_cfg(procedure)
        except SemanticsError:
            continue  # the expression pass reports the root cause
    diagnostics = _check_unreachable_procedures(program)
    diagnostics += _check_missing_base_cases(program, cfgs)
    diagnostics += _check_descent(program, cfgs)
    diagnostics += _check_infinite_loops(program)
    return diagnostics
