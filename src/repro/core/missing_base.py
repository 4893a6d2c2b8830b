"""Equation systems with missing base cases (§4.5).

Height-based recurrence analysis needs every procedure of a strongly
connected component to have a *base case* — a set of paths containing no
calls back into the component.  §4.5 handles components where some procedure
``P_i`` lacks one by rewriting the equation system:

* for every other member ``P_j``, introduce a variant ``P_j_no_P_i`` in which
  calls to ``P_i`` abort (are infeasible);
* in ``P_i``, let every call to ``P_j`` non-deterministically call either
  ``P_j`` or ``P_j_no_P_i``.

The variants fall outside the component (they never reach ``P_i``), so they
are summarized first, and the rewritten ``P_i`` gains a base case through
them.  This module implements the transformation at the AST level.
"""

from __future__ import annotations


from ..lang import ast
from ..lang.callgraph import build_call_graph

__all__ = ["procedures_without_base_case", "transform_missing_base_cases"]


def procedures_without_base_case(program: ast.Program) -> frozenset[str]:
    """Members of recursive components all of whose paths re-enter the component.

    A procedure has a base case iff its exit vertex is reachable from its
    entry using only edges that do not call back into the procedure's own
    strongly connected component; this is checked on the control-flow graph
    (the syntactic check alone would be confused by early returns).
    """
    from ..lang.cfg import build_cfg

    graph = build_call_graph(program)
    missing: set[str] = set()
    for component in graph.strongly_connected_components():
        if not graph.is_recursive(component):
            continue
        members = frozenset(component)
        for name in component:
            cfg = build_cfg(program.procedure(name))
            if cfg.exit not in cfg.reachable(
                lambda edge: getattr(edge, "callee", None) not in members
            ):
                missing.add(name)
    return frozenset(missing)


def _replace_calls(statement: ast.Stmt, rewrite) -> ast.Stmt:
    """Rebuild a statement with each call statement/assignment rewritten.

    ``rewrite(stmt, callee)`` returns a replacement statement (or the original).
    """
    if isinstance(statement, ast.Block):
        return ast.Block(tuple(_replace_calls(s, rewrite) for s in statement.statements))
    if isinstance(statement, ast.If):
        return ast.If(
            statement.condition,
            _replace_calls(statement.then_branch, rewrite),
            _replace_calls(statement.else_branch, rewrite)
            if statement.else_branch is not None
            else None,
        )
    if isinstance(statement, ast.While):
        return ast.While(statement.condition, _replace_calls(statement.body, rewrite))
    if isinstance(statement, ast.CallStmt):
        return rewrite(statement, statement.call.callee)
    if isinstance(statement, ast.Assign) and isinstance(statement.value, ast.CallExpr):
        return rewrite(statement, statement.value.callee)
    if isinstance(statement, ast.VarDecl) and isinstance(statement.init, ast.CallExpr):
        return rewrite(statement, statement.init.callee)
    return statement


def transform_missing_base_cases(program: ast.Program) -> ast.Program:
    """Apply the §4.5 transformation until every recursive procedure has a base case.

    The number of added variants is bounded by the size of the component per
    round (the worst case noted in the paper is exponential; the benchmark
    programs need at most one round).
    """
    current = program
    for _ in range(4):  # bounded number of rounds
        missing = procedures_without_base_case(current)
        if not missing:
            return current
        target = sorted(missing)[0]
        graph = build_call_graph(current)
        component = next(
            c for c in graph.strongly_connected_components() if target in c
        )
        others = [name for name in component if name != target]
        new_procedures: list[ast.Procedure] = []
        variant_names = {name: f"{name}_no_{target}" for name in others}

        for procedure in current.procedures:
            if procedure.name in others:
                # Variant that never (directly or through the component)
                # calls back into `target`: calls to `target` abort, calls to
                # other members are redirected to *their* variants (this is
                # what makes P4_no_P3 = a in Ex. 4.2 rather than keeping a
                # path back into the component).
                def abort_rewrite(stmt: ast.Stmt, callee: str) -> ast.Stmt:
                    if callee == target:
                        return ast.Assume(ast.BoolLit(False))
                    if callee in variant_names:
                        return _rename_call(stmt, variant_names[callee])
                    return stmt

                variant_body = _replace_calls(procedure.body, abort_rewrite)
                new_procedures.append(procedure)
                new_procedures.append(
                    ast.Procedure(
                        variant_names[procedure.name],
                        procedure.parameters,
                        variant_body,
                        procedure.returns_value,
                    )
                )
            elif procedure.name == target:
                # Calls to P_j become a choice between P_j and its variant.
                def choice_rewrite(stmt: ast.Stmt, callee: str) -> ast.Stmt:
                    if callee not in variant_names:
                        return stmt
                    renamed = _rename_call(stmt, variant_names[callee])
                    return ast.If(
                        ast.NondetBool(),
                        ast.Block((stmt,)),
                        ast.Block((renamed,)),
                    )

                new_body = _replace_calls(procedure.body, choice_rewrite)
                new_procedures.append(
                    ast.Procedure(
                        procedure.name,
                        procedure.parameters,
                        new_body,
                        procedure.returns_value,
                    )
                )
            else:
                new_procedures.append(procedure)
        current = ast.Program(current.globals, tuple(new_procedures))
    return current


def _rename_call(statement: ast.Stmt, new_callee: str) -> ast.Stmt:
    if isinstance(statement, ast.CallStmt):
        return ast.CallStmt(ast.CallExpr(new_callee, statement.call.args))
    if isinstance(statement, ast.Assign) and isinstance(statement.value, ast.CallExpr):
        return ast.Assign(statement.name, ast.CallExpr(new_callee, statement.value.args))
    if isinstance(statement, ast.VarDecl) and isinstance(statement.init, ast.CallExpr):
        return ast.VarDecl(statement.name, ast.CallExpr(new_callee, statement.init.args))
    return statement
