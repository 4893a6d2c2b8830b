"""Greedy minimization of fuzz findings.

A raw finding is a generated program of a few dozen statements; the useful
artifact is the five-line core that still triggers the bug.  The shrinker
repeatedly applies three reductions and keeps any candidate for which the
caller's ``reproduces`` predicate still holds:

1. **procedure deletion** — drop an unreferenced non-entry procedure;
2. **statement deletion** — drop one statement (with its whole subtree:
   deleting an ``if`` or ``while`` removes its body too), indexed in
   preorder over all procedure bodies;
3. **constant shrinking** — replace an integer literal ``v`` with a smaller
   candidate (``0``, ``v // 2``, ``v - 1``).

Each pass restarts after a successful reduction (deleting statement 7 may
make procedure ``f2`` unreferenced), so the loop runs to a fixpoint: the
result is 1-minimal with respect to these reductions.  The predicate is a
black box — the CLI wires it to a single-task batch-engine run, so findings
that only reproduce through a crash or a timeout still shrink safely.

All reductions preserve well-formedness: a deleted statement never leaves a
dangling reference *to a procedure* (deleting a declaration may leave uses
of its variable behind, but the predicate rejects candidates that turn the
finding into an uninteresting ``oracle-error``, see the CLI's predicate).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from ..lang import ast, parse_program
from .generator import format_program

__all__ = ["shrink_program"]


# ---------------------------------------------------------------------- #
# Indexed rewriting
# ---------------------------------------------------------------------- #
class _StatementEditor:
    """Rebuilds a program with the ``target``-th preorder statement deleted.

    ``target < 0`` just counts the deletable statements.
    """

    def __init__(self, target: int = -1):
        self.target = target
        self.counter = 0

    def edit_program(self, program: ast.Program) -> ast.Program:
        return replace(
            program,
            procedures=tuple(
                replace(p, body=self.edit_block(p.body)) for p in program.procedures
            ),
        )

    def edit_block(self, block: ast.Block) -> ast.Block:
        statements: list[ast.Stmt] = []
        for statement in block.statements:
            index = self.counter
            self.counter += 1
            if index == self.target:
                continue  # delete: skip the statement and its whole subtree
            statements.append(self.edit_statement(statement))
        return ast.Block(tuple(statements))

    def edit_statement(self, statement: ast.Stmt) -> ast.Stmt:
        if isinstance(statement, ast.Block):
            return self.edit_block(statement)
        if isinstance(statement, ast.If):
            return replace(
                statement,
                then_branch=self.edit_block(statement.then_branch),
                else_branch=(
                    self.edit_block(statement.else_branch)
                    if statement.else_branch is not None
                    else None
                ),
            )
        if isinstance(statement, ast.While):
            return replace(statement, body=self.edit_block(statement.body))
        return statement

    # Counting statements *inside* a deleted subtree is unnecessary: the
    # subtree is gone, and the next fixpoint round re-enumerates anyway.


def _count_statements(program: ast.Program) -> int:
    editor = _StatementEditor(-1)
    editor.edit_program(program)
    return editor.counter


def _delete_statement(program: ast.Program, index: int) -> ast.Program:
    return _StatementEditor(index).edit_program(program)


class _LiteralEditor:
    """Replaces the ``target``-th preorder integer literal with ``value``."""

    def __init__(self, target: int = -1, value: int = 0):
        self.target = target
        self.value = value
        self.counter = 0
        self.original: Optional[int] = None

    def edit_program(self, program: ast.Program) -> ast.Program:
        return replace(
            program,
            procedures=tuple(
                replace(p, body=self.statement(p.body)) for p in program.procedures
            ),
        )

    def statement(self, statement: ast.Stmt) -> ast.Stmt:
        if isinstance(statement, ast.Block):
            return ast.Block(tuple(self.statement(s) for s in statement.statements))
        if isinstance(statement, ast.VarDecl) and statement.init is not None:
            return replace(statement, init=self.expression(statement.init))
        if isinstance(statement, ast.Assign):
            return replace(statement, value=self.expression(statement.value))
        if isinstance(statement, ast.ArrayWrite):
            return replace(
                statement,
                index=self.expression(statement.index),
                value=self.expression(statement.value),
            )
        if isinstance(statement, ast.CallStmt):
            return replace(statement, call=self.expression(statement.call))
        if isinstance(statement, ast.If):
            return replace(
                statement,
                condition=self.condition(statement.condition),
                then_branch=self.statement(statement.then_branch),
                else_branch=(
                    self.statement(statement.else_branch)
                    if statement.else_branch is not None
                    else None
                ),
            )
        if isinstance(statement, ast.While):
            return replace(
                statement,
                condition=self.condition(statement.condition),
                body=self.statement(statement.body),
            )
        if isinstance(statement, ast.Return) and statement.value is not None:
            return replace(statement, value=self.expression(statement.value))
        if isinstance(statement, (ast.Assert, ast.Assume)):
            return replace(statement, condition=self.condition(statement.condition))
        return statement

    def expression(self, expression: ast.Expr) -> ast.Expr:
        if isinstance(expression, ast.IntLit):
            index = self.counter
            self.counter += 1
            if index == self.target:
                self.original = expression.value
                return ast.IntLit(self.value)
            return expression
        if isinstance(expression, ast.UnaryNeg):
            return replace(expression, operand=self.expression(expression.operand))
        if isinstance(expression, ast.BinOp):
            if expression.op == "/":
                # Never rewrite a divisor: shrinking it to 0 or a negative
                # value would make the program malformed, masking the bug.
                return replace(expression, left=self.expression(expression.left))
            return replace(
                expression,
                left=self.expression(expression.left),
                right=self.expression(expression.right),
            )
        if isinstance(expression, ast.Nondet):
            return replace(
                expression,
                lower=(
                    self.expression(expression.lower)
                    if expression.lower is not None
                    else None
                ),
                upper=(
                    self.expression(expression.upper)
                    if expression.upper is not None
                    else None
                ),
            )
        if isinstance(expression, ast.ArrayRead):
            return replace(expression, index=self.expression(expression.index))
        if isinstance(expression, ast.CallExpr):
            return replace(
                expression, args=tuple(self.expression(a) for a in expression.args)
            )
        if isinstance(expression, ast.MinMax):
            return replace(
                expression,
                left=self.expression(expression.left),
                right=self.expression(expression.right),
            )
        if isinstance(expression, ast.Ternary):
            return replace(
                expression,
                condition=self.condition(expression.condition),
                then_value=self.expression(expression.then_value),
                else_value=self.expression(expression.else_value),
            )
        return expression

    def condition(self, condition: ast.Cond) -> ast.Cond:
        if isinstance(condition, ast.Compare):
            return replace(
                condition,
                left=self.expression(condition.left),
                right=self.expression(condition.right),
            )
        if isinstance(condition, ast.BoolOp):
            return replace(
                condition,
                left=self.condition(condition.left),
                right=self.condition(condition.right),
            )
        if isinstance(condition, ast.NotCond):
            return replace(condition, operand=self.condition(condition.operand))
        return condition


def _count_literals(program: ast.Program) -> int:
    editor = _LiteralEditor(-1)
    editor.edit_program(program)
    return editor.counter


def _referenced_procedures(program: ast.Program) -> set[str]:
    return {
        node.callee
        for procedure in program.procedures
        for node in ast.walk(procedure.body)
        if isinstance(node, ast.CallExpr)
    }


# ---------------------------------------------------------------------- #
# The greedy loop
# ---------------------------------------------------------------------- #
def shrink_program(
    source: str,
    reproduces: Callable[[str], bool],
    max_rounds: int = 50,
) -> str:
    """Minimize ``source`` while ``reproduces(candidate)`` stays true.

    ``reproduces`` is called on re-rendered source text; the initial source
    is assumed to reproduce (callers check before shrinking).  Returns the
    smallest text found — at worst the input itself.
    """
    program = parse_program(source)
    for _ in range(max_rounds):
        changed = False

        # Pass 1: drop unreferenced non-entry procedures.
        entry = program.procedures[-1].name
        referenced = _referenced_procedures(program) | {entry}
        for procedure in program.procedures:
            if procedure.name in referenced:
                continue
            candidate = replace(
                program,
                procedures=tuple(
                    p for p in program.procedures if p.name != procedure.name
                ),
            )
            if reproduces(format_program(candidate)):
                program = candidate
                changed = True
                break
        if changed:
            continue

        # Pass 2: delete one statement (largest-subtree-first would be
        # faster; front-to-back keeps the pass deterministic and simple).
        for index in range(_count_statements(program)):
            candidate = _delete_statement(program, index)
            if reproduces(format_program(candidate)):
                program = candidate
                changed = True
                break
        if changed:
            continue

        # Pass 3: shrink one integer literal.
        for index in range(_count_literals(program)):
            probe = _LiteralEditor(index, 0)
            probe.edit_program(program)
            original = probe.original if probe.original is not None else 0
            for smaller in _shrink_candidates(original):
                candidate = _LiteralEditor(index, smaller).edit_program(program)
                if reproduces(format_program(candidate)):
                    program = candidate
                    changed = True
                    break
            if changed:
                break
        if not changed:
            break
    return format_program(program)


def _shrink_candidates(value: int) -> list[int]:
    candidates = []
    for candidate in (0, value // 2, value - 1 if value > 0 else value + 1):
        if candidate != value and candidate not in candidates:
            candidates.append(candidate)
    return candidates
