"""Control-flow graphs for procedures.

The interprocedural analyses of the paper operate on weighted control-flow
graphs with two kinds of edges (§4.2): *weighted* edges carrying a transition
formula, and *call* edges ``(u, Q, v)`` recording the callee, the actual
arguments and where the return value goes.  :func:`build_cfg` translates a
procedure's AST into this form, hoisting nested call expressions into
temporaries first so that every call appears on its own edge.

Assertions do not affect control flow (the analysis is an over-approximation
of terminating executions); each ``assert`` is recorded as an
:class:`AssertionSite` so the assertion checker can later compute a path
summary to its location.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..formulas import TransitionFormula
from . import ast
from .semantics import assign_transition, assume_transition, havoc_transition

__all__ = [
    "WeightEdge",
    "CallEdge",
    "AssertionSite",
    "ControlFlowGraph",
    "build_cfg",
    "hoist_calls_in_procedure",
]


@dataclass(frozen=True)
class WeightEdge:
    """A CFG edge weighted with a transition formula.

    ``origin`` is the (possibly synthesized) AST statement the edge
    translates — ``None`` for purely structural edges (fallthrough, join,
    loop back).  Like ``ast.Stmt.line`` it is attribution-only metadata,
    excluded from equality and ``repr``; the lint passes use it to recover
    per-edge variable reads/writes and source lines.
    """

    source: int
    target: int
    transition: TransitionFormula
    label: str = ""
    origin: Optional[ast.Stmt] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return f"{self.source} -> {self.target} [{self.label}]"


@dataclass(frozen=True)
class CallEdge:
    """A CFG call edge ``(u, callee(args), v)`` storing the result variable."""

    source: int
    target: int
    callee: str
    arguments: tuple[ast.Expr, ...]
    result: Optional[str] = None
    label: str = ""
    origin: Optional[ast.Stmt] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.arguments)
        lhs = f"{self.result} = " if self.result else ""
        return f"{self.source} -> {self.target} [{lhs}{self.callee}({args})]"


@dataclass(frozen=True)
class AssertionSite:
    """An assertion inside a procedure, located at a CFG vertex."""

    procedure: str
    vertex: int
    condition: ast.Cond
    text: str

    def __str__(self) -> str:
        return f"assert({self.text}) at {self.procedure}:{self.vertex}"


@dataclass
class ControlFlowGraph:
    """A per-procedure control-flow graph."""

    procedure: str
    entry: int
    exit: int
    vertices: set[int] = field(default_factory=set)
    weight_edges: list[WeightEdge] = field(default_factory=list)
    call_edges: list[CallEdge] = field(default_factory=list)
    assertions: list[AssertionSite] = field(default_factory=list)
    parameters: tuple[str, ...] = ()
    locals: tuple[str, ...] = ()
    returns_value: bool = True

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def edges(self) -> list:
        return list(self.weight_edges) + list(self.call_edges)

    def callees(self) -> frozenset[str]:
        return frozenset(edge.callee for edge in self.call_edges)

    def reachable(
        self, follow: Optional[Callable[[WeightEdge | CallEdge], bool]] = None
    ) -> frozenset[int]:
        """The vertices reachable from the entry along the edges ``follow``
        accepts (every edge when ``None``)."""
        successors: dict[int, list[int]] = {}
        for edge in self.edges:
            if follow is None or follow(edge):
                successors.setdefault(edge.source, []).append(edge.target)
        seen = {self.entry}
        frontier = [self.entry]
        while frontier:
            for target in successors.get(frontier.pop(), ()):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return frozenset(seen)

    def variables(self, global_names: Iterable[str]) -> tuple[str, ...]:
        """All program variables in scope inside this procedure."""
        names: list[str] = list(global_names)
        for name in self.parameters + self.locals + ("return",):
            if name not in names:
                names.append(name)
        return tuple(names)

    def __str__(self) -> str:
        lines = [f"cfg {self.procedure}: entry={self.entry} exit={self.exit}"]
        lines += [f"  {edge}" for edge in self.weight_edges]
        lines += [f"  {edge}" for edge in self.call_edges]
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Call hoisting
# ---------------------------------------------------------------------- #
def _inherit_line(statements: Sequence[ast.Stmt], line: Optional[int]):
    """Stamp hoisted statements with their surface statement's source line."""
    if line is not None:
        for statement in statements:
            if statement.line is None:
                object.__setattr__(statement, "line", line)
    return statements


class _Hoister:
    """Rewrites statements so calls only occur as the whole right-hand side
    of an assignment or as a call statement."""

    def __init__(self) -> None:
        self.counter = itertools.count()
        self.new_locals: list[str] = []

    def fresh_name(self) -> str:
        name = f"__call{next(self.counter)}"
        self.new_locals.append(name)
        return name

    # -- expressions ---------------------------------------------------- #
    def hoist_expression(self, expression: ast.Expr) -> tuple[ast.Expr, list[ast.Stmt]]:
        if isinstance(expression, ast.CallExpr):
            arguments, prelude = self.hoist_arguments(expression.args)
            name = self.fresh_name()
            prelude.append(ast.Assign(name, ast.CallExpr(expression.callee, arguments)))
            return ast.VarRef(name), prelude
        if isinstance(expression, ast.BinOp):
            left, prelude_left = self.hoist_expression(expression.left)
            right, prelude_right = self.hoist_expression(expression.right)
            return ast.BinOp(expression.op, left, right), prelude_left + prelude_right
        if isinstance(expression, ast.UnaryNeg):
            inner, prelude = self.hoist_expression(expression.operand)
            return ast.UnaryNeg(inner), prelude
        if isinstance(expression, ast.MinMax):
            left, prelude_left = self.hoist_expression(expression.left)
            right, prelude_right = self.hoist_expression(expression.right)
            return (
                ast.MinMax(expression.is_max, left, right),
                prelude_left + prelude_right,
            )
        if isinstance(expression, ast.Ternary):
            # Calls inside ternaries are not hoisted through the condition;
            # hoist only the branch values (sufficient for the benchmarks).
            then_value, prelude_then = self.hoist_expression(expression.then_value)
            else_value, prelude_else = self.hoist_expression(expression.else_value)
            return (
                ast.Ternary(expression.condition, then_value, else_value),
                prelude_then + prelude_else,
            )
        if isinstance(expression, ast.Nondet):
            preludes: list[ast.Stmt] = []
            lower = upper = None
            if expression.lower is not None:
                lower, prelude = self.hoist_expression(expression.lower)
                preludes += prelude
            if expression.upper is not None:
                upper, prelude = self.hoist_expression(expression.upper)
                preludes += prelude
            return ast.Nondet(lower, upper), preludes
        if isinstance(expression, ast.ArrayRead):
            index, prelude = self.hoist_expression(expression.index)
            return ast.ArrayRead(expression.array, index), prelude
        return expression, []

    def hoist_arguments(
        self, arguments: Sequence[ast.Expr]
    ) -> tuple[tuple[ast.Expr, ...], list[ast.Stmt]]:
        hoisted: list[ast.Expr] = []
        prelude: list[ast.Stmt] = []
        for argument in arguments:
            new_argument, argument_prelude = self.hoist_expression(argument)
            hoisted.append(new_argument)
            prelude.extend(argument_prelude)
        return tuple(hoisted), prelude

    # -- statements ----------------------------------------------------- #
    def hoist_statement(self, statement: ast.Stmt) -> list[ast.Stmt]:
        if isinstance(statement, ast.Block):
            return [ast.Block(tuple(self._hoist_block(statement)), line=statement.line)]
        if isinstance(statement, (ast.Assign, ast.VarDecl)):
            value = statement.value if isinstance(statement, ast.Assign) else statement.init
            if value is None:
                return [statement]
            if isinstance(value, ast.CallExpr):
                arguments, prelude = self.hoist_arguments(value.args)
                call = ast.CallExpr(value.callee, arguments)
                if isinstance(statement, ast.VarDecl):
                    return prelude + [ast.VarDecl(statement.name), ast.Assign(statement.name, call)]
                return prelude + [ast.Assign(statement.name, call)]
            new_value, prelude = self.hoist_expression(value)
            if isinstance(statement, ast.VarDecl):
                return prelude + [ast.VarDecl(statement.name, new_value)]
            return prelude + [ast.Assign(statement.name, new_value)]
        if isinstance(statement, ast.CallStmt):
            arguments, prelude = self.hoist_arguments(statement.call.args)
            return prelude + [ast.CallStmt(ast.CallExpr(statement.call.callee, arguments))]
        if isinstance(statement, ast.Return):
            if statement.value is None:
                return [statement]
            if isinstance(statement.value, ast.CallExpr):
                arguments, prelude = self.hoist_arguments(statement.value.args)
                name = self.fresh_name()
                call = ast.CallExpr(statement.value.callee, arguments)
                return prelude + [
                    ast.VarDecl(name),
                    ast.Assign(name, call),
                    ast.Return(ast.VarRef(name)),
                ]
            value, prelude = self.hoist_expression(statement.value)
            return prelude + [ast.Return(value)]
        if isinstance(statement, ast.If):
            then_branch = ast.Block(tuple(self._hoist_block(statement.then_branch)))
            else_branch = (
                ast.Block(tuple(self._hoist_block(statement.else_branch)))
                if statement.else_branch is not None
                else None
            )
            return [ast.If(statement.condition, then_branch, else_branch)]
        if isinstance(statement, ast.While):
            return [ast.While(statement.condition, ast.Block(tuple(self._hoist_block(statement.body))))]
        if isinstance(statement, ast.ArrayWrite):
            value, prelude = self.hoist_expression(statement.value)
            index, index_prelude = self.hoist_expression(statement.index)
            return prelude + index_prelude + [ast.ArrayWrite(statement.array, index, value)]
        return [statement]

    def _hoist_block(self, block: ast.Block) -> list[ast.Stmt]:
        out: list[ast.Stmt] = []
        for child in block.statements:
            out.extend(_inherit_line(self.hoist_statement(child), child.line))
        return out


def hoist_calls_in_procedure(procedure: ast.Procedure) -> tuple[ast.Procedure, tuple[str, ...]]:
    """Hoist nested call expressions; returns the new procedure and new locals."""
    hoister = _Hoister()
    body = ast.Block(tuple(hoister._hoist_block(procedure.body)), line=procedure.body.line)
    return (
        ast.Procedure(
            procedure.name,
            procedure.parameters,
            body,
            procedure.returns_value,
            line=procedure.line,
        ),
        tuple(hoister.new_locals),
    )


# ---------------------------------------------------------------------- #
# CFG construction
# ---------------------------------------------------------------------- #
class _CfgBuilder:
    def __init__(self, procedure: ast.Procedure):
        self.procedure = procedure
        self.counter = itertools.count()
        self.cfg = ControlFlowGraph(
            procedure=procedure.name,
            entry=0,
            exit=1,
            vertices={0, 1},
            parameters=procedure.scalar_parameters,
            returns_value=procedure.returns_value,
        )
        next(self.counter)  # 0
        next(self.counter)  # 1

    def new_vertex(self) -> int:
        vertex = next(self.counter)
        self.cfg.vertices.add(vertex)
        return vertex

    def add_weight(
        self,
        source: int,
        target: int,
        transition: TransitionFormula,
        label: str,
        origin: Optional[ast.Stmt] = None,
    ) -> None:
        self.cfg.weight_edges.append(WeightEdge(source, target, transition, label, origin))

    def add_call(
        self,
        source: int,
        target: int,
        callee: str,
        arguments: tuple[ast.Expr, ...],
        result: Optional[str],
        origin: Optional[ast.Stmt] = None,
    ) -> None:
        label = f"{result + ' = ' if result else ''}{callee}(...)"
        self.cfg.call_edges.append(
            CallEdge(source, target, callee, arguments, result, label, origin)
        )

    # -- statement translation ------------------------------------------ #
    def build(self) -> ControlFlowGraph:
        last = self.translate_block(self.procedure.body, self.cfg.entry)
        # Implicit fall-through to the exit vertex.
        self.add_weight(last, self.cfg.exit, TransitionFormula.identity(), "fallthrough")
        return self.cfg

    def translate_block(self, block: ast.Block, current: int) -> int:
        for statement in block.statements:
            current = self.translate_statement(statement, current)
        return current

    def translate_statement(self, statement: ast.Stmt, current: int) -> int:
        if isinstance(statement, ast.Block):
            return self.translate_block(statement, current)
        if isinstance(statement, ast.VarDecl):
            target = self.new_vertex()
            if statement.init is None:
                self.add_weight(
                    current,
                    target,
                    havoc_transition(statement.name),
                    f"havoc {statement.name}",
                    origin=statement,
                )
            else:
                self.add_weight(
                    current,
                    target,
                    assign_transition(statement.name, statement.init),
                    str(statement),
                    origin=statement,
                )
            return target
        if isinstance(statement, ast.Assign):
            target = self.new_vertex()
            if isinstance(statement.value, ast.CallExpr):
                self.add_call(
                    current,
                    target,
                    statement.value.callee,
                    statement.value.args,
                    statement.name,
                    origin=statement,
                )
            else:
                self.add_weight(
                    current,
                    target,
                    assign_transition(statement.name, statement.value),
                    str(statement),
                    origin=statement,
                )
            return target
        if isinstance(statement, ast.Havoc):
            target = self.new_vertex()
            self.add_weight(
                current, target, havoc_transition(statement.name), str(statement), origin=statement
            )
            return target
        if isinstance(statement, ast.ArrayWrite):
            target = self.new_vertex()
            self.add_weight(
                current, target, TransitionFormula.identity(), str(statement), origin=statement
            )
            return target
        if isinstance(statement, ast.CallStmt):
            target = self.new_vertex()
            self.add_call(
                current,
                target,
                statement.call.callee,
                statement.call.args,
                None,
                origin=statement,
            )
            return target
        if isinstance(statement, ast.Assume):
            target = self.new_vertex()
            self.add_weight(
                current,
                target,
                assume_transition(statement.condition),
                str(statement),
                origin=statement,
            )
            return target
        if isinstance(statement, ast.Assert):
            self.cfg.assertions.append(
                AssertionSite(self.procedure.name, current, statement.condition, str(statement.condition))
            )
            target = self.new_vertex()
            self.add_weight(
                current, target, TransitionFormula.identity(), str(statement), origin=statement
            )
            return target
        if isinstance(statement, ast.Return):
            if statement.value is not None:
                middle = self.new_vertex()
                self.add_weight(
                    current,
                    middle,
                    assign_transition("return", statement.value),
                    str(statement),
                    origin=statement,
                )
                current = middle
            self.add_weight(current, self.cfg.exit, TransitionFormula.identity(), "return")
            # Code after a return is unreachable; give it a fresh vertex.
            return self.new_vertex()
        if isinstance(statement, ast.If):
            join = self.new_vertex()
            then_entry = self.new_vertex()
            self.add_weight(
                current,
                then_entry,
                assume_transition(statement.condition),
                f"assume {statement.condition}",
                origin=ast.Assume(statement.condition, line=statement.line),
            )
            then_exit = self.translate_block(statement.then_branch, then_entry)
            self.add_weight(then_exit, join, TransitionFormula.identity(), "endif")
            negated = ast.NotCond(statement.condition)
            if statement.else_branch is not None:
                else_entry = self.new_vertex()
                self.add_weight(
                    current,
                    else_entry,
                    assume_transition(negated),
                    f"assume {negated}",
                    origin=ast.Assume(negated, line=statement.line),
                )
                else_exit = self.translate_block(statement.else_branch, else_entry)
                self.add_weight(else_exit, join, TransitionFormula.identity(), "endelse")
            else:
                self.add_weight(
                    current,
                    join,
                    assume_transition(negated),
                    f"assume {negated}",
                    origin=ast.Assume(negated, line=statement.line),
                )
            return join
        if isinstance(statement, ast.While):
            head = current
            after = self.new_vertex()
            body_entry = self.new_vertex()
            self.add_weight(
                head,
                body_entry,
                assume_transition(statement.condition),
                f"assume {statement.condition}",
                origin=ast.Assume(statement.condition, line=statement.line),
            )
            body_exit = self.translate_block(statement.body, body_entry)
            self.add_weight(body_exit, head, TransitionFormula.identity(), "loop back")
            negated = ast.NotCond(statement.condition)
            self.add_weight(
                head,
                after,
                assume_transition(negated),
                f"assume {negated}",
                origin=ast.Assume(negated, line=statement.line),
            )
            return after
        raise TypeError(f"unsupported statement {statement!r}")


def build_cfg(procedure: ast.Procedure) -> ControlFlowGraph:
    """Build the control-flow graph of a procedure (after call hoisting)."""
    hoisted, extra_locals = hoist_calls_in_procedure(procedure)
    builder = _CfgBuilder(hoisted)
    cfg = builder.build()
    cfg.locals = tuple(dict.fromkeys(hoisted.local_variables() + extra_locals))
    return cfg
