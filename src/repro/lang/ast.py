"""Abstract syntax trees for the mini-language.

The benchmark programs of the paper are small C programs over (global and
local) integer variables with loops, branches, recursion, non-determinism and
assertions.  This module defines the AST the parser produces and the analyses
consume.  Arrays are supported syntactically (``int *A`` parameters, ``A[e]``
reads, ``A[e] = v`` writes) but — exactly as in the paper's tool, which only
reasons about integer variables — array reads are treated as unconstrained
(non-deterministic) integer values and array writes as no-ops.

Statement nodes (and the top-level declarations) carry an optional ``line``
attribute recording the source line of their first token.  The field is for
*attribution only* — diagnostics, error messages — and is excluded from
equality, hashing and ``repr``, so structural identity and everything built
on it (procedure fingerprints hash ``repr``, see
:mod:`repro.lang.fingerprint`) stay insensitive to formatting.

:func:`children` and :func:`walk` are the one traversal of the tree: every
analysis that searches it (call graphs, locals, the lint passes, the fuzz
shrinker) is a loop over :func:`walk` rather than its own recursive
visitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from typing import Iterator, Optional

__all__ = [
    "Node",
    # expressions
    "Expr",
    "IntLit",
    "VarRef",
    "BinOp",
    "UnaryNeg",
    "Nondet",
    "ArrayRead",
    "CallExpr",
    "MinMax",
    "Ternary",
    # conditions
    "Cond",
    "BoolLit",
    "Compare",
    "BoolOp",
    "NotCond",
    "NondetBool",
    # statements
    "Stmt",
    "Block",
    "VarDecl",
    "Assign",
    "ArrayWrite",
    "CallStmt",
    "If",
    "While",
    "Return",
    "Assert",
    "Assume",
    "Havoc",
    # top level
    "Parameter",
    "Procedure",
    "GlobalDecl",
    "Program",
    # traversal
    "children",
    "walk",
]


class Node:
    """Base class of every syntax-tree node: expressions, conditions,
    statements and the top-level declarations."""

    __slots__ = ()


def _line_field() -> Optional[int]:
    """The shared declaration of the attribution-only ``line`` attribute."""
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------- #
# Expressions
# ---------------------------------------------------------------------- #
class Expr(Node):
    """Base class of integer-valued expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class IntLit(Expr):
    """An integer literal."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class VarRef(Expr):
    """A reference to a scalar variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary arithmetic operation: ``+``, ``-``, ``*`` or ``/``.

    Division denotes *floor* division (Python ``//``, rounding toward
    negative infinity) and is modelled relationally by the semantics; the
    analyses support it for positive constant divisors only, where the
    relational model is exact for every integer dividend — including
    negative ones.  (C's truncation toward zero differs on negative
    dividends; this language is defined to floor.)
    """

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryNeg(Expr):
    """Unary minus."""

    operand: Expr

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True)
class Nondet(Expr):
    """A non-deterministic integer, optionally range-restricted.

    ``nondet()`` is unrestricted; ``nondet(lo, hi)`` denotes a value ``v``
    with ``lo <= v < hi`` (the convention used by the paper's ``height``
    benchmark: ``nondet(0, size)`` picks ``0 <= left_size < size``).
    """

    lower: Optional[Expr] = None
    upper: Optional[Expr] = None

    def __str__(self) -> str:
        if self.lower is None and self.upper is None:
            return "nondet()"
        return f"nondet({self.lower}, {self.upper})"


@dataclass(frozen=True)
class ArrayRead(Expr):
    """A read from an array; analysed as an unconstrained integer."""

    array: str
    index: Expr

    def __str__(self) -> str:
        return f"{self.array}[{self.index}]"


@dataclass(frozen=True)
class CallExpr(Expr):
    """A call used in expression position (hoisted before analysis)."""

    callee: str
    args: tuple[Expr, ...]

    def __str__(self) -> str:
        return f"{self.callee}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class MinMax(Expr):
    """``min(a, b)`` / ``max(a, b)``."""

    is_max: bool
    left: Expr
    right: Expr

    def __str__(self) -> str:
        name = "max" if self.is_max else "min"
        return f"{name}({self.left}, {self.right})"


@dataclass(frozen=True)
class Ternary(Expr):
    """A conditional expression ``condition ? then_value : else_value``."""

    condition: "Cond"
    then_value: Expr
    else_value: Expr

    def __str__(self) -> str:
        return f"({self.condition} ? {self.then_value} : {self.else_value})"


# ---------------------------------------------------------------------- #
# Conditions
# ---------------------------------------------------------------------- #
class Cond(Node):
    """Base class of boolean conditions."""

    __slots__ = ()


@dataclass(frozen=True)
class BoolLit(Cond):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class Compare(Cond):
    """A comparison ``left op right`` with op in ==, !=, <, <=, >, >=."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class BoolOp(Cond):
    """Conjunction (``&&``) or disjunction (``||``)."""

    op: str
    left: Cond
    right: Cond

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class NotCond(Cond):
    operand: Cond

    def __str__(self) -> str:
        return f"!({self.operand})"


@dataclass(frozen=True)
class NondetBool(Cond):
    """A non-deterministic boolean (written ``*`` or ``nondet_bool()``)."""

    def __str__(self) -> str:
        return "*"


# ---------------------------------------------------------------------- #
# Statements
# ---------------------------------------------------------------------- #
class Stmt(Node):
    """Base class of statements.

    Every concrete statement carries an attribution-only ``line`` (see the
    module docstring); it defaults to ``None`` for nodes built
    programmatically (desugaring, call hoisting, test fixtures, the fuzz
    generator).
    """

    __slots__ = ()


@dataclass(frozen=True)
class Block(Stmt):
    statements: tuple[Stmt, ...]
    line: Optional[int] = _line_field()

    def __str__(self) -> str:
        inner = " ".join(str(s) for s in self.statements)
        return "{ " + inner + " }"


@dataclass(frozen=True)
class VarDecl(Stmt):
    """Local variable declaration with optional initializer."""

    name: str
    init: Optional[Expr] = None
    line: Optional[int] = _line_field()

    def __str__(self) -> str:
        if self.init is None:
            return f"int {self.name};"
        return f"int {self.name} = {self.init};"


@dataclass(frozen=True)
class Assign(Stmt):
    """Assignment to a scalar variable (the RHS may be a call expression)."""

    name: str
    value: Expr
    line: Optional[int] = _line_field()

    def __str__(self) -> str:
        return f"{self.name} = {self.value};"


@dataclass(frozen=True)
class ArrayWrite(Stmt):
    """A store into an array; analysed as a no-op over the integer state."""

    array: str
    index: Expr
    value: Expr
    line: Optional[int] = _line_field()

    def __str__(self) -> str:
        return f"{self.array}[{self.index}] = {self.value};"


@dataclass(frozen=True)
class CallStmt(Stmt):
    """A call whose result (if any) is discarded."""

    call: CallExpr
    line: Optional[int] = _line_field()

    def __str__(self) -> str:
        return f"{self.call};"


@dataclass(frozen=True)
class If(Stmt):
    condition: Cond
    then_branch: Block
    else_branch: Optional[Block] = None
    line: Optional[int] = _line_field()

    def __str__(self) -> str:
        text = f"if ({self.condition}) {self.then_branch}"
        if self.else_branch is not None:
            text += f" else {self.else_branch}"
        return text


@dataclass(frozen=True)
class While(Stmt):
    condition: Cond
    body: Block
    line: Optional[int] = _line_field()

    def __str__(self) -> str:
        return f"while ({self.condition}) {self.body}"


@dataclass(frozen=True)
class Return(Stmt):
    value: Optional[Expr] = None
    line: Optional[int] = _line_field()

    def __str__(self) -> str:
        if self.value is None:
            return "return;"
        return f"return {self.value};"


@dataclass(frozen=True)
class Assert(Stmt):
    condition: Cond
    line: Optional[int] = _line_field()

    def __str__(self) -> str:
        return f"assert({self.condition});"


@dataclass(frozen=True)
class Assume(Stmt):
    condition: Cond
    line: Optional[int] = _line_field()

    def __str__(self) -> str:
        return f"assume({self.condition});"


@dataclass(frozen=True)
class Havoc(Stmt):
    """Assign an arbitrary value to a variable."""

    name: str
    line: Optional[int] = _line_field()

    def __str__(self) -> str:
        return f"{self.name} = nondet();"


# ---------------------------------------------------------------------- #
# Top level
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Parameter(Node):
    """A formal parameter; ``is_array`` parameters carry no integer state."""

    name: str
    is_array: bool = False

    def __str__(self) -> str:
        return f"int *{self.name}" if self.is_array else f"int {self.name}"


@dataclass(frozen=True)
class Procedure(Node):
    """A procedure definition."""

    name: str
    parameters: tuple[Parameter, ...]
    body: Block
    returns_value: bool = True
    line: Optional[int] = _line_field()

    @property
    def scalar_parameters(self) -> tuple[str, ...]:
        """Names of the integer (non-array) parameters."""
        return tuple(p.name for p in self.parameters if not p.is_array)

    def local_variables(self) -> tuple[str, ...]:
        """Names of the locals declared anywhere in the body, in the order
        of their first declarations."""
        return tuple(
            dict.fromkeys(node.name for node in walk(self.body) if isinstance(node, VarDecl))
        )

    def __str__(self) -> str:
        kind = "int" if self.returns_value else "void"
        params = ", ".join(str(p) for p in self.parameters)
        return f"{kind} {self.name}({params}) {self.body}"


@dataclass(frozen=True)
class GlobalDecl(Node):
    """A global integer variable with an optional constant initializer."""

    name: str
    init: Optional[int] = None
    line: Optional[int] = _line_field()

    def __str__(self) -> str:
        if self.init is None:
            return f"int {self.name};"
        return f"int {self.name} = {self.init};"


@dataclass(frozen=True)
class Program(Node):
    """A whole program: global declarations plus procedures."""

    globals: tuple[GlobalDecl, ...]
    procedures: tuple[Procedure, ...]

    @property
    def global_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.globals)

    def procedure(self, name: str) -> Procedure:
        for procedure in self.procedures:
            if procedure.name == name:
                return procedure
        raise KeyError(f"no procedure named {name!r}")

    @property
    def procedure_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.procedures)

    def __str__(self) -> str:
        parts = [str(g) for g in self.globals] + [str(p) for p in self.procedures]
        return "\n".join(parts)


# ---------------------------------------------------------------------- #
# Traversal
# ---------------------------------------------------------------------- #
@cache
def _field_names(cls: type) -> tuple[str, ...]:
    """The fields of a node class in declaration order, ``line`` excluded."""
    return tuple(f.name for f in fields(cls) if f.name != "line")


def children(node: Node) -> list[Node]:
    """The direct sub-nodes of ``node``, in source order.

    Every dataclass field is read generically: it holds a node, a tuple of
    nodes, ``None``, or a name, operator or literal, and only nodes are
    kept.  This and :func:`walk` are the only code that knows where a node
    keeps its expressions, conditions and statements.
    """
    found: list[Node] = []
    for name in _field_names(type(node)):
        value = getattr(node, name)
        if isinstance(value, tuple):
            found += value
        elif isinstance(value, Node):
            found.append(value)
    return found


def walk(node: Node) -> Iterator[Node]:
    """``node`` and every node below it, preorder, in source order."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack += reversed(children(node))
