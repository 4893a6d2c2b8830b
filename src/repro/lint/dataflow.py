"""Intraprocedural dataflow passes over :mod:`repro.lang.cfg`.

The passes run on the same control-flow graphs the analysis consumes (after
call hoisting), reading each edge's variable *defs* and *uses* off its
``origin`` statement:

* **R001 / R006** — reads of (R001) and assignments to (R006) variables that
  are not declared anywhere in scope.  Both crash the concrete interpreter
  and leave the abstract semantics without a frame for the name.
* **R002** — a *definitely*-unassigned read: a local read before its
  declaration on **every** path (forward must-analysis, so a read that some
  path initializes is never flagged — zero false positives by construction).
* **R003** — dead stores: an assignment to a local whose value no path ever
  reads again (backward liveness; globals and the ``return`` slot are live
  at exit, so cost-counter updates like ``nTicks = nTicks + 1`` never
  trigger it).
* **R004** — unreachable statements: real (``origin``-bearing) edges leaving
  vertices the entry cannot reach, i.e. code after a ``return``.
* **R005** — globals that are assigned somewhere but read nowhere in the
  whole program.
"""

from __future__ import annotations

from typing import Optional

from ..lang import SemanticsError, ast, build_cfg
from ..lang.cfg import CallEdge, ControlFlowGraph
from .diagnostics import Diagnostic

__all__ = ["check_program"]


# ---------------------------------------------------------------------- #
# Variable footprints of expressions / conditions / edges
# ---------------------------------------------------------------------- #
def _variables_read(node: ast.Node) -> frozenset[str]:
    """The scalar variables read anywhere under ``node`` (array *names*
    excluded)."""
    return frozenset(n.name for n in ast.walk(node) if isinstance(n, ast.VarRef))


def _edge_defs_uses(edge) -> tuple[frozenset[str], frozenset[str]]:
    """``(defs, uses)`` of one CFG edge, from its origin statement."""
    if isinstance(edge, CallEdge):
        uses = frozenset().union(*map(_variables_read, edge.arguments))
        defs = frozenset([edge.result]) if edge.result else frozenset()
        return defs, uses
    origin = edge.origin
    if origin is None:
        return frozenset(), frozenset()
    uses = _variables_read(origin)
    if isinstance(origin, (ast.VarDecl, ast.Assign, ast.Havoc)):
        return frozenset([origin.name]), uses
    if isinstance(origin, ast.Return) and origin.value is not None:
        return frozenset(["return"]), uses
    return frozenset(), uses


def _edge_line(edge) -> Optional[int]:
    return edge.origin.line if edge.origin is not None else None


# ---------------------------------------------------------------------- #
# Per-procedure passes
# ---------------------------------------------------------------------- #
def _check_declarations(
    cfg: ControlFlowGraph, declared: frozenset[str], procedure: str
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    seen: set[tuple[str, str, Optional[int]]] = set()
    for edge in cfg.edges:
        defs, uses = _edge_defs_uses(edge)
        line = _edge_line(edge)
        for name in sorted(uses - declared):
            if ("use", name, line) in seen:
                continue
            seen.add(("use", name, line))
            diagnostics.append(
                Diagnostic(
                    code="R001",
                    severity="error",
                    message=f"variable '{name}' is read but declared nowhere in scope",
                    line=line,
                    procedure=procedure,
                )
            )
        for name in sorted(defs - declared - {"return"}):
            if ("def", name, line) in seen:
                continue
            seen.add(("def", name, line))
            diagnostics.append(
                Diagnostic(
                    code="R006",
                    severity="warning",
                    message=f"assignment to '{name}', which is declared nowhere in scope",
                    line=line,
                    procedure=procedure,
                )
            )
    return diagnostics


def _check_read_before_declaration(
    cfg: ControlFlowGraph,
    locals_: frozenset[str],
    reachable: frozenset[int],
    procedure: str,
) -> list[Diagnostic]:
    """Forward must-analysis: locals unassigned on *every* path to a vertex."""
    unassigned: dict[int, frozenset[str]] = {v: locals_ for v in cfg.vertices}
    # Must-information: start from "all locals unassigned" at entry and
    # intersect over incoming paths; unreachable vertices keep the top value
    # but are reported by the unreachable-code pass instead.
    changed = True
    while changed:
        changed = False
        for edge in cfg.edges:
            defs, _ = _edge_defs_uses(edge)
            outgoing = unassigned[edge.source] - defs
            merged = unassigned[edge.target] & outgoing
            if merged != unassigned[edge.target]:
                unassigned[edge.target] = merged
                changed = True
    diagnostics: list[Diagnostic] = []
    seen: set[tuple[str, Optional[int]]] = set()
    for edge in cfg.edges:
        if edge.source not in reachable:
            continue
        _, uses = _edge_defs_uses(edge)
        line = _edge_line(edge)
        for name in sorted(uses & unassigned[edge.source] & locals_):
            if (name, line) in seen:
                continue
            seen.add((name, line))
            diagnostics.append(
                Diagnostic(
                    code="R002",
                    severity="warning",
                    message=f"local '{name}' is read before its declaration on every path",
                    line=line,
                    procedure=procedure,
                )
            )
    return diagnostics


def _check_unreachable(
    cfg: ControlFlowGraph, reachable: frozenset[int], procedure: str
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    lines: set[Optional[int]] = set()
    for edge in cfg.edges:
        if edge.source in reachable or edge.origin is None:
            continue
        line = _edge_line(edge)
        if line in lines:
            continue
        lines.add(line)
        diagnostics.append(
            Diagnostic(
                code="R004",
                severity="warning",
                message="unreachable code (no path from the procedure entry reaches it)",
                line=line,
                procedure=procedure,
            )
        )
    return diagnostics


def _check_dead_stores(
    cfg: ControlFlowGraph,
    global_names: frozenset[str],
    reachable: frozenset[int],
    procedure: str,
) -> list[Diagnostic]:
    live: dict[int, frozenset[str]] = {v: frozenset() for v in cfg.vertices}
    exit_live = global_names | ({"return"} if cfg.returns_value else frozenset())
    live[cfg.exit] = exit_live
    changed = True
    while changed:
        changed = False
        for edge in cfg.edges:
            defs, uses = _edge_defs_uses(edge)
            incoming = uses | (live[edge.target] - defs)
            merged = live[edge.source] | incoming
            if merged != live[edge.source]:
                live[edge.source] = merged
                changed = True
        live[cfg.exit] |= exit_live
    diagnostics: list[Diagnostic] = []
    for edge in cfg.weight_edges:
        origin = edge.origin
        if edge.source not in reachable:
            continue
        # Only plain assignments are candidates: an initializer at the
        # declaration (``int retval = 0;``) is idiomatic defensive code even
        # when every path overwrites it, so it is deliberately exempt.
        if not isinstance(origin, ast.Assign):
            continue
        name = origin.name
        if name in global_names or name == "return" or name.startswith("__call"):
            continue
        if name not in live[edge.target]:
            diagnostics.append(
                Diagnostic(
                    code="R003",
                    severity="info",
                    message=f"dead store: the value assigned to '{name}' is never read",
                    line=_edge_line(edge),
                    procedure=procedure,
                )
            )
    return diagnostics


# ---------------------------------------------------------------------- #
# Program entry point
# ---------------------------------------------------------------------- #
def check_program(program: ast.Program) -> list[Diagnostic]:
    """Run every dataflow pass over every procedure of ``program``."""
    diagnostics: list[Diagnostic] = []
    global_names = frozenset(program.global_names)
    global_reads: set[str] = set()
    global_writes: dict[str, Optional[int]] = {}
    for procedure in program.procedures:
        try:
            cfg = build_cfg(procedure)
        except SemanticsError:
            # The front end rejects the procedure outright (unsupported
            # division, ...); the expression pass reports the root cause.
            continue
        # All parameters count as declared — including array parameters,
        # which the CFG's scalar frame excludes but call arguments may name.
        declared = (
            global_names
            | {parameter.name for parameter in procedure.parameters}
            | set(cfg.locals)
        )
        reachable = cfg.reachable()
        locals_ = frozenset(cfg.locals)
        diagnostics += _check_declarations(cfg, frozenset(declared), procedure.name)
        diagnostics += _check_read_before_declaration(
            cfg, locals_, reachable, procedure.name
        )
        diagnostics += _check_unreachable(cfg, reachable, procedure.name)
        diagnostics += _check_dead_stores(cfg, global_names, reachable, procedure.name)
        for edge in cfg.edges:
            defs, uses = _edge_defs_uses(edge)
            global_reads.update(uses & global_names)
            for name in defs & global_names:
                global_writes.setdefault(name, _edge_line(edge))
    for name in sorted(global_writes.keys() - global_reads):
        diagnostics.append(
            Diagnostic(
                code="R005",
                severity="info",
                message=f"global '{name}' is assigned but never read",
                line=global_writes[name],
            )
        )
    return diagnostics
