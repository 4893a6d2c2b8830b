"""Call graphs, strongly connected components, and analysis order.

§4 of the paper: "we first compute and collapse the strongly connected
components of the call graph of P and topologically sort the collapsed
graph.  Our analysis then works on the strongly connected components of the
call graph in a single pass, in a topological order."  This module provides
exactly that structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..graphs import strongly_connected_components
from . import ast

__all__ = ["CallGraph", "build_call_graph"]


@dataclass
class CallGraph:
    """The call graph of a program."""

    #: procedure name -> names of procedures it may call (defined ones only)
    edges: dict[str, frozenset[str]]

    def callees(self, name: str) -> frozenset[str]:
        return self.edges.get(name, frozenset())

    def strongly_connected_components(self) -> list[list[str]]:
        """SCCs in dependency-first (reverse topological) order.

        The returned order guarantees that whenever component ``A`` calls into
        component ``B`` (with ``A != B``), ``B`` appears before ``A`` — i.e.
        callees are analysed before their callers, the order §4 requires.
        """
        return strongly_connected_components(
            {name: sorted(self.edges[name]) for name in sorted(self.edges)}
        )

    def is_recursive(self, component: Sequence[str]) -> bool:
        """Whether a component is (mutually or directly) recursive."""
        members = set(component)
        if len(members) > 1:
            return True
        (only,) = members
        return only in self.callees(only)

    def recursive_procedures(self) -> frozenset[str]:
        out: set[str] = set()
        for component in self.strongly_connected_components():
            if self.is_recursive(component):
                out |= set(component)
        return frozenset(out)

    def __str__(self) -> str:
        lines = []
        for name in sorted(self.edges):
            callees = ", ".join(sorted(self.edges[name])) or "-"
            lines.append(f"{name} -> {callees}")
        return "\n".join(lines)


def build_call_graph(program: ast.Program) -> CallGraph:
    """Build the call graph (edges restricted to defined procedures).

    Every call in a body is an edge, wherever it sits: in a statement, an
    expression or a condition.
    """
    defined = set(program.procedure_names)
    return CallGraph(
        {
            procedure.name: frozenset(
                node.callee
                for node in ast.walk(procedure.body)
                if isinstance(node, ast.CallExpr) and node.callee in defined
            )
            for procedure in program.procedures
        }
    )
