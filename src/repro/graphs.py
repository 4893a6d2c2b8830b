"""Strongly connected components of a directed graph.

One routine serves two traversals of the paper: §4 analyses the call
graph's components callees first (:class:`repro.lang.CallGraph`), and
Alg. 3 stratifies a recurrence system by the components of its dependency
graph (:class:`repro.recurrence.StratifiedSystem`).  It imports nothing
from ``repro``, so both layers can sit above it.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, TypeVar

__all__ = ["strongly_connected_components"]

Node = TypeVar("Node", bound=Hashable)


def strongly_connected_components(
    graph: Mapping[Node, Iterable[Node]],
) -> list[list[Node]]:
    """Tarjan's algorithm (iterative), components dependencies first.

    Whenever a component has an edge into a different component, the
    target comes first.  Nodes are the keys of ``graph``, visited in the
    mapping's order, and each node's successors in the order given;
    successors that are not keys are ignored.  Each component is sorted
    by ``str``, so the result depends only on those two orders.
    """
    index: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    stack: list[Node] = []
    on_stack: set[Node] = set()
    components: list[list[Node]] = []
    # The depth-first path: each node with its unread successors.
    work: list[tuple[Node, Iterator[Node]]] = []

    def enter(node: Node) -> None:
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(graph[node])))

    for root in graph:
        if root in index:
            continue
        enter(root)
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in graph:
                    continue
                if successor not in index:
                    enter(successor)
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: list[Node] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(sorted(component, key=str))
    return components
