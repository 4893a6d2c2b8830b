"""The one strongly-connected-components routine (``repro.graphs``).

Its callers depend on its order: the call graph hands it sorted nodes and
successors, the recurrence solver its equations in their own order, and
both get the components back dependencies first.
"""

from repro.graphs import strongly_connected_components


def test_order_follows_the_given_node_and_successor_orders():
    graph = {"q": [], "m": ["z", "a", "nowhere"], "a": [], "z": []}
    # Not sorted: "q" comes first because it is given first, and "z"
    # before "a" because m's successors list it first.  "nowhere" is not
    # a node and is ignored.
    assert strongly_connected_components(graph) == [["q"], ["z"], ["a"], ["m"]]


def test_components_come_dependencies_first_and_sorted_by_str():
    graph = {10: [9], 9: [10, 2], 2: [], 7: [7, 10]}
    assert strongly_connected_components(graph) == [[2], [10, 9], [7]]


def test_a_long_chain_does_not_recurse():
    size = 5000
    graph = {index: [index + 1] for index in range(size)}
    graph[size] = [0]
    (component,) = strongly_connected_components(graph)
    assert len(component) == size + 1
