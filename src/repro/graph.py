"""The one graph routine the package needs: a deterministic topological order."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, List

Node = Hashable


def topological_order(nodes: Iterable[Node],
                      successors: Callable[[Node], Iterable[Node]]
                      ) -> List[Node]:
    """Kahn's ordering of ``nodes``, generation by generation.

    The first generation is the nodes without predecessors, in ``nodes``
    order; each later one lists nodes in the order their in-degree reaches
    zero, walking the previous generation in order and each node's
    ``successors`` in their given order (which must name only ``nodes``,
    each at most once).  A result shorter than ``nodes`` means a cycle.
    """
    children = {node: list(successors(node)) for node in nodes}
    indegree = dict.fromkeys(children, 0)
    for node_children in children.values():
        for child in node_children:
            indegree[child] += 1
    generation = [node for node, degree in indegree.items() if degree == 0]
    order: List[Node] = []
    while generation:
        order.extend(generation)
        ready = []
        for node in generation:
            for child in children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        generation = ready
    return order
