"""Analytic reachability for mono-connected (tree-like) graphs.

Lemma 2 of the paper: if there is exactly one path between two vertices,
their reachability probability is the product of the edge probabilities
along that path.  Theorem 2 lifts this to whole mono-connected graphs,
where the expected information flow is the weight-weighted sum of those
path products — no sampling required.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Optional

from repro.algorithms.traversal import _adjacency
from repro.exceptions import GraphError, VertexNotFoundError
from repro.graph.uncertain_graph import UncertainGraph
from repro.reachability.estimators import FlowEstimate
from repro.types import Edge, VertexId


def mono_connected_reachability(
    graph: UncertainGraph,
    source: VertexId,
    edges: Optional[Iterable[Edge]] = None,
) -> Dict[VertexId, float]:
    """Exact reachability from ``source`` in a mono-connected (sub)graph.

    For every vertex connected to ``source`` the probability is the
    product of the edge probabilities on the unique path (Lemma 2).
    Unreachable vertices get probability 0.

    Raises
    ------
    GraphError
        If the component containing ``source`` is not mono-connected.
    """
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    adjacency = _adjacency(graph, edges)
    probabilities: Dict[VertexId, float] = {vertex: 0.0 for vertex in adjacency}
    probabilities[source] = 1.0
    parent: Dict[VertexId, Optional[VertexId]] = {source: None}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in adjacency[current]:
            if neighbor not in parent:
                parent[neighbor] = current
                probabilities[neighbor] = probabilities[current] * graph.probability(
                    current, neighbor
                )
                queue.append(neighbor)
            elif parent.get(current) != neighbor:
                raise GraphError(
                    "graph component is not mono-connected: "
                    f"cycle detected at edge ({current!r}, {neighbor!r})"
                )
    return probabilities


def mono_connected_expected_flow(
    graph: UncertainGraph,
    query: VertexId,
    edges: Optional[Iterable[Edge]] = None,
    include_query: bool = False,
) -> FlowEstimate:
    """Exact expected information flow for a mono-connected subgraph (Theorem 2)."""
    probabilities = mono_connected_reachability(graph, query, edges=edges)
    total = 0.0
    reachability: Dict[VertexId, float] = {}
    for vertex, probability in probabilities.items():
        if vertex == query and not include_query:
            continue
        reachability[vertex] = probability
        total += probability * graph.weight(vertex)
    return FlowEstimate(
        expected_flow=total,
        reachability=reachability,
        n_samples=None,
        variance=None,
        include_query=include_query,
    )

