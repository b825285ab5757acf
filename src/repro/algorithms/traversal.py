"""Graph traversal primitives: BFS order, connected component, connectivity.

These are the building blocks of the F-tree construction and of the
Monte-Carlo estimators.  All functions accept either a full
:class:`~repro.graph.uncertain_graph.UncertainGraph` or a restriction of
it to a subset of edges (via the ``edges`` argument), which avoids
materialising subgraph copies in the selection inner loops.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set

from repro.exceptions import VertexNotFoundError
from repro.graph.uncertain_graph import UncertainGraph
from repro.types import Edge, VertexId


def _adjacency(
    graph: UncertainGraph, edges: Optional[Iterable[Edge]] = None
) -> Dict[VertexId, Set[VertexId]]:
    """Build an adjacency map, optionally restricted to a subset of edges."""
    if edges is None:
        return {v: set(graph.neighbors(v)) for v in graph.vertices()}
    adjacency: Dict[VertexId, Set[VertexId]] = {v: set() for v in graph.vertices()}
    for edge in edges:
        adjacency[edge.u].add(edge.v)
        adjacency[edge.v].add(edge.u)
    return adjacency


def bfs_order(
    graph: UncertainGraph,
    source: VertexId,
    edges: Optional[Iterable[Edge]] = None,
) -> List[VertexId]:
    """Return vertices in breadth-first order from ``source``."""
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    adjacency = _adjacency(graph, edges)
    order: List[VertexId] = []
    seen = {source}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        order.append(current)
        for neighbor in adjacency[current]:
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return order


def connected_component(
    graph: UncertainGraph,
    source: VertexId,
    edges: Optional[Iterable[Edge]] = None,
) -> Set[VertexId]:
    """Return the set of vertices connected to ``source``."""
    return set(bfs_order(graph, source, edges))


def is_connected(graph: UncertainGraph, edges: Optional[Iterable[Edge]] = None) -> bool:
    """Return True if the (sub)graph is connected (the empty graph counts as connected)."""
    if graph.n_vertices == 0:
        return True
    first = next(iter(graph.vertices()))
    return len(connected_component(graph, first, edges)) == graph.n_vertices

