"""Shortest (most-probable) paths on uncertain graphs.

The Dijkstra baseline of the paper (Section 7.2, "Dijkstra") selects
edges of a *maximum-probability spanning tree*: running Dijkstra on edge
costs ``-log P(e)`` from the query vertex yields, for every vertex, the
path maximising the product of edge probabilities.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import VertexNotFoundError
from repro.graph.uncertain_graph import UncertainGraph
from repro.types import Edge, VertexId


@dataclass(frozen=True)
class ShortestPathResult:
    """Result of a single-source Dijkstra run.

    Attributes
    ----------
    source:
        The source vertex.
    distance:
        Mapping from reachable vertex to its shortest-path cost.
    parent:
        Predecessor map (``source`` maps to None).
    settle_order:
        Vertices in the order Dijkstra settled them (non-decreasing
        distance); used by the spanning-tree edge selector.
    """

    source: VertexId
    distance: Dict[VertexId, float]
    parent: Dict[VertexId, Optional[VertexId]]
    settle_order: List[VertexId]

    def path_to(self, target: VertexId) -> Optional[List[VertexId]]:
        """Return the shortest path from the source to ``target``, or None."""
        if target not in self.parent:
            return None
        path = [target]
        while path[-1] != self.source:
            predecessor = self.parent[path[-1]]
            assert predecessor is not None
            path.append(predecessor)
        path.reverse()
        return path


def dijkstra(
    graph: UncertainGraph,
    source: VertexId,
    cost: Optional[Dict[Edge, float]] = None,
    edges: Optional[Iterable[Edge]] = None,
) -> ShortestPathResult:
    """Single-source Dijkstra with a binary heap.

    Parameters
    ----------
    graph:
        The graph to traverse.
    source:
        Source vertex.
    cost:
        Mapping from edge to a non-negative cost; defaults to
        ``-log P(e)`` so that shortest paths are most-probable paths.
    edges:
        Optional restriction to a subset of edges.
    """
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    if cost is None:
        cost = {edge: probability_cost(graph.probability(edge)) for edge in graph.edges()}
    allowed = None if edges is None else set(edges)

    distance: Dict[VertexId, float] = {source: 0.0}
    parent: Dict[VertexId, Optional[VertexId]] = {source: None}
    settled: Dict[VertexId, bool] = {}
    settle_order: List[VertexId] = []
    heap: List[Tuple[float, int, VertexId]] = [(0.0, 0, source)]
    tie_breaker = 0
    while heap:
        current_distance, _, vertex = heapq.heappop(heap)
        if settled.get(vertex):
            continue
        settled[vertex] = True
        settle_order.append(vertex)
        for neighbor in graph.neighbors(vertex):
            edge = Edge(vertex, neighbor)
            if allowed is not None and edge not in allowed:
                continue
            edge_cost = cost[edge]
            if edge_cost < 0:
                raise ValueError(f"negative edge cost {edge_cost!r} for {edge!r}")
            candidate = current_distance + edge_cost
            if candidate < distance.get(neighbor, math.inf):
                distance[neighbor] = candidate
                parent[neighbor] = vertex
                tie_breaker += 1
                heapq.heappush(heap, (candidate, tie_breaker, neighbor))
    return ShortestPathResult(source=source, distance=distance, parent=parent, settle_order=settle_order)


def probability_cost(probability: float) -> float:
    """Return the Dijkstra cost ``-log p`` of an edge probability."""
    if probability <= 0.0 or probability > 1.0:
        raise ValueError(f"probability must lie in (0, 1], got {probability!r}")
    return -math.log(probability)

