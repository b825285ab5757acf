"""Maximum-probability spanning trees.

The paper's Dijkstra baseline interconnects the network with a
shortest-path spanning tree over the transformed costs ``-log P(e)``
(Section 7.2): in each iteration the tree reaching the settled vertices
maximises the connection probability between the query vertex and every
vertex it spans.  :func:`dijkstra_spanning_edges` exposes the edges of
that tree in the order Dijkstra settles their far endpoints, which is
exactly the order in which the baseline spends its edge budget.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.algorithms.shortest_path import dijkstra
from repro.graph.uncertain_graph import UncertainGraph
from repro.types import Edge, VertexId


def dijkstra_spanning_edges(
    graph: UncertainGraph,
    source: VertexId,
    limit: Optional[int] = None,
    edges: Optional[Iterable[Edge]] = None,
) -> List[Edge]:
    """Return the edges of the maximum-probability spanning tree rooted at ``source``.

    Edges are listed in the order their far endpoint is settled by
    Dijkstra, so the first ``k`` entries are the edges the Dijkstra
    baseline activates for a budget of ``k``.

    Parameters
    ----------
    graph:
        The uncertain graph.
    source:
        Root of the tree (the query vertex ``Q``).
    limit:
        Optional maximum number of edges to return.
    edges:
        Optional restriction of the candidate edge set.
    """
    result = dijkstra(graph, source, edges=edges)
    spanning: List[Edge] = []
    for vertex in result.settle_order:
        if limit is not None and len(spanning) >= limit:
            break
        parent = result.parent.get(vertex)
        if parent is None:
            continue
        spanning.append(Edge(parent, vertex))
    return spanning

