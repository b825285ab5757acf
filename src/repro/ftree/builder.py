"""Construction of an F-tree from scratch.

The incremental insertion of :class:`~repro.ftree.ftree.FTree` is the
paper's contribution; this module provides the *reference* construction:
given a set of already-selected edges, decompose the query vertex's
connected component into biconnected blocks (cyclic blocks become
bi-connected components, maximal trees of bridges become mono-connected
components) and assemble the same flow tree.  The test suite uses it to
cross-validate the incremental cases, and the selection algorithms can
use it to re-synchronise an F-tree after bulk edge changes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set

from repro.algorithms.biconnected import block_cut_tree
from repro.exceptions import VertexNotFoundError
from repro.ftree.components import BiConnectedComponent, MonoConnectedComponent
from repro.ftree.ftree import FTree
from repro.ftree.sampler import ComponentSampler
from repro.graph.uncertain_graph import UncertainGraph
from repro.types import Edge, VertexId, as_edges


def build_ftree(
    graph: UncertainGraph,
    selected_edges: Iterable["Edge | tuple"],
    query: VertexId,
    sampler: Optional[ComponentSampler] = None,
) -> FTree:
    """Build an F-tree for ``selected_edges`` without incremental insertion.

    Edges not connected to the query vertex are ignored (the F-tree only
    ever represents the query vertex's component), mirroring the
    behaviour of the greedy selectors which always grow a single
    connected component around ``Q``.
    """
    if not graph.has_vertex(query):
        raise VertexNotFoundError(query)
    edges = as_edges(selected_edges)
    ftree = FTree(graph, query, sampler=sampler)
    if not edges:
        return ftree

    distance = _bfs_distances(graph, query, edges)
    kept = [edge for edge in edges if edge.u in distance and edge.v in distance]
    ftree._selected = set(kept)
    if not kept:
        return ftree

    tree = block_cut_tree(graph, query, edges=kept)
    bridge_edges: Set[Edge] = set()
    for index, block in enumerate(tree.blocks):
        if len(block) == 1:
            bridge_edges |= set(block)
            continue
        articulation = tree.block_parent_vertex[index]
        component = BiConnectedComponent(ftree._new_id(), articulation)
        component.absorb(
            (vertex for vertex in tree.block_vertices[index] if vertex != articulation),
            block,
        )
        ftree._adopt(component)

    for group in _bridge_forests(bridge_edges):
        anchor = min(group["vertices"], key=lambda vertex: distance[vertex])
        component = MonoConnectedComponent(ftree._new_id(), anchor)
        parent_of = _orient_tree(group["adjacency"], anchor)
        component.vertices = set(parent_of)
        component.parent_of = parent_of
        ftree._adopt(component)
        if anchor == query and ftree._root_mono_id is None:
            ftree._root_mono_id = component.component_id
    return ftree


def _bfs_distances(
    graph: UncertainGraph, source: VertexId, edges: Iterable[Edge]
) -> Dict[VertexId, int]:
    """Hop distances from ``source`` over the selected edges only."""
    adjacency: Dict[VertexId, List[VertexId]] = {}
    for edge in edges:
        adjacency.setdefault(edge.u, []).append(edge.v)
        adjacency.setdefault(edge.v, []).append(edge.u)
    distance = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in adjacency.get(current, ()):
            if neighbor not in distance:
                distance[neighbor] = distance[current] + 1
                queue.append(neighbor)
    return distance


def _bridge_forests(bridge_edges: Set[Edge]) -> List[dict]:
    """Group bridge edges into maximal connected trees.

    Returns a list of dictionaries with the tree's ``vertices`` and its
    ``adjacency`` map; each tree becomes one mono-connected component.
    """
    adjacency: Dict[VertexId, Set[VertexId]] = {}
    for edge in bridge_edges:
        adjacency.setdefault(edge.u, set()).add(edge.v)
        adjacency.setdefault(edge.v, set()).add(edge.u)
    groups: List[dict] = []
    seen: Set[VertexId] = set()
    for start in adjacency:
        if start in seen:
            continue
        vertices = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            current = queue.popleft()
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    vertices.add(neighbor)
                    queue.append(neighbor)
        groups.append(
            {
                "vertices": vertices,
                "adjacency": {vertex: set(adjacency[vertex]) & vertices for vertex in vertices},
            }
        )
    return groups


def _orient_tree(
    adjacency: Dict[VertexId, Set[VertexId]], root: VertexId
) -> Dict[VertexId, VertexId]:
    """Return a ``vertex -> parent`` map orienting a tree towards ``root``."""
    parent_of: Dict[VertexId, VertexId] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        current = queue.popleft()
        for neighbor in adjacency.get(current, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                parent_of[neighbor] = current
                queue.append(neighbor)
    return parent_of
