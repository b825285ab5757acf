"""Biconnected components and the block-cut tree.

The F-tree of the paper (Section 5.3) is "inspired by the block-cut
tree"; this module provides the underlying decomposition: an iterative
Hopcroft–Tarjan algorithm that partitions the *edges* of a connected
graph into biconnected components (blocks) and identifies the
articulation (cut) vertices separating them.  The
:func:`block_cut_tree` helper arranges blocks and articulation vertices
into the classic bipartite tree rooted at a chosen vertex; the F-tree
builder (:mod:`repro.ftree.builder`) consumes it to create mono- and
bi-connected F-tree components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.algorithms.traversal import _adjacency
from repro.exceptions import VertexNotFoundError
from repro.graph.uncertain_graph import UncertainGraph
from repro.types import Edge, VertexId


def biconnected_edge_components(
    graph: UncertainGraph, edges: Optional[Iterable[Edge]] = None
) -> List[Set[Edge]]:
    """Partition the edges of the (sub)graph into biconnected components.

    Every edge belongs to exactly one component; a bridge forms a
    component of size one.  The implementation is the iterative
    Hopcroft–Tarjan DFS with an explicit edge stack, so arbitrarily deep
    graphs are handled without recursion.
    """
    adjacency = _adjacency(graph, edges)
    components: List[Set[Edge]] = []
    discovery: Dict[VertexId, int] = {}
    low: Dict[VertexId, int] = {}
    counter = 0
    edge_stack: List[Tuple[VertexId, VertexId]] = []

    for root in adjacency:
        if root in discovery:
            continue
        # stack entries: (vertex, parent, iterator over neighbours)
        discovery[root] = low[root] = counter
        counter += 1
        stack: List[Tuple[VertexId, Optional[VertexId], Iterable[VertexId]]] = [
            (root, None, iter(adjacency[root]))
        ]
        while stack:
            vertex, parent, neighbors = stack[-1]
            advanced = False
            for neighbor in neighbors:
                if neighbor == parent:
                    continue
                if neighbor not in discovery:
                    edge_stack.append((vertex, neighbor))
                    discovery[neighbor] = low[neighbor] = counter
                    counter += 1
                    stack.append((neighbor, vertex, iter(adjacency[neighbor])))
                    advanced = True
                    break
                if discovery[neighbor] < discovery[vertex]:
                    # back edge to an ancestor
                    edge_stack.append((vertex, neighbor))
                    low[vertex] = min(low[vertex], discovery[neighbor])
            if advanced:
                continue
            stack.pop()
            if parent is None:
                continue
            low[parent] = min(low[parent], low[vertex])
            if low[vertex] >= discovery[parent]:
                # parent is an articulation point (or the root); pop the block:
                # every edge pushed after the tree edge (parent, vertex) belongs to it
                component: Set[Edge] = set()
                while edge_stack:
                    u, v = edge_stack.pop()
                    component.add(Edge(u, v))
                    if u == parent and v == vertex:
                        break
                if component:
                    components.append(component)
        # any leftover edges (should not happen for a DFS tree rooted here)
        if edge_stack:  # pragma: no cover - defensive
            components.append({Edge(u, v) for u, v in edge_stack})
            edge_stack.clear()
    return components


# ----------------------------------------------------------------------
# block-cut tree
# ----------------------------------------------------------------------
@dataclass
class BlockCutTree:
    """Block-cut tree of the connected component containing ``root``.

    Attributes
    ----------
    root:
        The vertex the tree is rooted at (the query vertex ``Q`` in the
        F-tree use case).
    blocks:
        List of blocks; each block is the frozenset of edges of one
        biconnected component.
    block_vertices:
        For each block index, the frozenset of vertices it spans.
    block_parent_vertex:
        For each block index, the vertex through which the block is
        attached towards the root (the articulation vertex for non-root
        blocks, ``root`` itself for blocks containing the root).
    vertex_blocks:
        Mapping from vertex to the indices of blocks containing it.
    block_depth:
        Distance (in blocks) from the root for each block.
    """

    root: VertexId
    blocks: List[FrozenSet[Edge]] = field(default_factory=list)
    block_vertices: List[FrozenSet[VertexId]] = field(default_factory=list)
    block_parent_vertex: List[VertexId] = field(default_factory=list)
    vertex_blocks: Dict[VertexId, List[int]] = field(default_factory=dict)
    block_depth: List[int] = field(default_factory=list)

    def block_order(self) -> List[int]:
        """Return block indices ordered root-outwards (by depth)."""
        return sorted(range(len(self.blocks)), key=lambda index: self.block_depth[index])


def block_cut_tree(
    graph: UncertainGraph,
    root: VertexId,
    edges: Optional[Iterable[Edge]] = None,
) -> BlockCutTree:
    """Build the block-cut tree of the connected component containing ``root``.

    Blocks not connected to ``root`` (through the optional edge
    restriction) are ignored, matching the F-tree which only represents
    the query vertex's component.
    """
    if not graph.has_vertex(root):
        raise VertexNotFoundError(root)
    edge_components = biconnected_edge_components(graph, edges)
    block_vertex_sets: List[Set[VertexId]] = []
    for component in edge_components:
        vertices: Set[VertexId] = set()
        for edge in component:
            vertices.add(edge.u)
            vertices.add(edge.v)
        block_vertex_sets.append(vertices)

    vertex_blocks: Dict[VertexId, List[int]] = {}
    for index, vertices in enumerate(block_vertex_sets):
        for vertex in vertices:
            vertex_blocks.setdefault(vertex, []).append(index)

    tree = BlockCutTree(root=root)
    if root not in vertex_blocks:
        return tree

    # BFS over the bipartite block/vertex incidence starting at the root vertex
    assigned: Dict[int, VertexId] = {}  # block index -> parent (attachment) vertex
    depth: Dict[int, int] = {}
    visited_vertices: Set[VertexId] = {root}
    frontier: List[Tuple[VertexId, int]] = [(root, 0)]
    while frontier:
        next_frontier: List[Tuple[VertexId, int]] = []
        for vertex, vertex_depth in frontier:
            for block_index in vertex_blocks.get(vertex, ()):
                if block_index in assigned:
                    continue
                assigned[block_index] = vertex
                depth[block_index] = vertex_depth
                for other in block_vertex_sets[block_index]:
                    if other not in visited_vertices:
                        visited_vertices.add(other)
                        next_frontier.append((other, vertex_depth + 1))
        frontier = next_frontier

    for block_index in sorted(assigned, key=lambda index: depth[index]):
        tree.blocks.append(frozenset(edge_components[block_index]))
        tree.block_vertices.append(frozenset(block_vertex_sets[block_index]))
        tree.block_parent_vertex.append(assigned[block_index])
        tree.block_depth.append(depth[block_index])
    for new_index, vertices in enumerate(tree.block_vertices):
        for vertex in vertices:
            tree.vertex_blocks.setdefault(vertex, []).append(new_index)
    return tree
