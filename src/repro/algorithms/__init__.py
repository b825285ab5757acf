"""Deterministic graph algorithms used as substrate.

Only what the F-tree and the selectors use lives here: BFS order and
connected component (traversal), union-find, the biconnected edge
partition and block-cut tree (the F-tree builder), and Dijkstra over
``-log P(e)`` costs with its spanning-tree edge order (the Dijkstra
baseline, the only algorithm here that reads edge probabilities).
Everything operates on :class:`~repro.graph.uncertain_graph.UncertainGraph`
instances and is implemented from scratch (iteratively, so deep graphs
do not hit Python's recursion limit); NetworkX is only used inside the
test suite as an independent oracle.
"""

from repro.algorithms.traversal import (
    bfs_order,
    connected_component,
    is_connected,
)
from repro.algorithms.union_find import UnionFind
from repro.algorithms.biconnected import (
    biconnected_edge_components,
    BlockCutTree,
    block_cut_tree,
)
from repro.algorithms.shortest_path import dijkstra
from repro.algorithms.spanning import dijkstra_spanning_edges

__all__ = [
    "bfs_order",
    "connected_component",
    "is_connected",
    "UnionFind",
    "biconnected_edge_components",
    "BlockCutTree",
    "block_cut_tree",
    "dijkstra",
    "dijkstra_spanning_edges",
]
