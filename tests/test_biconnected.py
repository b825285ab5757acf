"""Tests for biconnected components, bridges and the block-cut tree.

NetworkX is used as an independent oracle for randomly generated graphs.
"""

import networkx as nx
import pytest

from repro.algorithms.biconnected import biconnected_edge_components, block_cut_tree
from repro.exceptions import VertexNotFoundError
from repro.graph.generators import erdos_renyi_graph, path_graph
from repro.graph.uncertain_graph import UncertainGraph
from repro.types import Edge


def _to_networkx(graph: UncertainGraph) -> nx.Graph:
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.vertices())
    nx_graph.add_edges_from((edge.u, edge.v) for edge in graph.edges())
    return nx_graph


class TestSmallGraphs:
    def test_path_has_only_bridges(self, small_path):
        components = biconnected_edge_components(small_path)
        assert all(len(component) == 1 for component in components)

    def test_cycle_is_one_block(self, five_cycle):
        components = biconnected_edge_components(five_cycle)
        assert len(components) == 1
        assert len(components[0]) == 5

    def test_lollipop_articulation_point(self, lollipop_graph):
        # the articulation vertices are where non-root blocks attach
        tree = block_cut_tree(lollipop_graph, 0)
        assert set(tree.block_parent_vertex) - {0} == {2, 3}

    def test_every_edge_in_exactly_one_component(self, lollipop_graph):
        components = biconnected_edge_components(lollipop_graph)
        all_edges = [edge for component in components for edge in component]
        assert len(all_edges) == len(set(all_edges)) == lollipop_graph.n_edges

    def test_edge_restriction(self, lollipop_graph):
        restricted = [Edge(0, 1), Edge(1, 2)]
        components = biconnected_edge_components(lollipop_graph, edges=restricted)
        assert all(len(component) == 1 for component in components)


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_biconnected_components_match(self, seed):
        graph = erdos_renyi_graph(40, average_degree=3.5, seed=seed, connect=False)
        ours = {
            frozenset(vertex for edge in component for vertex in (edge.u, edge.v))
            for component in biconnected_edge_components(graph)
        }
        theirs = {
            frozenset(component)
            for component in nx.biconnected_components(_to_networkx(graph))
        }
        assert ours == theirs

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_bridges_match(self, seed):
        # a bridge is exactly a one-edge block
        graph = erdos_renyi_graph(50, average_degree=3.0, seed=seed, connect=False)
        ours = {
            edge
            for component in biconnected_edge_components(graph)
            if len(component) == 1
            for edge in component
        }
        assert ours == {Edge(u, v) for u, v in nx.bridges(_to_networkx(graph))}


class TestBlockCutTree:
    def test_tree_rooted_at_query(self, lollipop_graph):
        tree = block_cut_tree(lollipop_graph, 0)
        assert tree.root == 0
        assert len(tree.blocks) == 3  # triangle + two bridges
        # the triangle block contains the root and attaches through it
        triangle_index = next(
            i for i, block in enumerate(tree.blocks) if len(block) == 3
        )
        assert tree.block_parent_vertex[triangle_index] == 0

    def test_depths_increase_away_from_root(self, lollipop_graph):
        tree = block_cut_tree(lollipop_graph, 0)
        bridge_depths = sorted(
            tree.block_depth[i] for i, block in enumerate(tree.blocks) if len(block) == 1
        )
        triangle_depth = next(
            tree.block_depth[i] for i, block in enumerate(tree.blocks) if len(block) == 3
        )
        assert triangle_depth == 0
        assert bridge_depths == [1, 2]

    def test_isolated_root_gives_empty_tree(self):
        graph = path_graph(3)
        graph.add_vertex(99)
        tree = block_cut_tree(graph, 99)
        assert tree.blocks == []

    def test_unknown_root_rejected(self, small_path):
        with pytest.raises(VertexNotFoundError):
            block_cut_tree(small_path, 123)

    def test_restriction_to_edges(self, lollipop_graph):
        tree = block_cut_tree(lollipop_graph, 0, edges=[Edge(0, 1)])
        assert len(tree.blocks) == 1
        assert tree.block_vertices[0] == frozenset({0, 1})

    def test_block_order_is_root_outwards(self, lollipop_graph):
        tree = block_cut_tree(lollipop_graph, 4)
        order = tree.block_order()
        depths = [tree.block_depth[i] for i in order]
        assert depths == sorted(depths)
