"""Tests for BFS order, connected components and connectivity."""

import pytest

from repro.algorithms.traversal import bfs_order, connected_component, is_connected
from repro.exceptions import VertexNotFoundError
from repro.graph.uncertain_graph import UncertainGraph
from repro.types import Edge


@pytest.fixture
def two_component_graph() -> UncertainGraph:
    graph = UncertainGraph()
    for v in range(6):
        graph.add_vertex(v)
    graph.add_edge(0, 1, 0.5)
    graph.add_edge(1, 2, 0.5)
    graph.add_edge(3, 4, 0.5)
    return graph


class TestBfs:
    def test_order_starts_at_source(self, small_path):
        assert bfs_order(small_path, 0)[0] == 0

    def test_order_visits_component_only(self, two_component_graph):
        assert set(bfs_order(two_component_graph, 0)) == {0, 1, 2}

    def test_edge_restriction(self, small_path):
        assert set(bfs_order(small_path, 0, edges=[Edge(0, 1)])) == {0, 1}

    def test_missing_source(self, small_path):
        with pytest.raises(VertexNotFoundError):
            bfs_order(small_path, 99)


class TestConnectedComponents:
    def test_component_of_vertex(self, two_component_graph):
        assert connected_component(two_component_graph, 3) == {3, 4}

    def test_all_components(self, two_component_graph):
        components = {
            frozenset(connected_component(two_component_graph, v))
            for v in two_component_graph.vertices()
        }
        assert sorted(len(c) for c in components) == [1, 2, 3]

    def test_is_connected(self, two_component_graph, small_path):
        assert not is_connected(two_component_graph)
        assert is_connected(small_path)
        assert is_connected(UncertainGraph())

    def test_components_with_edge_restriction(self, small_path):
        restricted = [Edge(0, 1)]
        assert connected_component(small_path, 0, edges=restricted) == {0, 1}
        assert connected_component(small_path, 3, edges=restricted) == {3}

