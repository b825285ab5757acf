"""Tests for Dijkstra (most probable paths) and the spanning-tree baseline."""

import math

import networkx as nx
import pytest

from repro.algorithms.shortest_path import dijkstra, probability_cost
from repro.algorithms.spanning import dijkstra_spanning_edges
from repro.exceptions import VertexNotFoundError
from repro.graph.generators import erdos_renyi_graph, path_graph
from repro.graph.uncertain_graph import UncertainGraph
from repro.types import Edge


@pytest.fixture
def diamond() -> UncertainGraph:
    """Two parallel routes from 0 to 3: 0-1-3 (0.9*0.9) and 0-2-3 (0.5*0.5)."""
    graph = UncertainGraph()
    for v in range(4):
        graph.add_vertex(v)
    graph.add_edge(0, 1, 0.9)
    graph.add_edge(1, 3, 0.9)
    graph.add_edge(0, 2, 0.5)
    graph.add_edge(2, 3, 0.5)
    return graph


class TestDijkstra:
    def test_distances_on_path(self, small_path):
        result = dijkstra(small_path, 0)
        expected = -math.log(0.5)
        assert result.distance[1] == pytest.approx(expected)
        assert result.distance[3] == pytest.approx(3 * expected)

    def test_path_reconstruction(self, diamond):
        result = dijkstra(diamond, 0)
        assert result.path_to(3) == [0, 1, 3]
        assert result.path_to(0) == [0]

    def test_unreachable_vertex(self):
        graph = path_graph(3)
        graph.add_vertex(9)
        result = dijkstra(graph, 0)
        assert 9 not in result.distance
        assert result.path_to(9) is None

    def test_settle_order_is_nondecreasing(self, random_graph):
        result = dijkstra(random_graph, 0)
        distances = [result.distance[v] for v in result.settle_order]
        assert distances == sorted(distances)

    def test_custom_costs(self, diamond):
        cost = {edge: 1.0 for edge in diamond.edges()}
        result = dijkstra(diamond, 0, cost=cost)
        assert result.distance[3] == pytest.approx(2.0)

    def test_negative_cost_rejected(self, diamond):
        cost = {edge: -1.0 for edge in diamond.edges()}
        with pytest.raises(ValueError):
            dijkstra(diamond, 0, cost=cost)

    def test_missing_source(self, diamond):
        with pytest.raises(VertexNotFoundError):
            dijkstra(diamond, 77)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_networkx(self, seed):
        graph = erdos_renyi_graph(50, average_degree=4, seed=seed)
        nx_graph = nx.Graph()
        for edge in graph.edges():
            nx_graph.add_edge(edge.u, edge.v, weight=probability_cost(graph.probability(edge)))
        ours = dijkstra(graph, 0).distance
        theirs = nx.single_source_dijkstra_path_length(nx_graph, 0)
        assert set(ours) == set(theirs) | {0}
        for vertex, distance in theirs.items():
            assert ours[vertex] == pytest.approx(distance)


class TestMostProbablePaths:
    def test_probability_cost_bounds(self):
        assert probability_cost(1.0) == 0.0
        with pytest.raises(ValueError):
            probability_cost(0.0)
        with pytest.raises(ValueError):
            probability_cost(1.5)

    def test_most_probable_paths_all_vertices(self, diamond):
        distance = dijkstra(diamond, 0).distance
        probabilities = {vertex: math.exp(-cost) for vertex, cost in distance.items()}
        assert probabilities[0] == pytest.approx(1.0)
        assert probabilities[1] == pytest.approx(0.9)
        assert probabilities[3] == pytest.approx(0.81)


class TestSpanningTree:
    def test_spanning_edges_form_a_tree(self, random_graph):
        edges = dijkstra_spanning_edges(random_graph, 0)
        assert len(edges) == random_graph.n_vertices - 1
        assert len(set(edges)) == len(edges)

    def test_limit_is_respected(self, random_graph):
        edges = dijkstra_spanning_edges(random_graph, 0, limit=5)
        assert len(edges) == 5

    def test_edges_are_added_in_settle_order(self, diamond):
        edges = dijkstra_spanning_edges(diamond, 0)
        assert edges[0] == Edge(0, 1)

