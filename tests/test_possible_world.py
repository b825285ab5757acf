"""Tests for possible-world semantics."""

import pytest

from repro.exceptions import ExactEnumerationError, VertexNotFoundError
from repro.graph.possible_world import (
    PossibleWorld,
    enumerate_worlds,
    sample_worlds,
    world_probability,
)
from repro.graph.uncertain_graph import UncertainGraph
from repro.types import Edge


class TestPossibleWorld:
    def test_reachability_within_world(self, small_path):
        world = PossibleWorld(small_path.vertices(), [Edge(0, 1), Edge(1, 2)])
        assert world.is_reachable(0, 2)
        assert not world.is_reachable(0, 3)
        assert world.reachable_from(0) == {0, 1, 2}

    def test_self_reachability(self, small_path):
        world = PossibleWorld(small_path.vertices(), [])
        assert world.is_reachable(2, 2)

    def test_flow_to_excludes_query_by_default(self, small_path):
        world = PossibleWorld(small_path.vertices(), [Edge(0, 1)])
        weights = small_path.weights()
        assert world.flow_to(0, weights) == 1.0
        assert world.flow_to(0, weights, include_query=True) == 2.0

    def test_add_edge_requires_vertices(self):
        world = PossibleWorld([0, 1], [])
        with pytest.raises(VertexNotFoundError):
            world.add_edge(Edge(0, 5))

    def test_unknown_vertex_queries_raise(self):
        world = PossibleWorld([0, 1], [])
        with pytest.raises(VertexNotFoundError):
            world.reachable_from(7)
        with pytest.raises(VertexNotFoundError):
            world.neighbors(7)

    def test_has_edge_and_counts(self):
        world = PossibleWorld([0, 1, 2], [Edge(0, 1)])
        assert world.has_edge(0, 1)
        assert not world.has_edge(1, 2)
        assert world.n_edges == 1


class TestEnumeration:
    def test_world_probabilities_sum_to_one(self, triangle_graph):
        total = sum(probability for _, probability in enumerate_worlds(triangle_graph))
        assert total == pytest.approx(1.0)

    def test_number_of_worlds(self, triangle_graph):
        worlds = list(enumerate_worlds(triangle_graph))
        assert len(worlds) == 2 ** 3

    def test_certain_edges_do_not_multiply_the_space(self, triangle_graph):
        triangle_graph.set_probability(0, 1, 1.0)
        worlds = list(enumerate_worlds(triangle_graph))
        assert len(worlds) == 2 ** 2
        assert all(world.has_edge(0, 1) for world, _ in worlds)

    def test_world_probability_matches_equation_1(self, triangle_graph):
        for world, probability in enumerate_worlds(triangle_graph):
            assert world_probability(triangle_graph, world) == pytest.approx(probability)

    def test_limit_is_enforced(self):
        graph = UncertainGraph()
        for v in range(30):
            graph.add_vertex(v)
        for v in range(29):
            graph.add_edge(v, v + 1, 0.5)
        with pytest.raises(ExactEnumerationError):
            list(enumerate_worlds(graph, limit=10))

    def test_empty_graph_has_single_world(self):
        graph = UncertainGraph()
        graph.add_vertex(0)
        worlds = list(enumerate_worlds(graph))
        assert len(worlds) == 1
        assert worlds[0][1] == pytest.approx(1.0)


class TestSampling:
    def test_sample_world_is_reproducible(self, triangle_graph):
        a = next(sample_worlds(triangle_graph, 1, seed=5))
        b = next(sample_worlds(triangle_graph, 1, seed=5))
        assert a.edges() == b.edges()

    def test_sample_worlds_count(self, triangle_graph):
        worlds = list(sample_worlds(triangle_graph, 7, seed=1))
        assert len(worlds) == 7

    def test_sampled_edge_frequency_is_close_to_probability(self, triangle_graph):
        n = 3000
        count = sum(
            1 for world in sample_worlds(triangle_graph, n, seed=3) if world.has_edge(0, 1)
        )
        assert count / n == pytest.approx(0.5, abs=0.05)
