"""Tests for the component sampler (local Monte-Carlo with exact fallback)."""

import pytest

from repro.exceptions import SampleSizeError
from repro.ftree.memo import MemoCache
from repro.ftree.sampler import ComponentSampler
from repro.graph.generators import cycle_graph
from repro.reachability.exact import exact_reachability_all
from repro.types import Edge


class TestExactPath:
    def test_small_component_is_exact(self, triangle_graph):
        sampler = ComponentSampler(n_samples=5, exact_threshold=10, seed=0)
        estimate = sampler.reachability(
            triangle_graph, 0, [1, 2], triangle_graph.edge_list()
        )
        exact = exact_reachability_all(triangle_graph, 0)
        assert estimate.exact
        assert estimate.probabilities[1] == pytest.approx(exact[1])
        assert estimate.probabilities[2] == pytest.approx(exact[2])
        assert sampler.exact_components == 1
        assert sampler.sampled_components == 0

    def test_isolated_articulation(self, triangle_graph):
        sampler = ComponentSampler(n_samples=5, exact_threshold=10, seed=0)
        # component that does not actually touch the articulation vertex
        estimate = sampler.reachability(triangle_graph, "phantom", [1, 2], [Edge(1, 2)])
        assert estimate.probabilities == {1: 0.0, 2: 0.0}


class TestSampledPath:
    def test_large_component_is_sampled(self):
        graph = cycle_graph(8, probability=0.5)
        sampler = ComponentSampler(n_samples=2000, exact_threshold=3, seed=1)
        estimate = sampler.reachability(
            graph, 0, [v for v in graph.vertices() if v != 0], graph.edge_list()
        )
        assert not estimate.exact
        assert estimate.n_samples == 2000
        exact = exact_reachability_all(graph, 0)
        for vertex, probability in exact.items():
            if vertex == 0:
                continue
            assert estimate.probabilities[vertex] == pytest.approx(probability, abs=0.06)
        assert sampler.sampled_components == 1
        assert sampler.sampled_edges == graph.n_edges

    def test_estimate_does_not_depend_on_earlier_draws(self):
        graph = cycle_graph(8, probability=0.5)
        edges = graph.edge_list()
        owned = [v for v in graph.vertices() if v != 0]
        fresh = ComponentSampler(n_samples=200, exact_threshold=0, seed=3)
        warmed = ComponentSampler(n_samples=200, exact_threshold=0, seed=3)
        # the same edges towards another articulation: a different component
        warmed.reachability(graph, 4, [v for v in graph.vertices() if v != 4], edges)
        assert warmed.sampled_components == 1
        assert warmed.reachability(graph, 0, owned, edges) == fresh.reachability(
            graph, 0, owned, edges
        )

    def test_exact_threshold_zero_forces_sampling(self, triangle_graph):
        sampler = ComponentSampler(n_samples=500, exact_threshold=0, seed=2)
        estimate = sampler.reachability(
            triangle_graph, 0, [1, 2], triangle_graph.edge_list()
        )
        assert not estimate.exact

    def test_invalid_parameters(self):
        with pytest.raises(SampleSizeError):
            ComponentSampler(n_samples=0)
        with pytest.raises(ValueError):
            ComponentSampler(exact_threshold=-1)


class TestMemoization:
    def test_second_lookup_hits_cache(self, triangle_graph):
        memo = MemoCache()
        sampler = ComponentSampler(n_samples=10, exact_threshold=10, seed=0, memo=memo)
        first = sampler.reachability(triangle_graph, 0, [1, 2], triangle_graph.edge_list())
        second = sampler.reachability(triangle_graph, 0, [1, 2], triangle_graph.edge_list())
        assert not first.from_cache
        assert second.from_cache
        assert memo.hits == 1

    def test_estimation_cost_zero_when_memoized(self, triangle_graph):
        memo = MemoCache()
        sampler = ComponentSampler(n_samples=10, exact_threshold=0, seed=0, memo=memo)
        edges = triangle_graph.edge_list()
        assert sampler.estimation_cost(triangle_graph, edges, 0) == len(edges)
        sampler.reachability(triangle_graph, 0, [1, 2], edges)
        assert sampler.estimation_cost(triangle_graph, edges, 0) == 0

    def test_no_memo_cost_is_edge_count(self, triangle_graph):
        sampler = ComponentSampler(n_samples=10, exact_threshold=0, seed=0)
        assert sampler.estimation_cost(triangle_graph, triangle_graph.edge_list(), 0) == 3

    def test_exact_component_costs_nothing(self):
        """A component evaluated exactly samples nothing, memoized or not."""
        graph = cycle_graph(5, probability=0.5)
        edges = graph.edge_list()
        sampler = ComponentSampler(n_samples=10, exact_threshold=10, seed=0)
        assert sampler.estimation_cost(graph, edges, 0) == 0
        estimate = sampler.reachability(graph, 0, [1, 2, 3, 4], edges)
        assert estimate.exact and sampler.sampled_edges == 0
        # certain edges do not count towards the threshold
        assert ComponentSampler(exact_threshold=4).estimation_cost(graph, edges, 0) == 5
        graph.set_probability(0, 1, 1.0)
        assert ComponentSampler(exact_threshold=4).estimation_cost(graph, edges, 0) == 0

    def test_different_articulation_is_different_key(self, triangle_graph):
        memo = MemoCache()
        sampler = ComponentSampler(n_samples=10, exact_threshold=10, seed=0, memo=memo)
        edges = triangle_graph.edge_list()
        sampler.reachability(triangle_graph, 0, [1, 2], edges)
        estimate = sampler.reachability(triangle_graph, 1, [0, 2], edges)
        assert not estimate.from_cache
