"""Tests for graph transformations."""

import pytest

from repro.graph.generators import erdos_renyi_graph
from repro.graph.transforms import perturb_probabilities


class TestProbabilityTransforms:
    def test_perturbation_stays_in_range(self):
        graph = erdos_renyi_graph(40, seed=0)
        noisy = perturb_probabilities(graph, noise=0.2, seed=1)
        assert all(0.0 < noisy.probability(e) <= 1.0 for e in noisy.edges())
        assert noisy.n_edges == graph.n_edges

    def test_zero_noise_is_identity(self, triangle_graph):
        assert perturb_probabilities(triangle_graph, noise=0.0, seed=0) == triangle_graph

    def test_negative_noise_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            perturb_probabilities(triangle_graph, noise=-0.1)

