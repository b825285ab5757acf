"""Tests for Monte-Carlo flow and reachability estimation (Lemma 1)."""

import pytest

from repro.exceptions import SampleSizeError, VertexNotFoundError
from repro.reachability.exact import exact_expected_flow, exact_reachability
from repro.reachability.engine import SamplingEngine
from repro.types import Edge


@pytest.fixture
def engine():
    return SamplingEngine()


class TestExpectedFlow:
    def test_converges_to_exact_value(self, engine, triangle_graph):
        exact = exact_expected_flow(triangle_graph, 0).expected_flow
        estimate = engine.expected_flow(triangle_graph, 0, n_samples=4000, seed=0)
        assert estimate.expected_flow == pytest.approx(exact, abs=0.1)

    def test_restricted_edges(self, engine, triangle_graph):
        estimate = engine.expected_flow(
            triangle_graph, 0, n_samples=3000, seed=1, edges=[Edge(0, 1)]
        )
        assert estimate.expected_flow == pytest.approx(0.5, abs=0.05)

    def test_include_query_adds_weight(self, engine, triangle_graph):
        with_query = engine.expected_flow(
            triangle_graph, 0, n_samples=200, seed=2, include_query=True
        )
        without_query = engine.expected_flow(
            triangle_graph, 0, n_samples=200, seed=2, include_query=False
        )
        assert with_query.expected_flow == pytest.approx(
            without_query.expected_flow + 1.0
        )

    def test_reachability_frequencies_reported(self, engine, triangle_graph):
        estimate = engine.expected_flow(triangle_graph, 0, n_samples=500, seed=3)
        assert set(estimate.reachability) <= {1, 2}
        assert all(0.0 <= p <= 1.0 for p in estimate.reachability.values())

    def test_no_edges_gives_zero_flow(self, engine, triangle_graph):
        estimate = engine.expected_flow(triangle_graph, 0, n_samples=50, seed=4, edges=[])
        assert estimate.expected_flow == 0.0
        assert estimate.variance == 0.0

    def test_invalid_sample_size(self, engine, triangle_graph):
        with pytest.raises(SampleSizeError):
            engine.expected_flow(triangle_graph, 0, n_samples=0)

    def test_unknown_query(self, engine, triangle_graph):
        with pytest.raises(VertexNotFoundError):
            engine.expected_flow(triangle_graph, 42, n_samples=10)

    def test_reproducibility_with_seed(self, engine, triangle_graph):
        a = engine.expected_flow(triangle_graph, 0, n_samples=100, seed=9)
        b = engine.expected_flow(triangle_graph, 0, n_samples=100, seed=9)
        assert a.expected_flow == b.expected_flow

    def test_standard_error_available(self, engine, triangle_graph):
        estimate = engine.expected_flow(triangle_graph, 0, n_samples=100, seed=5)
        assert estimate.standard_error is not None
        assert estimate.standard_error >= 0.0

    def test_reports_sample_count(self, engine, triangle_graph):
        estimate = engine.expected_flow(triangle_graph, 0, n_samples=300, seed=0)
        assert estimate.n_samples == 300
        with pytest.raises(SampleSizeError):
            engine.expected_flow(triangle_graph, 0, n_samples=-1)


class TestReachability:
    def test_two_terminal_converges(self, engine, triangle_graph):
        exact = exact_reachability(triangle_graph, 0, 2).probability
        estimate = engine.pair_reachability(triangle_graph, 0, 2, n_samples=4000, seed=0)
        assert estimate.probability == pytest.approx(exact, abs=0.05)

    def test_same_vertex_is_certain(self, engine, triangle_graph):
        estimate = engine.pair_reachability(triangle_graph, 1, 1, n_samples=10, seed=0)
        assert estimate.probability == 1.0

    def test_unknown_vertices(self, engine, triangle_graph):
        with pytest.raises(VertexNotFoundError):
            engine.pair_reachability(triangle_graph, 0, 99, n_samples=10)

    def test_component_reachability(self, engine, triangle_graph):
        reach = engine.component_reachability(
            triangle_graph,
            anchor=0,
            vertices=[1, 2],
            edges=triangle_graph.edge_list(),
            n_samples=4000,
            seed=1,
        )
        exact_1 = exact_reachability(triangle_graph, 0, 1).probability
        assert reach[1] == pytest.approx(exact_1, abs=0.05)
        assert set(reach) == {1, 2}

    def test_component_reachability_invalid_samples(self, engine, triangle_graph):
        with pytest.raises(SampleSizeError):
            engine.component_reachability(
                triangle_graph, 0, [1], triangle_graph.edge_list(), n_samples=0
            )
