"""Tests for analytic (mono-connected) reachability and flow (Lemma 2 / Theorem 2)."""

import pytest

from repro.exceptions import GraphError, VertexNotFoundError
from repro.reachability.analytic import mono_connected_expected_flow, mono_connected_reachability
from repro.reachability.exact import exact_expected_flow
from repro.types import Edge


class TestMonoReachability:
    def test_path_products(self, small_path):
        reach = mono_connected_reachability(small_path, 0)
        assert reach[0] == pytest.approx(1.0)
        assert reach[1] == pytest.approx(0.5)
        assert reach[3] == pytest.approx(0.125)

    def test_matches_exact_enumeration(self, star_five):
        analytic = mono_connected_reachability(star_five, 0)
        from repro.reachability.exact import exact_reachability_all

        exact = exact_reachability_all(star_five, 0)
        for vertex, probability in exact.items():
            assert analytic[vertex] == pytest.approx(probability)

    def test_unreachable_vertices_have_zero(self, small_path):
        small_path.add_vertex(42)
        reach = mono_connected_reachability(small_path, 0)
        assert reach[42] == 0.0

    def test_cycle_raises(self, five_cycle):
        with pytest.raises(GraphError):
            mono_connected_reachability(five_cycle, 0)

    def test_unknown_source(self, small_path):
        with pytest.raises(VertexNotFoundError):
            mono_connected_reachability(small_path, 77)


class TestMonoFlow:
    def test_matches_exact(self, small_path):
        analytic = mono_connected_expected_flow(small_path, 0).expected_flow
        exact = exact_expected_flow(small_path, 0).expected_flow
        assert analytic == pytest.approx(exact)

    def test_include_query(self, small_path):
        included = mono_connected_expected_flow(small_path, 0, include_query=True)
        excluded = mono_connected_expected_flow(small_path, 0, include_query=False)
        assert included.expected_flow == pytest.approx(excluded.expected_flow + 1.0)

    def test_edge_restriction(self, five_cycle):
        tree_edges = [Edge(0, 1), Edge(1, 2)]
        flow = mono_connected_expected_flow(five_cycle, 0, edges=tree_edges)
        assert flow.expected_flow == pytest.approx(0.5 + 0.25)

