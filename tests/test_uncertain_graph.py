"""Tests for the UncertainGraph model."""

import math

import pytest

from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateVertexError,
    EdgeNotFoundError,
    InvalidProbabilityError,
    InvalidWeightError,
    SelfLoopError,
    VertexNotFoundError,
)
from repro.graph.uncertain_graph import UncertainGraph
from repro.types import Edge


@pytest.fixture
def graph() -> UncertainGraph:
    g = UncertainGraph(name="fixture")
    g.add_vertex("a", weight=1.0)
    g.add_vertex("b", weight=2.0)
    g.add_vertex("c", weight=3.0)
    g.add_edge("a", "b", 0.5)
    g.add_edge("b", "c", 0.25)
    return g


class TestVertices:
    def test_add_and_query(self, graph):
        assert graph.has_vertex("a")
        assert graph.weight("b") == 2.0
        assert graph.n_vertices == 3

    def test_duplicate_vertex_rejected(self, graph):
        with pytest.raises(DuplicateVertexError):
            graph.add_vertex("a")

    def test_negative_weight_rejected(self):
        g = UncertainGraph()
        with pytest.raises(InvalidWeightError):
            g.add_vertex(0, weight=-1.0)

    def test_nan_weight_rejected(self):
        g = UncertainGraph()
        with pytest.raises(InvalidWeightError):
            g.add_vertex(0, weight=float("nan"))

    def test_missing_vertex_weight_lookup(self, graph):
        with pytest.raises(VertexNotFoundError):
            graph.weight("missing")

    def test_set_weight(self, graph):
        graph.set_weight("a", 9.0)
        assert graph.weight("a") == 9.0

    def test_set_weight_missing_vertex(self, graph):
        with pytest.raises(VertexNotFoundError):
            graph.set_weight("zzz", 1.0)

    def test_remove_vertex_removes_incident_edges(self, graph):
        graph.remove_vertex("b")
        assert not graph.has_vertex("b")
        assert graph.n_edges == 0

    def test_remove_missing_vertex(self, graph):
        with pytest.raises(VertexNotFoundError):
            graph.remove_vertex("missing")

    def test_total_weight(self, graph):
        assert graph.total_weight() == 6.0
        assert graph.total_weight(exclude=["c"]) == 3.0

    def test_len_and_contains(self, graph):
        assert len(graph) == 3
        assert "a" in graph
        assert "zzz" not in graph


class TestEdges:
    def test_add_and_query(self, graph):
        assert graph.has_edge("a", "b")
        assert graph.has_edge("b", "a")
        assert graph.probability("a", "b") == 0.5
        assert graph.probability(Edge("b", "a")) == 0.5

    def test_degree_and_neighbors(self, graph):
        assert graph.degree("b") == 2
        assert set(graph.neighbors("b")) == {"a", "c"}

    def test_incident_edges(self, graph):
        assert set(graph.incident_edges("b")) == {Edge("a", "b"), Edge("b", "c")}

    def test_duplicate_edge_rejected(self, graph):
        with pytest.raises(DuplicateEdgeError):
            graph.add_edge("b", "a", 0.3)

    def test_self_loop_rejected(self, graph):
        with pytest.raises(SelfLoopError):
            graph.add_edge("a", "a", 0.5)

    def test_probability_out_of_range(self, graph):
        with pytest.raises(InvalidProbabilityError):
            graph.add_edge("a", "c", 0.0)
        with pytest.raises(InvalidProbabilityError):
            graph.add_edge("a", "c", 1.5)

    def test_missing_endpoint_rejected(self, graph):
        with pytest.raises(VertexNotFoundError):
            graph.add_edge("a", "zzz", 0.5)

    def test_create_vertices_flag(self):
        g = UncertainGraph()
        g.add_edge("x", "y", 0.9, create_vertices=True, default_weight=4.0)
        assert g.weight("x") == 4.0
        assert g.has_edge("x", "y")

    def test_remove_edge(self, graph):
        graph.remove_edge("a", "b")
        assert not graph.has_edge("a", "b")
        assert graph.n_edges == 1

    def test_remove_missing_edge(self, graph):
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge("a", "c")

    def test_set_probability(self, graph):
        graph.set_probability("a", "b", 0.9)
        assert graph.probability("a", "b") == 0.9

    def test_uncertain_edges_excludes_certain_ones(self, graph):
        graph.set_probability("a", "b", 1.0)
        assert Edge("a", "b") not in graph.uncertain_edges()
        assert Edge("b", "c") in graph.uncertain_edges()

    def test_average_degree(self, graph):
        assert graph.average_degree() == pytest.approx(4.0 / 3.0)

    def test_has_edge_self_loop_is_false(self, graph):
        assert graph.has_edge("a", "a") is False


class TestSubgraphs:
    def test_edge_subgraph_keeps_all_vertices_by_default(self, graph):
        sub = graph.edge_subgraph([Edge("a", "b")])
        assert sub.n_vertices == 3
        assert sub.n_edges == 1

    def test_edge_subgraph_restricted_vertices(self, graph):
        sub = graph.edge_subgraph([("a", "b")], keep_all_vertices=False)
        assert set(sub.vertices()) == {"a", "b"}

    def test_edge_subgraph_rejects_foreign_edge(self, graph):
        with pytest.raises(EdgeNotFoundError):
            graph.edge_subgraph([Edge("a", "c")])

    def test_vertex_subgraph(self, graph):
        sub = graph.vertex_subgraph(["a", "b"])
        assert sub.n_vertices == 2
        assert sub.has_edge("a", "b")
        assert not sub.has_edge("b", "c")

    def test_vertex_subgraph_missing_vertex(self, graph):
        with pytest.raises(VertexNotFoundError):
            graph.vertex_subgraph(["a", "nope"])

    def test_copy_is_independent(self, graph):
        clone = graph.copy()
        clone.set_probability("a", "b", 0.9)
        assert graph.probability("a", "b") == 0.5
        assert clone == clone.copy()

    def test_equality_considers_weights_and_probabilities(self, graph):
        other = graph.copy()
        assert graph == other
        other.set_weight("a", 100.0)
        assert graph != other


class TestWorldProbability:
    def test_world_probability_matches_manual_product(self, graph):
        # world with only edge (a, b): 0.5 * (1 - 0.25)
        assert graph.world_probability([Edge("a", "b")]) == pytest.approx(0.5 * 0.75)

    def test_full_world(self, graph):
        assert graph.world_probability(graph.edges()) == pytest.approx(0.5 * 0.25)

    def test_empty_world(self, graph):
        assert graph.world_probability([]) == pytest.approx(0.5 * 0.75)

    def test_certain_edge_missing_gives_zero(self, graph):
        graph.set_probability("a", "b", 1.0)
        assert graph.world_probability([]) == 0.0

    def test_unknown_edge_rejected(self, graph):
        with pytest.raises(EdgeNotFoundError):
            graph.world_probability([Edge("a", "c")])

    def test_log_world_probability_consistency(self, graph):
        log_p = graph.log_world_probability([Edge("a", "b")])
        assert math.exp(log_p) == pytest.approx(graph.world_probability([Edge("a", "b")]))


class TestFromEdges:
    def test_from_edges_builds_graph(self):
        g = UncertainGraph.from_edges(
            [(0, 1, 0.5), (1, 2, 0.75)], weights={0: 2.0, 9: 1.5}, default_weight=1.0
        )
        assert g.n_vertices == 4  # 0, 1, 2 and the isolated 9
        assert g.weight(0) == 2.0
        assert g.weight(2) == 1.0
        assert g.weight(9) == 1.5
        assert g.probability(1, 2) == 0.75
