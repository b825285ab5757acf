"""Tests for the shared content-digest module (`repro.digest`)."""

from repro.digest import (
    combine_digests,
    content_digest,
    edge_probability_digest,
    edge_sequence_digest,
    graph_digest,
    stable_digest,
)
from repro.graph.generators import erdos_renyi_graph
from repro.graph.uncertain_graph import UncertainGraph
from repro.types import Edge


class TestStableDigest:
    def test_deterministic_and_distinct(self):
        assert stable_digest(("a", 1)) == stable_digest(("a", 1))
        assert stable_digest(("a", 1)) != stable_digest(("a", 2))

    def test_128_bit_range(self):
        digest = stable_digest("payload")
        assert 0 <= digest < 2**128

    def test_combine_digests_order_sensitive(self):
        assert combine_digests(1, 2) != combine_digests(2, 1)


class TestContentDigest:
    def test_edge_order_is_canonicalised(self):
        edges_a = [Edge(1, 2), Edge(2, 3)]
        edges_b = [Edge(2, 3), Edge(1, 2)]
        assert content_digest(edges_a, 1) == content_digest(edges_b, 1)

    def test_articulation_and_salts_matter(self):
        edges = [Edge(1, 2)]
        assert content_digest(edges, 1) != content_digest(edges, 2)
        assert content_digest(edges, 1, 7) != content_digest(edges, 1, 8)


class TestEdgeSequenceDigest:
    def test_none_means_full_graph(self):
        assert edge_sequence_digest(None) is None

    def test_order_sensitive(self):
        # flips are drawn in edge order: same set, different order,
        # different worlds — the digests must not collide
        assert edge_sequence_digest([Edge(1, 2), Edge(2, 3)]) != edge_sequence_digest(
            [Edge(2, 3), Edge(1, 2)]
        )

    def test_same_sequence_same_digest(self):
        assert edge_sequence_digest([Edge(1, 2)]) == edge_sequence_digest([Edge(1, 2)])


class TestEdgeProbabilityDigest:
    def test_same_pairs_same_digest(self):
        pairs = [(Edge(1, 2), 0.5), (Edge(2, 3), 0.25)]
        assert edge_probability_digest(pairs) == edge_probability_digest(list(pairs))

    def test_order_probability_and_edge_all_matter(self):
        base = edge_probability_digest([(Edge(1, 2), 0.5), (Edge(2, 3), 0.25)])
        assert edge_probability_digest([(Edge(2, 3), 0.25), (Edge(1, 2), 0.5)]) != base
        assert edge_probability_digest([(Edge(1, 2), 0.5), (Edge(2, 3), 0.3)]) != base
        assert edge_probability_digest([(Edge(1, 2), 0.5), (Edge(2, 4), 0.25)]) != base

    def test_never_equals_a_graph_digest(self):
        graph = UncertainGraph()
        graph.add_edge(1, 2, 0.5, create_vertices=True)
        pairs = list(graph.probabilities().items())
        assert edge_probability_digest(pairs) != graph_digest(graph)


class TestGraphDigest:
    def test_content_addressed(self):
        a = erdos_renyi_graph(30, average_degree=3, seed=5)
        b = erdos_renyi_graph(30, average_degree=3, seed=5)
        assert graph_digest(a) == graph_digest(b)

    def test_name_is_ignored(self):
        graph = erdos_renyi_graph(20, average_degree=3, seed=1)
        renamed = graph.copy(name="something-else")
        assert graph_digest(graph) == graph_digest(renamed)

    def test_mutations_move_the_digest(self):
        graph = UncertainGraph.from_edges([(1, 2, 0.5), (2, 3, 0.5)])
        base = graph_digest(graph)

        probability_changed = graph.copy()
        probability_changed.set_probability(1, 2, 0.6)
        assert graph_digest(probability_changed) != base

        weight_changed = graph.copy()
        weight_changed.set_weight(3, 2.0)
        assert graph_digest(weight_changed) != base

        edge_added = graph.copy()
        edge_added.add_edge(1, 3, 0.5)
        assert graph_digest(edge_added) != base

        vertex_added = graph.copy()
        vertex_added.add_vertex(99)
        assert graph_digest(vertex_added) != base

    def test_vertex_insertion_order_is_ignored(self):
        a = UncertainGraph()
        for vertex in (1, 2, 3):
            a.add_vertex(vertex)
        a.add_edge(1, 2, 0.5)
        b = UncertainGraph()
        for vertex in (3, 2, 1):
            b.add_vertex(vertex)
        b.add_edge(1, 2, 0.5)
        assert graph_digest(a) == graph_digest(b)

