"""Tests for candidate-edge (frontier) management."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import VertexNotFoundError
from repro.graph.generators import path_graph
from repro.graph.uncertain_graph import UncertainGraph
from repro.selection.candidates import CandidateManager
from repro.selection.registry import make_selector
from repro.types import Edge


class TestCandidateManager:
    def test_initial_candidates_are_query_incident_edges(self, star_five):
        manager = CandidateManager(star_five, 0)
        assert set(manager.candidates()) == set(star_five.incident_edges(0))
        assert len(manager) == 5

    def test_unknown_query_rejected(self, star_five):
        with pytest.raises(VertexNotFoundError):
            CandidateManager(star_five, 99)

    def test_selection_expands_frontier(self):
        graph = path_graph(4, probability=0.5)
        manager = CandidateManager(graph, 0)
        assert manager.candidates() == [Edge(0, 1)]
        newly = manager.mark_selected(Edge(0, 1))
        assert newly == {1}
        assert manager.candidates() == [Edge(1, 2)]

    def test_connected_vertices_tracking(self):
        graph = path_graph(3, probability=0.5)
        manager = CandidateManager(graph, 0)
        manager.mark_selected(Edge(0, 1))
        assert manager.connected_vertices == {0, 1}
        assert manager.selected_edges == {Edge(0, 1)}

    def test_selecting_non_candidate_rejected(self):
        graph = path_graph(4, probability=0.5)
        manager = CandidateManager(graph, 0)
        with pytest.raises(ValueError):
            manager.mark_selected(Edge(2, 3))

    def test_cycle_closing_edge_removed_from_frontier(self, triangle_graph):
        manager = CandidateManager(triangle_graph, 0)
        manager.mark_selected(Edge(0, 1))
        manager.mark_selected(Edge(0, 2))
        # the remaining candidate closes the cycle; once selected nothing is left
        assert manager.candidates() == [Edge(1, 2)]
        newly = manager.mark_selected(Edge(1, 2))
        assert newly == set()
        assert not manager.has_candidates()

    def test_iteration_and_contains(self, star_five):
        manager = CandidateManager(star_five, 0)
        assert Edge(0, 1) in manager
        assert sorted(manager, key=repr) == sorted(manager.candidates(), key=repr)

    def test_isolated_query_has_no_candidates(self, star_five):
        star_five.add_vertex(99)
        manager = CandidateManager(star_five, 99)
        assert not manager.has_candidates()

    def test_isolated_query_has_an_empty_frontier(self, star_five):
        star_five.add_vertex(99)
        manager = CandidateManager(star_five, 99)
        assert manager.candidates() == []
        assert len(manager) == 0
        for column in (manager.anchors, manager.new_vertices, manager.gains):
            assert column.shape == (0,)


def _repr_key(edge):
    return (repr(edge.u), repr(edge.v))


def _graph(labels, rng, extra_edges):
    """A connected graph over ``labels`` with random weights and probabilities."""
    graph = UncertainGraph(name="labels")
    for label in labels:
        graph.add_vertex(label, weight=rng.choice([0.0, 1.0, 2.5, 7.0]))
    for index in range(1, len(labels)):
        graph.add_edge(labels[index], labels[rng.randrange(index)], rng.choice([0.3, 0.7, 1.0]))
    for _ in range(extra_edges):
        u, v = rng.sample(labels, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.choice([0.3, 0.7, 1.0]))
    return graph


def _frontier(graph, connected, selected):
    return {
        Edge(vertex, neighbor)
        for vertex in connected
        for neighbor in graph.neighbors(vertex)
        if Edge(vertex, neighbor) not in selected
    }


def _check_rows(manager, graph, connected, selected):
    """Order, contents and Case II / cycle classification of every row."""
    edges = manager.candidates()
    assert edges == sorted(_frontier(graph, connected, selected), key=_repr_key)
    assert list(manager) == edges
    index = graph.vertex_index()
    columns = (manager.anchors, manager.new_vertices, manager.gains)
    for edge, anchor, new_vertex, gain in zip(edges, *(column.tolist() for column in columns)):
        assert edge in manager
        assert index.vertices[anchor] in connected
        assert index.vertices[anchor] in edge
        if edge.u in connected and edge.v in connected:
            assert new_vertex == -1
        else:
            new = index.vertices[new_vertex]
            assert new not in connected and new == edge.other(index.vertices[anchor])
            assert gain == graph.probability(edge) * graph.weight(new)


LABELS = {
    # 10 sorts before 2 by repr, after it by value
    "ints": list(range(2, 14)),
    "strings": ["b", "a10", "a2", "Z", "q", "aa", "ab", "c", "B"],
    "mixed": [2, "2", 10, "10", "x", 3, "ab", 11],
}


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(LABELS)),
    seed=st.integers(0, 10**6),
    extra_edges=st.integers(0, 14),
)
def test_rank_order_and_classification_after_every_selection(kind, seed, extra_edges):
    rng = random.Random(seed)
    labels = list(LABELS[kind])
    rng.shuffle(labels)
    graph = _graph(labels, rng, extra_edges)
    query = labels[0]
    manager = CandidateManager(graph, query)
    connected, selected = {query}, set()
    _check_rows(manager, graph, connected, selected)
    while manager.has_candidates():
        edge = rng.choice(manager.candidates())
        before = set(manager.candidates())
        newly = manager.mark_selected(edge)
        assert newly == {vertex for vertex in edge if vertex not in connected}
        connected |= newly
        selected.add(edge)
        assert edge not in manager
        assert manager.added_edges == sorted(set(manager.candidates()) - before, key=_repr_key)
        _check_rows(manager, graph, connected, selected)
    assert connected == set(labels)


def test_equal_reprs_keep_insertion_order():
    class Named:
        def __init__(self, tag):
            self.tag = tag

        def __repr__(self):
            return "same"

    first, second, third = Named(1), Named(2), Named(3)
    graph = UncertainGraph(name="ties")
    for vertex in ("q", first, second, third):
        graph.add_vertex(vertex)
    for vertex in (third, first, second):
        graph.add_edge("q", vertex, 0.5)
    manager = CandidateManager(graph, "q")
    assert [edge.other("q") for edge in manager.candidates()] == [first, second, third]


def test_mutating_the_graph_moves_the_rank():
    graph = UncertainGraph(name="mutated")
    for vertex in (5, 20, 3):
        graph.add_vertex(vertex)
    graph.add_edge(5, 20, 0.5)
    graph.add_edge(5, 3, 0.5)
    index = graph.vertex_index()
    assert graph.vertex_index() is index
    assert CandidateManager(graph, 5).candidates() == [Edge(3, 5), Edge(5, 20)]
    # 100 sorts before 20 by repr, after it by value
    graph.add_vertex(100)
    graph.add_edge(5, 100, 0.5)
    assert graph.vertex_index() is not index
    assert CandidateManager(graph, 5).candidates() == [Edge(3, 5), Edge(5, 100), Edge(5, 20)]
    graph.remove_vertex(20)
    assert CandidateManager(graph, 5).candidates() == [Edge(3, 5), Edge(5, 100)]


def test_selection_after_a_mutation_matches_a_fresh_graph():
    rng = random.Random(8)
    labels = list(range(2, 30))
    graph = _graph(labels, rng, 25)
    selector = make_selector("FT+M", n_samples=50, seed=4)
    selector.select(graph, 2, 6)
    for label in (40, 100, 1000):
        graph.add_vertex(label, weight=9.0)
        graph.add_edge(2, label, 0.9)
    fresh = UncertainGraph(name="fresh")
    for vertex in graph.vertices():
        fresh.add_vertex(vertex, weight=graph.weight(vertex))
    for edge in graph.edges():
        fresh.add_edge(edge.u, edge.v, graph.probability(edge))
    expected = make_selector("FT+M", n_samples=50, seed=4).select(fresh, 2, 6)
    result = make_selector("FT+M", n_samples=50, seed=4).select(graph, 2, 6)
    assert result.selected_edges == expected.selected_edges
    assert result.expected_flow == expected.expected_flow
