"""Tests for the digest-keyed graph layout cache (`repro.reachability.layout`)."""

import numpy as np
import pytest

from repro.digest import graph_digest
from repro.graph.generators import erdos_renyi_graph
from repro.reachability.backends import backend_availability, make_backend
from repro.reachability.engine import SamplingEngine
from repro.reachability.layout import (
    LayoutCache,
    get_default_layout_cache,
    graph_layout,
)
from repro.selection.ftree_greedy import FTreeGreedySelector


@pytest.fixture
def graph():
    return erdos_renyi_graph(30, average_degree=4, seed=5)


class TestGraphContentDigest:
    def test_matches_the_pure_function(self, graph):
        assert graph.content_digest() == graph_digest(graph)

    def test_memo_survives_repeated_calls(self, graph):
        assert graph.content_digest() == graph.content_digest()

    def test_every_mutator_moves_the_digest(self, graph):
        before = graph.content_digest()
        graph.set_weight(0, 123.0)
        assert graph.content_digest() != before

        before = graph.content_digest()
        edge = next(iter(graph.edges()))
        graph.set_probability(edge.u, edge.v, 0.123)
        assert graph.content_digest() != before

        before = graph.content_digest()
        graph.add_vertex("new-vertex")
        assert graph.content_digest() != before

        before = graph.content_digest()
        graph.add_edge(0, "new-vertex", 0.5)
        assert graph.content_digest() != before

        before = graph.content_digest()
        graph.remove_edge(0, "new-vertex")
        assert graph.content_digest() != before

        before = graph.content_digest()
        graph.remove_vertex("new-vertex")
        assert graph.content_digest() != before

    def test_copy_shares_the_memo_and_content(self, graph):
        original = graph.content_digest()
        clone = graph.copy()
        assert clone.content_digest() == original
        # mutating the clone must not disturb the original's digest
        clone.set_weight(0, 99.0)
        assert clone.content_digest() != original
        assert graph.content_digest() == original


class TestLayoutCaching:
    def test_same_content_returns_the_same_layout_object(self, graph):
        cache = LayoutCache()
        first = graph_layout(graph, cache=cache)
        second = graph_layout(graph, cache=cache)
        assert first is second
        assert cache.stats()["hits"] == 1.0

    def test_equal_content_hits_across_instances(self, graph):
        cache = LayoutCache()
        first = graph_layout(graph, cache=cache)
        second = graph_layout(graph.copy(), cache=cache)
        assert first is second

    def test_restriction_is_keyed_separately_and_in_order(self, graph):
        cache = LayoutCache()
        edges = graph.edge_list()
        full = graph_layout(graph, cache=cache)
        head = graph_layout(graph, edges=edges[:5], cache=cache)
        reordered = graph_layout(graph, edges=list(reversed(edges[:5])), cache=cache)
        assert head is not full
        assert reordered is not head  # flip order = stream order
        assert len(cache) == 3

    def test_mutation_moves_the_key(self, graph):
        cache = LayoutCache()
        before = graph_layout(graph, cache=cache)
        edge = next(iter(graph.edges()))
        graph.set_probability(edge.u, edge.v, 0.123)
        after = graph_layout(graph, cache=cache)
        assert after is not before
        assert float(after.probabilities.sum()) != float(before.probabilities.sum())

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            LayoutCache(max_entries=0)

    def test_engine_reuses_one_layout_across_calls(self, graph):
        cache = get_default_layout_cache()
        engine = SamplingEngine("csr")
        first = engine.sample_worlds(graph, 0, 16, seed=1)
        misses = cache.misses
        second = engine.sample_worlds(graph, 1, 16, seed=2)
        assert cache.misses == misses  # second call re-used the interned layout
        assert first.problem.layout is second.problem.layout


class TestRestrictionKey:
    """A restriction is keyed on its own ordered ``(edge, probability)`` pairs."""

    def test_equal_restriction_content_shares_one_layout_across_graphs(self, graph):
        cache = LayoutCache()
        edges = graph.edge_list()[:5]
        other = graph.copy()
        other.set_weight(0, 42.0)
        other.add_edge(0, "elsewhere", 0.5, create_vertices=True)  # outside the restriction
        assert other.content_digest() != graph.content_digest()
        first = graph_layout(graph, edges=edges, cache=cache)
        assert graph_layout(other, edges=edges, cache=cache) is first
        assert len(cache) == 1

    def test_restricted_probability_change_moves_the_key(self, graph):
        cache = LayoutCache()
        edges = graph.edge_list()[:5]
        before = graph_layout(graph, edges=edges, cache=cache)
        graph.set_probability(edges[2].u, edges[2].v, 0.123)
        after = graph_layout(graph, edges=edges, cache=cache)
        assert after is not before
        assert after.probabilities[2] == 0.123
        assert len(cache) == 2

    def test_full_graph_differs_from_empty_restriction(self, graph):
        cache = LayoutCache()
        full = graph_layout(graph, cache=cache)
        empty = graph_layout(graph, edges=[], cache=cache)
        assert (full.n_edges, empty.n_edges) == (graph.n_edges, 0)
        assert len(cache) == 2

    def test_ftm_selection_never_calls_graph_digest(self, monkeypatch):
        # the F-tree path samples components through restricted layouts,
        # which must never hash the whole graph
        def refuse(graph):
            raise AssertionError("graph_digest called on the F-tree path")

        monkeypatch.setattr("repro.digest.graph_digest", refuse)
        monkeypatch.setattr("repro.graph.uncertain_graph.graph_digest", refuse)
        fresh = erdos_renyi_graph(40, average_degree=6, seed=11)
        selector = FTreeGreedySelector(n_samples=64, exact_threshold=2, memoize=True, seed=3)
        result = selector.select(fresh, 0, 8)
        assert result.extras["sampled_components"] > 0


class TestProblemView:
    def test_view_shares_arrays_and_interning(self, graph):
        layout = graph_layout(graph, cache=LayoutCache())
        problem = layout.problem(0)
        assert problem.layout is layout
        assert problem.vertex_ids == layout.vertex_ids
        assert problem.edge_u is layout.edge_u
        assert problem.edge_v is layout.edge_v
        assert problem.probabilities is layout.probabilities
        assert problem.vertex_ids[problem.source] == 0

    def test_unknown_source_and_extras_are_appended(self):
        graph = erdos_renyi_graph(8, average_degree=2, seed=3)
        graph.add_vertex("isolated")
        layout = graph_layout(graph, cache=LayoutCache())
        problem = layout.problem("isolated", extra_vertices=("extra-a", "extra-b"))
        assert problem.vertex_ids[problem.source] == "isolated"
        assert problem.vertex_ids[: layout.n_vertices] == layout.vertex_ids
        assert problem.vertex_ids[layout.n_vertices :] == ("isolated", "extra-a", "extra-b")
        # the layout itself is untouched by the extension
        assert "isolated" not in layout.vertex_ids

    def test_csr_adjacency_is_shared_and_padded(self, graph):
        layout = graph_layout(graph, cache=LayoutCache())
        plain = layout.problem(0)
        assert plain.csr_adjacency() is layout.csr_adjacency()
        extended = layout.problem(0, extra_vertices=("pad",))
        padded = extended.csr_adjacency()
        assert padded.n_vertices == extended.n_vertices
        # appended vertices have empty adjacency rows
        assert padded.indptr[-1] == padded.indptr[layout.n_vertices]
        assert padded.neighbors is layout.csr_adjacency().neighbors

    def test_view_equals_direct_problem_construction(self, graph):
        from repro.reachability.backends.base import SamplingProblem

        pairs = list(graph.probabilities().items())
        direct = SamplingProblem.from_edges(pairs, 0)
        view = graph_layout(graph, cache=LayoutCache()).problem(0)
        assert set(direct.vertex_ids) == set(view.vertex_ids)
        # same edges, same probabilities, possibly different vertex order
        direct_edges = {
            (direct.vertex_ids[u], direct.vertex_ids[v], p)
            for u, v, p in zip(direct.edge_u, direct.edge_v, direct.probabilities)
        }
        view_edges = {
            (view.vertex_ids[u], view.vertex_ids[v], p)
            for u, v, p in zip(view.edge_u, view.edge_v, view.probabilities)
        }
        assert direct_edges == view_edges


class TestRegistryAvailability:
    def test_builtin_backends_are_available(self):
        availability = backend_availability()
        for name in ("naive", "csr"):
            assert availability[name] is None

    def test_csr_numba_is_listed_either_way(self):
        availability = backend_availability()
        assert "csr-numba" in availability
        reason = availability["csr-numba"]
        if reason is not None:
            assert "numba" in reason
            with pytest.raises(ValueError, match="unavailable"):
                make_backend("csr-numba")


class TestCSRBackendEndToEnd:
    def test_csr_matches_naive_through_the_engine(self, graph):
        naive = SamplingEngine("naive").sample_worlds(graph, 0, 64, seed=9)
        csr = SamplingEngine("csr").sample_worlds(graph, 0, 64, seed=9)
        assert naive.problem.vertex_ids == csr.problem.vertex_ids
        assert np.array_equal(naive.reached, csr.reached)

    def test_csr_handles_isolated_source(self):
        graph = erdos_renyi_graph(10, average_degree=2, seed=4)
        graph.add_vertex("lonely")
        batch = SamplingEngine("csr").sample_worlds(graph, "lonely", 8, seed=0)
        only_source = np.zeros(batch.problem.n_vertices, dtype=bool)
        only_source[batch.problem.source] = True
        assert np.array_equal(batch.reached.any(axis=0), only_source)
