"""Tests for the digest-keyed graph layout cache (`repro.reachability.layout`)."""

import numpy as np
import pytest

from repro.digest import graph_digest
from repro.graph.generators import erdos_renyi_graph
from repro.reachability.backends import backend_availability, make_backend
from repro.reachability.engine import SamplingEngine
from repro.reachability.layout import (
    LayoutCache,
    LayoutKey,
    get_default_layout_cache,
    graph_layout,
)
from repro.service.cache import WorldCache


@pytest.fixture
def graph():
    return erdos_renyi_graph(30, average_degree=4, seed=5)


def make_key(**overrides) -> LayoutKey:
    base = dict(graph_digest=1, edges_digest=None)
    base.update(overrides)
    return LayoutKey(**base)


class TestLayoutKey:
    def test_digest_is_stable(self):
        assert make_key().digest == make_key().digest

    def test_every_component_separates_keys(self):
        base = make_key().digest
        assert make_key(graph_digest=2).digest != base
        assert make_key(edges_digest=5).digest != base

    def test_full_graph_differs_from_empty_restriction(self):
        from repro.digest import edge_sequence_digest

        assert make_key(edges_digest=edge_sequence_digest([])).digest != make_key().digest


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

    def test_eviction_order_is_least_recently_used(self, graph):
        cache = LayoutCache(max_entries=2)
        graphs = [erdos_renyi_graph(10, average_degree=3, seed=s) for s in (1, 2, 3)]
        first = graph_layout(graphs[0], cache=cache)
        graph_layout(graphs[1], cache=cache)
        # touch the first entry so the second becomes LRU, then overflow
        assert graph_layout(graphs[0], cache=cache) is first
        graph_layout(graphs[2], cache=cache)
        assert len(cache) == 2
        assert cache.evictions == 1
        kept = [key.graph_digest for key in cache.keys()]
        assert graphs[1].content_digest() not in kept
        assert graphs[0].content_digest() in kept

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            LayoutCache(max_entries=0)

    def test_invalidate_graph_reclaims_entries(self, graph):
        cache = LayoutCache()
        graph_layout(graph, cache=cache)
        graph_layout(graph, edges=graph.edge_list()[:3], cache=cache)
        assert len(cache) == 2
        assert cache.invalidate_graph(graph) == 2
        assert len(cache) == 0
        assert cache.invalidations == 2

    def test_invalidate_by_pre_mutation_digest(self, graph):
        cache = LayoutCache()
        old_digest = graph.content_digest()
        graph_layout(graph, cache=cache)
        graph.set_weight(0, 5.0)
        assert cache.invalidate_graph(graph) == 0
        assert cache.invalidate_graph(old_digest) == 1
        assert len(cache) == 0

    def test_world_cache_invalidation_reaches_the_default_layout_cache(self, graph):
        layout_cache = get_default_layout_cache()
        graph_layout(graph)  # populate the process-wide default
        key = LayoutKey(graph_digest=graph.content_digest(), edges_digest=None)
        assert key in layout_cache
        WorldCache().invalidate_graph(graph)
        assert key not in layout_cache

    def test_engine_reuses_one_layout_across_calls(self, graph):
        cache = get_default_layout_cache()
        engine = SamplingEngine("csr")
        first = engine.sample_worlds(graph, 0, 16, seed=1)
        misses = cache.misses
        second = engine.sample_worlds(graph, 1, 16, seed=2)
        assert cache.misses == misses  # second call re-used the interned layout
        assert first.problem.layout is second.problem.layout


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
