"""Tests for exact reachability / flow, checked against a per-world enumeration loop."""

import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import EdgeNotFoundError, ExactEnumerationError, VertexNotFoundError
from repro.ftree.sampler import ComponentSampler
from repro.graph.generators import cycle_graph, path_graph, star_graph
from repro.graph.possible_world import enumerate_worlds
from repro.graph.uncertain_graph import UncertainGraph
from repro.reachability.exact import (
    cycle_closure,
    exact_closure,
    exact_expected_flow,
    exact_reachability,
    exact_reachability_all,
)
from repro.types import Edge


def reference_reachability_all(graph, source, edges=None, limit=20):
    """The per-world loop: one ``PossibleWorld`` and one BFS per enumerated world."""
    restricted = graph if edges is None else graph.edge_subgraph(edges, keep_all_vertices=True)
    probabilities = {vertex: 0.0 for vertex in restricted.vertices()}
    for world, world_probability in enumerate_worlds(restricted, limit=limit):
        for vertex in world.reachable_from(source):
            probabilities[vertex] += world_probability
    return {vertex: min(1.0, max(0.0, p)) for vertex, p in probabilities.items()}


@st.composite
def graphs_with_source(draw):
    """Small graphs mixing certain (p = 1.0) and uncertain edges, with isolated vertices.

    The source is any vertex, so it may be isolated or cut off from most
    of the graph.
    """
    n_vertices = draw(st.integers(min_value=1, max_value=8))
    graph = UncertainGraph()
    for vertex in range(n_vertices):
        graph.add_vertex(vertex, weight=draw(st.sampled_from([0.5, 1.0, 3.0])))
    pairs = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True)) if pairs else []
    for u, v in chosen:
        probability = draw(
            st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=0.99))
        )
        graph.add_edge(u, v, probability)
    source = draw(st.integers(min_value=0, max_value=n_vertices - 1))
    return graph, source


class TestExactReachability:
    def test_single_edge(self):
        graph = path_graph(2, probability=0.3)
        assert exact_reachability(graph, 0, 1).probability == pytest.approx(0.3)

    def test_path_is_product(self):
        graph = path_graph(4, probability=0.5)
        assert exact_reachability(graph, 0, 3).probability == pytest.approx(0.125)

    def test_triangle_two_terminal(self, triangle_graph):
        # P(0 <-> 1) = p01 + (1 - p01) * p02 * p12
        expected = 0.5 + 0.5 * 0.7 * 0.6
        assert exact_reachability(triangle_graph, 0, 1).probability == pytest.approx(expected)

    def test_self_reachability_is_one(self, triangle_graph):
        assert exact_reachability(triangle_graph, 1, 1).probability == pytest.approx(1.0)

    def test_disconnected_vertex(self):
        graph = path_graph(2, probability=0.5)
        graph.add_vertex(9)
        assert exact_reachability(graph, 0, 9).probability == 0.0

    def test_all_reachabilities(self, triangle_graph):
        probabilities = exact_reachability_all(triangle_graph, 0)
        assert probabilities[0] == pytest.approx(1.0)
        assert all(0.0 <= p <= 1.0 for p in probabilities.values())

    def test_unknown_vertices(self, triangle_graph):
        with pytest.raises(VertexNotFoundError):
            exact_reachability(triangle_graph, 0, 99)
        with pytest.raises(VertexNotFoundError):
            exact_reachability_all(triangle_graph, 99)

    def test_edge_restriction(self, triangle_graph):
        restricted = exact_reachability(triangle_graph, 0, 1, edges=[Edge(0, 1)])
        assert restricted.probability == pytest.approx(0.5)

    def test_estimate_is_marked_exact(self, triangle_graph):
        assert exact_reachability(triangle_graph, 0, 1).is_exact


class TestExactFlow:
    def test_star_flow(self):
        graph = star_graph(4, probability=0.5, weight=2.0)
        flow = exact_expected_flow(graph, 0)
        assert flow.expected_flow == pytest.approx(4 * 0.5 * 2.0)

    def test_include_query(self, triangle_graph):
        excluded = exact_expected_flow(triangle_graph, 0, include_query=False)
        included = exact_expected_flow(triangle_graph, 0, include_query=True)
        assert included.expected_flow == pytest.approx(excluded.expected_flow + 1.0)
        assert 0 in included.reachability
        assert 0 not in excluded.reachability

    def test_weights_are_honoured(self):
        graph = path_graph(3, probability=0.5)
        graph.set_weight(2, 10.0)
        flow = exact_expected_flow(graph, 0)
        assert flow.expected_flow == pytest.approx(0.5 * 1.0 + 0.25 * 10.0)

    def test_limit_enforced(self):
        graph = path_graph(25, probability=0.5)
        with pytest.raises(ExactEnumerationError):
            exact_expected_flow(graph, 0, limit=10)

    def test_flow_estimate_is_exact(self, triangle_graph):
        assert exact_expected_flow(triangle_graph, 0).is_exact


class TestAgainstPerWorldLoop:
    """The all-worlds closure against the per-world reference, compared with ``==``."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graphs_with_source())
    def test_whole_graph(self, case):
        graph, source = case
        expected = reference_reachability_all(graph, source)
        actual = exact_reachability_all(graph, source)
        assert list(actual) == list(expected)
        assert actual == expected

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graphs_with_source(), st.data())
    def test_edge_restriction(self, case, data):
        graph, source = case
        edges = graph.edge_list()
        subset = data.draw(st.lists(st.sampled_from(edges), max_size=12)) if edges else []
        # raw pairs, reversed orientation and repeats are all accepted
        restriction = [
            (edge.v, edge.u) if index % 2 else edge for index, edge in enumerate(subset)
        ]
        expected = reference_reachability_all(graph, source, edges=restriction)
        actual = exact_reachability_all(graph, source, edges=restriction)
        assert list(actual) == list(graph.vertices())
        assert actual == expected

    def test_unknown_edge_in_restriction(self, triangle_graph):
        triangle_graph.add_vertex(3)
        with pytest.raises(EdgeNotFoundError):
            exact_reachability_all(triangle_graph, 0, edges=[Edge(0, 1), Edge(0, 3)])

    def test_restriction_keeps_every_vertex(self, triangle_graph):
        triangle_graph.add_vertex(7)
        probabilities = exact_reachability_all(triangle_graph, 0, edges=[Edge(1, 2)])
        assert probabilities == {0: 1.0, 1: 0.0, 2: 0.0, 7: 0.0}


class TestEnumerationLimit:
    def test_limit_uncertain_edges_pass(self):
        graph = path_graph(13, probability=0.5)
        graph.add_edge(0, 12, 1.0)  # certain edges do not count against the limit
        assert exact_reachability_all(graph, 0, limit=12) == reference_reachability_all(
            graph, 0, limit=12
        )

    def test_one_over_the_limit_raises(self):
        with pytest.raises(ExactEnumerationError) as raised:
            exact_reachability_all(path_graph(14, probability=0.5), 0, limit=12)
        assert (raised.value.n_edges, raised.value.limit) == (13, 12)

    def test_raises_before_allocating_the_worlds(self):
        # 2^65 worlds could not even be indexed: raising promptly and with a
        # tiny footprint shows the check precedes every allocation
        edges = [(Edge(i, i + 1), 0.5) for i in range(65)]
        tracemalloc.start()
        try:
            with pytest.raises(ExactEnumerationError):
                exact_closure(0, range(66), edges, limit=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBoundedMemory:
    def test_twenty_uncertain_edges_peak_under_64_mb(self):
        # the sums never hold a vertices x 2^20 float matrix (~160 MB here)
        graph = cycle_graph(20, probability=0.5)
        tracemalloc.start()
        try:
            probabilities = exact_reachability_all(graph, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        for k in range(1, 20):
            # P(0 <-> k) on an n-cycle: either arc survives
            assert probabilities[k] == pytest.approx(0.5**k + 0.5 ** (20 - k) - 0.5**20)


def _weighted(graph, edges):
    return [(edge, graph.probability(edge)) for edge in edges]


class TestComponentSamplerExact:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(graphs_with_source())
    def test_matches_reference_on_component(self, case):
        """Bit for bit against the per-world loop, to 1e-12 on a simple cycle."""
        graph, articulation = case
        edges = set(graph.edge_list())
        vertices = {vertex for edge in edges for vertex in edge} - {articulation}
        sampler = ComponentSampler(n_samples=10, exact_threshold=20, seed=0)
        weighted = _weighted(graph, edges)
        actual = sampler._exact(articulation, vertices, weighted)
        component = graph.edge_subgraph(edges, keep_all_vertices=False)
        if not component.has_vertex(articulation):
            assert actual == {vertex: 0.0 for vertex in vertices}
            return
        reference = reference_reachability_all(component, articulation)
        expected = {vertex: reference[vertex] for vertex in vertices}
        if cycle_closure(articulation, vertices, weighted) is None:
            assert actual == expected
        else:
            assert list(actual) == list(expected)
            assert actual == pytest.approx(expected, rel=0, abs=1e-12)

    def test_isolated_articulation(self, triangle_graph):
        triangle_graph.add_vertex(9)
        sampler = ComponentSampler(n_samples=10, exact_threshold=20, seed=0)
        weighted = _weighted(triangle_graph, triangle_graph.edge_list())
        assert sampler._exact(9, {0, 1, 2}, weighted) == {0: 0.0, 1: 0.0, 2: 0.0}


@st.composite
def cycles_with_source(draw):
    """A simple cycle of 3–16 edges as shuffled ``(edge, p)`` pairs, plus its source.

    Vertex ids are ints or strings, some edges are certain (p = 1.0), and
    the source sits anywhere on the cycle.
    """
    n = draw(st.integers(min_value=3, max_value=16))
    ids = draw(st.sampled_from([list(range(n)), [f"v{i}" for i in range(n)]]))
    probabilities = draw(
        st.lists(
            st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
            min_size=n,
            max_size=n,
        )
    )
    pairs = [(Edge(ids[i], ids[(i + 1) % n]), probabilities[i]) for i in range(n)]
    pairs = draw(st.permutations(pairs))
    source = draw(st.sampled_from(ids))
    vertices = draw(st.permutations([vertex for vertex in ids if vertex != source]))
    return source, vertices, pairs


def _figure_eight():
    """Two triangles sharing vertex 0: every vertex but 0 has degree 2."""
    pairs = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    return 0, [1, 2, 3, 4], [(Edge(u, v), 0.3 + 0.1 * i) for i, (u, v) in enumerate(pairs)]


def _chorded_cycle():
    """A 5-cycle through 0 with the chord 1–3."""
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]
    return 0, [1, 2, 3, 4], [(Edge(u, v), 0.35 + 0.1 * i) for i, (u, v) in enumerate(pairs)]


def _theta():
    """Three disjoint paths from 0 to 3: 0-1-3, 0-2-3 and 0-4-5-3."""
    pairs = [(0, 1), (1, 3), (0, 2), (2, 3), (0, 4), (4, 5), (5, 3)]
    return 0, [1, 2, 3, 4, 5], [(Edge(u, v), 0.2 + 0.1 * i) for i, (u, v) in enumerate(pairs)]


def _two_cycles():
    """Source on a triangle, the edge count padded by a disjoint triangle."""
    pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    return 0, [1, 2, 3, 4, 5], [(Edge(u, v), 0.5) for u, v in pairs]


class TestCycleClosure:
    @settings(max_examples=300, deadline=None)
    @given(cycles_with_source())
    def test_matches_exact_closure(self, case):
        source, vertices, pairs = case
        closed = cycle_closure(source, vertices, pairs)
        assert closed is not None
        expected = exact_closure(source, vertices, pairs)
        assert list(closed) == list(expected)
        assert closed == pytest.approx(expected, rel=0, abs=1e-12)

    def test_triangle(self, triangle_graph):
        closed = cycle_closure(0, [1, 2], _weighted(triangle_graph, triangle_graph.edge_list()))
        assert closed[1] == pytest.approx(0.5 + 0.6 * 0.7 - 0.5 * 0.6 * 0.7)
        assert closed[2] == pytest.approx(0.7 + 0.5 * 0.6 - 0.7 * 0.5 * 0.6)

    @pytest.mark.parametrize(
        "component", [_chorded_cycle, _theta, _figure_eight, _two_cycles], ids=lambda f: f.__name__
    )
    def test_other_components_fall_back_to_the_enumeration(self, component):
        source, vertices, pairs = component()
        assert cycle_closure(source, vertices, pairs) is None
        graph = UncertainGraph()
        for edge, p in pairs:
            graph.add_edge(edge.u, edge.v, p, create_vertices=True)
        sampler = ComponentSampler(n_samples=10, exact_threshold=10, seed=0)
        estimate = sampler.reachability(graph, source, vertices, [edge for edge, _ in pairs])
        assert estimate.exact and estimate.n_samples is None
        assert sampler.exact_components == 1
        # the sampler enumerates the worlds in the order of its edge set
        edge_set = set(edge for edge, _ in pairs)
        assert estimate.probabilities == exact_closure(
            source, set(vertices), _weighted(graph, edge_set)
        )

    def test_vertex_list_must_be_the_rest_of_the_cycle(self, triangle_graph):
        pairs = _weighted(triangle_graph, triangle_graph.edge_list())
        assert cycle_closure(0, [1, 2], pairs) is not None
        assert cycle_closure(0, [1, 9], pairs) is None
        assert cycle_closure(0, [0, 1], pairs) is None
        assert cycle_closure(0, [1], pairs) is None
        assert cycle_closure(9, [1, 2], pairs) is None

    def test_sampler_counts_a_cycle_as_exact(self):
        graph = cycle_graph(6, probability=0.4)
        sampler = ComponentSampler(n_samples=10, exact_threshold=6, seed=0)
        estimate = sampler.reachability(graph, 0, range(1, 6), graph.edge_list())
        assert estimate.exact and estimate.n_samples is None
        assert sampler.exact_components == 1 and sampler.sampled_components == 0
        for k in range(1, 6):
            assert estimate.probabilities[k] == pytest.approx(0.4**k + 0.4 ** (6 - k) - 0.4**6)
