"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import math
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.biconnected import biconnected_edge_components
from repro.algorithms.traversal import connected_component
from repro.algorithms.union_find import UnionFind
from repro.exceptions import GraphError
from repro.ftree.builder import build_ftree
from repro.ftree.ftree import FTree
from repro.ftree.sampler import ComponentSampler
from repro.graph.uncertain_graph import UncertainGraph
from repro.reachability.analytic import mono_connected_reachability
from repro.reachability.confidence import normal_confidence_interval, wilson_confidence_interval
from repro.reachability.exact import exact_expected_flow
from repro.reachability.factoring import two_terminal_reliability
from repro.types import Edge

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
MAX_VERTICES = 8
MAX_EDGES = 12


@st.composite
def uncertain_graphs(draw) -> UncertainGraph:
    """Random small uncertain graphs (vertex 0 always exists and is the query)."""
    n_vertices = draw(st.integers(min_value=2, max_value=MAX_VERTICES))
    graph = UncertainGraph()
    for vertex in range(n_vertices):
        weight = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        graph.add_vertex(vertex, weight=weight)
    possible_edges = [
        (u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)
    ]
    n_edges = draw(st.integers(min_value=1, max_value=min(MAX_EDGES, len(possible_edges))))
    chosen = draw(
        st.lists(
            st.sampled_from(possible_edges),
            min_size=n_edges,
            max_size=n_edges,
            unique=True,
        )
    )
    for u, v in chosen:
        probability = draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
        graph.add_edge(u, v, probability)
    return graph


def _connected_insertion_order(graph: UncertainGraph, query) -> List[Edge]:
    """Order the query component's edges so that each insertion touches the component."""
    connected = {query}
    order: List[Edge] = []
    remaining = graph.edge_list()
    changed = True
    while remaining and changed:
        changed = False
        for edge in list(remaining):
            if edge.u in connected or edge.v in connected:
                order.append(edge)
                connected.update(edge.endpoints())
                remaining.remove(edge)
                changed = True
    return order


def _exact_sampler() -> ComponentSampler:
    return ComponentSampler(n_samples=10, exact_threshold=20, seed=0)


# ----------------------------------------------------------------------
# F-tree correctness properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs())
def test_incremental_ftree_flow_equals_exact_enumeration(graph):
    """The F-tree expected flow equals brute-force possible-world enumeration."""
    order = _connected_insertion_order(graph, 0)
    ftree = FTree(graph, 0, sampler=_exact_sampler())
    for edge in order:
        ftree.insert_edge(edge.u, edge.v)
    ftree.check_invariants()
    exact = exact_expected_flow(graph, 0, edges=order).expected_flow
    assert ftree.expected_flow() == pytest.approx(exact, abs=1e-9)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs())
def test_every_insertion_matches_two_terminal_reliability(graph):
    """After each insertion, every vertex's reachability is factoring's exact answer.

    A second, independent oracle (series-parallel factoring instead of
    world enumeration), checked after every single insertion rather
    than only once the whole edge set is in.  ``check_invariants``
    first holds the tree's incrementally maintained probe aggregates to
    ``reachability_to_query`` and ``expected_flow``; factoring then
    checks those, so each insertion's incremental update meets the
    exact answer.
    """
    ftree = FTree(graph, 0, sampler=_exact_sampler())
    inserted: List[Edge] = []
    for edge in _connected_insertion_order(graph, 0):
        ftree.insert_edge(edge.u, edge.v)
        inserted.append(edge)
        ftree.check_invariants()
        reach = ftree.reachability_to_query()
        assert set(reach) == {0} | {vertex for e in inserted for vertex in e.endpoints()}
        flow = 0.0
        for vertex, probability in reach.items():
            exact = two_terminal_reliability(graph, 0, vertex, edges=inserted)
            assert probability == pytest.approx(exact, abs=1e-9), vertex
            flow += 0.0 if vertex == 0 else exact * graph.weight(vertex)
        assert ftree.expected_flow() == pytest.approx(flow, abs=1e-9)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs())
def test_builder_ftree_flow_equals_exact_enumeration(graph):
    order = _connected_insertion_order(graph, 0)
    built = build_ftree(graph, order, 0, sampler=_exact_sampler())
    built.check_invariants()
    exact = exact_expected_flow(graph, 0, edges=order).expected_flow
    assert built.expected_flow() == pytest.approx(exact, abs=1e-9)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs())
def test_incremental_and_builder_produce_same_bi_components(graph):
    order = _connected_insertion_order(graph, 0)
    incremental = FTree(graph, 0, sampler=_exact_sampler())
    for edge in order:
        incremental.insert_edge(edge.u, edge.v)
    built = build_ftree(graph, order, 0, sampler=_exact_sampler())

    def bi_partition(ftree: FTree):
        return {
            frozenset(component.edges())
            for component in ftree.components()
            if not component.is_mono
        }

    assert bi_partition(incremental) == bi_partition(built)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs())
def test_flow_is_monotone_in_the_edge_set(graph):
    """Adding an edge never decreases the expected flow (the basis of greedy growth)."""
    order = _connected_insertion_order(graph, 0)
    ftree = FTree(graph, 0, sampler=_exact_sampler())
    previous_flow = 0.0
    for edge in order:
        ftree.insert_edge(edge.u, edge.v)
        flow = ftree.expected_flow()
        assert flow >= previous_flow - 1e-9
        previous_flow = flow


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs())
def test_reachability_probabilities_are_valid(graph):
    order = _connected_insertion_order(graph, 0)
    ftree = FTree(graph, 0, sampler=_exact_sampler())
    for edge in order:
        ftree.insert_edge(edge.u, edge.v)
    reach = ftree.reachability_to_query()
    for probability in reach.values():
        assert -1e-12 <= probability <= 1.0 + 1e-12
    assert set(reach) == connected_component(graph, 0, edges=order)


# ----------------------------------------------------------------------
# decomposition properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs())
def test_biconnected_components_partition_the_edges(graph):
    components = biconnected_edge_components(graph)
    all_edges = [edge for component in components for edge in component]
    assert len(all_edges) == len(set(all_edges)) == graph.n_edges


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs())
def test_forest_detection_matches_cycle_existence(graph):
    """Theorem 2's path products refuse exactly the query components that have a cycle."""
    component = connected_component(graph, 0)
    has_cycle = any(
        len(block) > 1 and next(iter(block)).u in component
        for block in biconnected_edge_components(graph)
    )
    if has_cycle:
        with pytest.raises(GraphError):
            mono_connected_reachability(graph, 0)
    else:
        assert set(mono_connected_reachability(graph, 0)) == set(graph.vertices())


# ----------------------------------------------------------------------
# flow interval / estimator properties
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs())
def test_flow_interval_is_exact_flow_under_exact_evaluation(graph):
    """With every component evaluated exactly the interval has zero width at the exact flow."""
    order = _connected_insertion_order(graph, 0)
    ftree = FTree(graph, 0, sampler=_exact_sampler())
    for edge in order:
        ftree.insert_edge(edge.u, edge.v)
    lower, upper = ftree.flow_interval()
    exact = exact_expected_flow(graph, 0, edges=order).expected_flow
    assert lower == pytest.approx(exact, abs=1e-9)
    assert upper == pytest.approx(exact, abs=1e-9)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs())
def test_flow_interval_brackets_the_sampled_flow(graph):
    """With every bi component sampled, the interval brackets the F-tree's own estimate."""
    order = _connected_insertion_order(graph, 0)
    sampler = ComponentSampler(n_samples=64, exact_threshold=0, seed=7)
    ftree = FTree(graph, 0, sampler=sampler)
    for edge in order:
        ftree.insert_edge(edge.u, edge.v)
    lower, upper = ftree.flow_interval()
    flow = ftree.expected_flow()
    assert 0.0 <= lower + 1e-9
    assert lower <= flow + 1e-9
    assert flow <= upper + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=500), st.data())
def test_confidence_intervals_contain_the_point_estimate(n, data):
    successes = data.draw(st.integers(min_value=0, max_value=n))
    for builder in (normal_confidence_interval, wilson_confidence_interval):
        interval = builder(successes, n, alpha=0.05)
        assert 0.0 <= interval.lower <= interval.upper <= 1.0
        assert interval.lower - 1e-12 <= successes / n <= interval.upper + 1e-12


# ----------------------------------------------------------------------
# supporting data structures
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40))
def test_union_find_matches_naive_connectivity(pairs: List[Tuple[int, int]]):
    uf = UnionFind(range(16))
    adjacency = {v: set() for v in range(16)}
    for a, b in pairs:
        uf.union(a, b)
        adjacency[a].add(b)
        adjacency[b].add(a)

    def naive_connected(start, goal):
        seen, stack = {start}, [start]
        while stack:
            current = stack.pop()
            if current == goal:
                return True
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return start == goal

    for a in range(0, 16, 5):
        for b in range(0, 16, 3):
            assert uf.connected(a, b) == naive_connected(a, b)


@settings(max_examples=100, deadline=None)
@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_edge_canonicalisation_is_symmetric(u, v):
    if u == v:
        with pytest.raises(ValueError):
            Edge(u, v)
    else:
        assert Edge(u, v) == Edge(v, u)
        assert hash(Edge(u, v)) == hash(Edge(v, u))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs())
def test_world_probabilities_sum_to_one(graph):
    from repro.graph.possible_world import enumerate_worlds

    total = sum(probability for _, probability in enumerate_worlds(graph))
    assert math.isclose(total, 1.0, rel_tol=1e-9)
