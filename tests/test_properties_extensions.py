"""Property-based tests for the extension modules (factoring, exact flow, knapsack)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.uncertain_graph import UncertainGraph
from repro.reachability.exact import exact_expected_flow, exact_reachability
from repro.reachability.factoring import two_terminal_reliability
from repro.complexity import (
    KnapsackInstance,
    solve_knapsack_dynamic_programming,
    solve_knapsack_via_maxflow,
)


@st.composite
def uncertain_graphs(draw) -> UncertainGraph:
    n_vertices = draw(st.integers(min_value=2, max_value=7))
    graph = UncertainGraph()
    for vertex in range(n_vertices):
        graph.add_vertex(vertex, weight=draw(st.sampled_from([0.5, 1.0, 2.0])))
    possible = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)]
    n_edges = draw(st.integers(min_value=1, max_value=min(10, len(possible))))
    chosen = draw(
        st.lists(st.sampled_from(possible), min_size=n_edges, max_size=n_edges, unique=True)
    )
    for u, v in chosen:
        graph.add_edge(u, v, draw(st.floats(min_value=0.05, max_value=1.0)))
    return graph


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs(), st.integers(min_value=1, max_value=6))
def test_factoring_matches_enumeration(graph, target):
    """Contraction/deletion reliability equals brute-force possible-world enumeration."""
    if not graph.has_vertex(target):
        target = 1
    expected = exact_reachability(graph, 0, target).probability
    assert two_terminal_reliability(graph, 0, target) == pytest.approx(expected, abs=1e-9)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs(), st.floats(min_value=0.1, max_value=1.0))
def test_scaling_probabilities_down_never_increases_flow(graph, factor):
    """Lowering every edge probability can only lower the expected flow."""
    scaled = graph.copy()
    for edge in scaled.edges():
        scaled.set_probability(edge.u, edge.v, graph.probability(edge) * factor)
    original = exact_expected_flow(graph, 0).expected_flow
    reduced = exact_expected_flow(scaled, 0).expected_flow
    assert reduced <= original + 1e-9


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs())
def test_uniform_weight_flow_equals_expected_reached_count(graph):
    """With unit weights the expected flow equals the expected number of reached vertices."""
    uniform = graph.copy()
    for vertex in uniform.vertices():
        uniform.set_weight(vertex, 1.0)
    flow = exact_expected_flow(uniform, 0).expected_flow
    reach = exact_expected_flow(uniform, 0).reachability
    assert flow == pytest.approx(sum(reach.values()))
    assert 0.0 <= flow <= graph.n_vertices - 1


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(uncertain_graphs())
def test_normalize_weights_preserves_reachability(graph):
    """Normalising weights rescales the flow but never the reachability probabilities."""
    normalized = graph.copy()
    for vertex in normalized.vertices():
        normalized.set_weight(vertex, graph.weight(vertex) / graph.total_weight())
    original = exact_expected_flow(graph, 0).reachability
    rescaled = exact_expected_flow(normalized, 0).reachability
    for vertex, probability in original.items():
        assert rescaled[vertex] == pytest.approx(probability)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=9)),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=8),
)
def test_knapsack_reduction_matches_dynamic_programming(raw_items, capacity):
    """Solving the MaxFlow gadget always yields the optimal knapsack value."""
    items = [(f"item{i}", weight, float(value)) for i, (weight, value) in enumerate(raw_items)]
    total_weight = sum(weight for _, weight, _ in items)
    if total_weight > 12:  # keep the exhaustive edge-subset search tiny
        items = items[:2]
    instance = KnapsackInstance.from_tuples(items, capacity)
    _, via_maxflow = solve_knapsack_via_maxflow(instance)
    _, via_dp = solve_knapsack_dynamic_programming(instance)
    assert via_maxflow == pytest.approx(via_dp)
