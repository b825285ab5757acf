"""Property-based cross-backend tests for the possible-world sampling engine.

The csr backend is pinned against two references on random small
graphs from :mod:`repro.graph.generators`:

* the naive (per-world BFS) backend — *bit-for-bit* for the same seed,
  because both backends share one random-stream contract and the engine
  aggregates their identical world batches identically;
* :func:`repro.graph.possible_world.enumerate_worlds` ground truth (via
  the exact estimators) — within a CLT tolerance, because a Monte-Carlo
  average over ``n`` worlds deviates from the true expectation by a few
  standard errors at most.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.generators import erdos_renyi_graph
from repro.reachability.backends import BACKEND_NAMES, make_backend
from repro.reachability.backends.csr import CSRSamplingBackend, numba_unavailable_reason
from repro.reachability.engine import SamplingEngine
from repro.reachability.exact import (
    exact_expected_flow,
    exact_reachability,
    exact_reachability_all,
)

#: Shared hypothesis settings: deterministic examples, no deadline (the
#: CLT comparisons enumerate up to 2^10 possible worlds per example).
PROPERTY_SETTINGS = dict(max_examples=20, deadline=None, derandomize=True)

#: Sigma multiplier for CLT tolerances; 6 standard errors plus a small
#: absolute floor keeps the statistical assertions flake-free while still
#: catching any systematic bias.
SIGMA = 6.0
FLOOR = 0.05

small_graphs = st.builds(
    erdos_renyi_graph,
    n_vertices=st.integers(min_value=3, max_value=8),
    average_degree=st.floats(min_value=1.0, max_value=2.5),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _query(graph):
    """A deterministic query vertex: vertex 0 always exists in generators."""
    return 0


# ----------------------------------------------------------------------
# backend-vs-backend: exact agreement for the same seed
# ----------------------------------------------------------------------
@settings(**PROPERTY_SETTINGS)
@given(graph=small_graphs, seed=st.integers(min_value=0, max_value=10_000))
def test_flow_estimates_bitwise_equal_across_backends(graph, seed):
    naive = SamplingEngine("naive").expected_flow(graph, _query(graph), n_samples=64, seed=seed)
    fast = SamplingEngine("csr").expected_flow(graph, _query(graph), n_samples=64, seed=seed)
    assert naive.expected_flow == fast.expected_flow
    assert naive.reachability == fast.reachability
    assert naive.variance == fast.variance
    assert naive.n_samples == fast.n_samples


@settings(**PROPERTY_SETTINGS)
@given(graph=small_graphs, seed=st.integers(min_value=0, max_value=10_000))
def test_world_batches_identical_across_backends(graph, seed):
    """The per-world reachability matrices themselves must match exactly."""
    batches = [
        SamplingEngine(name).sample_worlds(graph, _query(graph), n_samples=32, seed=seed)
        for name in BACKEND_NAMES
    ]
    reference = batches[0]
    for batch in batches[1:]:
        assert batch.problem.vertex_ids == reference.problem.vertex_ids
        assert np.array_equal(batch.reached, reference.reached)


@settings(**PROPERTY_SETTINGS)
@given(
    graph=small_graphs,
    seed=st.integers(min_value=0, max_value=10_000),
    keep=st.integers(min_value=0, max_value=100),
)
def test_restricted_edge_sets_agree_across_backends(graph, seed, keep):
    """Candidate-subgraph restriction (the selection hot path) stays pinned."""
    edges = graph.edge_list()[: keep % (graph.n_edges + 1)]
    naive = SamplingEngine("naive").expected_flow(
        graph, _query(graph), n_samples=48, seed=seed, edges=edges
    )
    fast = SamplingEngine("csr").expected_flow(
        graph, _query(graph), n_samples=48, seed=seed, edges=edges
    )
    assert naive.expected_flow == fast.expected_flow
    assert naive.reachability == fast.reachability


@settings(**PROPERTY_SETTINGS)
@given(graph=small_graphs, seed_a=st.integers(0, 10_000), seed_b=st.integers(0, 10_000))
def test_backends_agree_within_clt_for_independent_seeds(graph, seed_a, seed_b):
    """Two independent streams must still estimate the same quantity."""
    naive = SamplingEngine("naive").expected_flow(
        graph, _query(graph), n_samples=1200, seed=seed_a
    )
    fast = SamplingEngine("csr").expected_flow(graph, _query(graph), n_samples=1200, seed=seed_b)
    tolerance = SIGMA * ((naive.standard_error or 0.0) + (fast.standard_error or 0.0)) + FLOOR
    assert naive.expected_flow == pytest.approx(fast.expected_flow, abs=tolerance)


# ----------------------------------------------------------------------
# backend-vs-enumeration: CLT agreement with exact ground truth
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKEND_NAMES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(graph=small_graphs, seed=st.integers(min_value=0, max_value=10_000))
def test_expected_flow_matches_enumeration(backend, graph, seed):
    exact = exact_expected_flow(graph, _query(graph)).expected_flow
    estimate = SamplingEngine(backend).expected_flow(
        graph, _query(graph), n_samples=1500, seed=seed
    )
    tolerance = SIGMA * (estimate.standard_error or 0.0) + FLOOR
    assert estimate.expected_flow == pytest.approx(exact, abs=tolerance)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(graph=small_graphs, seed=st.integers(min_value=0, max_value=10_000))
def test_pair_reachability_matches_enumeration(backend, graph, seed):
    target = graph.n_vertices - 1
    exact = exact_reachability(graph, _query(graph), target).probability
    estimate = SamplingEngine(backend).pair_reachability(
        graph, _query(graph), target, n_samples=1500, seed=seed
    )
    standard_error = (exact * (1.0 - exact) / estimate.n_samples) ** 0.5
    assert estimate.probability == pytest.approx(exact, abs=SIGMA * standard_error + FLOOR)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(graph=small_graphs, seed=st.integers(min_value=0, max_value=10_000))
def test_component_reachability_matches_enumeration(backend, graph, seed):
    anchor = _query(graph)
    vertices = list(graph.vertices())
    estimate = SamplingEngine(backend).component_reachability(
        graph, anchor, vertices, graph.edge_list(), n_samples=1500, seed=seed
    )
    exact = exact_reachability_all(graph, anchor)
    for vertex, probability in estimate.items():
        truth = exact.get(vertex, 0.0)
        standard_error = (truth * (1.0 - truth) / 1500) ** 0.5
        assert probability == pytest.approx(truth, abs=SIGMA * standard_error + FLOOR)


# ----------------------------------------------------------------------
# csr backend: the propagate primitive (including the CRN incremental
# path via base_reached) is pinned bit-for-bit against the naive BFS
# ----------------------------------------------------------------------
NUMBA_REASON = numba_unavailable_reason()


def _csr_propagate_against_naive(csr_backend, graph, seed, split):
    """Shared body: closure + incremental closure must equal the BFS reference."""
    batch = SamplingEngine("naive").sample_flips(graph, _query(graph), 32, seed=seed)
    problem, flips = batch.problem, batch.flips
    naive = make_backend("naive")
    n_edges = problem.n_edges
    base_indices = np.arange(split % (n_edges + 1))
    base_naive = naive.propagate_reachability(problem, flips, base_indices)
    base_csr = csr_backend.propagate_reachability(problem, flips, base_indices)
    assert np.array_equal(base_naive, base_csr)

    all_edges = np.arange(n_edges)
    incremental_naive = naive.propagate_reachability(
        problem, flips, all_edges, base_reached=base_naive
    )
    incremental_csr = csr_backend.propagate_reachability(
        problem, flips, all_edges, base_reached=base_csr
    )
    assert np.array_equal(incremental_naive, incremental_csr)
    # the incremental answer equals the from-scratch closure (monotonicity)
    assert np.array_equal(
        incremental_csr, csr_backend.propagate_reachability(problem, flips, all_edges)
    )


@settings(**PROPERTY_SETTINGS)
@given(
    graph=small_graphs,
    seed=st.integers(min_value=0, max_value=10_000),
    split=st.integers(min_value=0, max_value=100),
)
def test_csr_numpy_propagate_matches_naive_including_base_reached(graph, seed, split):
    _csr_propagate_against_naive(CSRSamplingBackend(use_numba=False), graph, seed, split)


@pytest.mark.skipif(NUMBA_REASON is not None, reason=NUMBA_REASON or "numba available")
@settings(**PROPERTY_SETTINGS)
@given(
    graph=small_graphs,
    seed=st.integers(min_value=0, max_value=10_000),
    split=st.integers(min_value=0, max_value=100),
)
def test_csr_numba_propagate_matches_naive_including_base_reached(graph, seed, split):
    backend = CSRSamplingBackend(use_numba=True)
    assert backend.numba_active
    _csr_propagate_against_naive(backend, graph, seed, split)


@pytest.mark.skipif(NUMBA_REASON is None, reason="numba is importable here")
def test_forcing_the_numba_kernel_without_numba_raises():
    with pytest.raises(RuntimeError, match="numba"):
        CSRSamplingBackend(use_numba=True)


# ----------------------------------------------------------------------
# per-world sanity: the reachability matrix is a valid BFS closure
# ----------------------------------------------------------------------
@settings(**PROPERTY_SETTINGS)
@given(graph=small_graphs, seed=st.integers(min_value=0, max_value=10_000))
def test_reached_matrix_source_column_and_bounds(graph, seed):
    batch = SamplingEngine("csr").sample_worlds(graph, _query(graph), 16, seed=seed)
    assert batch.reached.dtype == np.bool_
    assert batch.reached.shape == (16, batch.problem.n_vertices)
    assert batch.reached[:, batch.problem.source].all()
