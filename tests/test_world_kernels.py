"""Oracle tests for the world-matrix kernels of the engine and the csr backend.

* ``_pack_rows`` must equal ``np.packbits(matrix, axis=0)`` byte for byte,
  for any row count, column count and memory layout.
* ``_world_totals`` must equal the literal whole-matrix expressions
  ``reached.astype(np.float64) @ weights`` and ``reached.sum(axis=0)``
  bit for bit, and ``aggregate_expected_flow`` must equal the
  aggregation written with them.  The weights are non-integer: integer
  weights sum exactly in any order and would hide a changed summation.
* Every site that routes through ``_world_totals`` (candidate scoring,
  ``WorldBatch.hit_counts``) must give what the
  literal expressions gave.
* Aggregating an 8192 x 2000 batch must not allocate its float64 copy.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.graph.uncertain_graph import UncertainGraph
from repro.reachability.backends.csr import _pack_rows
from repro.reachability.context import EvaluationContext
from repro.reachability.engine import (
    SamplingEngine,
    WorldBatch,
    _world_totals,
    aggregate_expected_flow,
    flow_weight_vector,
)
from repro.reachability.estimators import FlowEstimate
from repro.reachability.layout import graph_layout
from repro.rng import ensure_rng

SAMPLE_COUNTS = [1, 3, 63, 64, 65, 66, 67, 1000, 8192]


def random_bits(seed: int, n_rows: int, n_cols: int, density: float = 0.5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n_rows, n_cols)) < density


# ----------------------------------------------------------------------
# _pack_rows
# ----------------------------------------------------------------------
def assert_packs_like_packbits(matrix: np.ndarray) -> None:
    packed = _pack_rows(matrix)
    expected = np.packbits(matrix, axis=0)
    assert packed.dtype == np.uint8
    assert packed.shape == expected.shape
    assert np.array_equal(packed, expected)


@settings(max_examples=120, deadline=None)
@given(
    n_rows=st.one_of(st.integers(0, 70), st.just(1000)),
    n_cols=st.one_of(st.sampled_from([0, 1]), st.integers(2, 60)),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pack_rows_equals_packbits(n_rows, n_cols, density, seed):
    assert_packs_like_packbits(random_bits(seed, n_rows, n_cols, density))


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.one_of(st.integers(0, 70), st.just(1000)),
    n_cols=st.integers(3, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_pack_rows_equals_packbits_on_non_contiguous_inputs(n_rows, n_cols, seed):
    flips = random_bits(seed, n_rows, n_cols)
    subset = np.random.default_rng(seed).permutation(n_cols)[: n_cols // 2 + 1]
    assert_packs_like_packbits(flips[:, subset])
    assert_packs_like_packbits(flips[:, ::2])
    assert_packs_like_packbits(flips[::3])
    assert_packs_like_packbits(np.asfortranarray(flips))
    assert_packs_like_packbits(flips.T)


# ----------------------------------------------------------------------
# _world_totals and aggregate_expected_flow
# ----------------------------------------------------------------------
def weighted_problem(n_connected: int, n_isolated: int, seed: int):
    """A path graph with non-integer weights plus isolated (never reached) vertices."""
    rng = np.random.default_rng(seed)
    graph = UncertainGraph()
    for vertex in range(n_connected + n_isolated):
        graph.add_vertex(vertex, weight=float(rng.uniform(0.0, 10.0)))
    for vertex in range(n_connected - 1):
        graph.add_edge(vertex, vertex + 1, 0.5)
    isolated = list(range(n_connected, n_connected + n_isolated))
    problem = graph_layout(graph, None).problem(0, isolated)
    return graph, problem, [problem.index_of(v) for v in isolated]


def random_worlds(problem, unreached, n_samples: int, seed: int, order: str) -> np.ndarray:
    """Random reachability rows: the source always reached, ``unreached`` never."""
    reached = random_bits(seed, n_samples, problem.n_vertices, density=0.6)
    reached[:, problem.source] = True
    reached[:, unreached] = False
    return np.asarray(reached, order=order)


def literal_aggregate(graph, batch, include_query) -> FlowEstimate:
    """The aggregation as written before block aggregation: whole-matrix products."""
    problem, reached = batch.problem, batch.reached
    n_samples = batch.n_samples
    weight_vector = flow_weight_vector(graph, problem, include_query)
    flow_samples = reached.astype(np.float64) @ weight_vector
    hit_counts = reached.sum(axis=0)
    reachability = {
        vertex: int(count) / n_samples
        for index, (vertex, count) in enumerate(zip(problem.vertex_ids, hit_counts))
        if count and (include_query or index != problem.source)
    }
    variance = float(flow_samples.var(ddof=1)) if n_samples > 1 else 0.0
    return FlowEstimate(
        expected_flow=float(flow_samples.mean()),
        reachability=reachability,
        n_samples=n_samples,
        variance=variance,
        include_query=include_query,
    )


def hexes(values) -> list:
    return [float(value).hex() for value in values]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n_samples", SAMPLE_COUNTS)
@settings(max_examples=6, deadline=None)
@given(
    # wide matrices get 64-row blocks, narrow ones several 64-row groups
    n_connected=st.one_of(st.integers(1, 150), st.integers(513, 700)),
    n_isolated=st.sampled_from([0, 1, 9]),
    include_query=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_aggregation_equals_whole_matrix_products(
    order, n_samples, n_connected, n_isolated, include_query, seed
):
    graph, problem, unreached = weighted_problem(n_connected, n_isolated, seed)
    reached = random_worlds(problem, unreached, n_samples, seed, order)
    weights = flow_weight_vector(graph, problem, include_query)

    flows, counts = _world_totals(reached, weights)
    assert hexes(flows) == hexes(reached.astype(np.float64) @ weights)
    assert counts.dtype == np.int64
    assert counts.tolist() == reached.sum(axis=0).tolist()

    batch = WorldBatch(problem=problem, reached=reached)
    estimate = aggregate_expected_flow(graph, batch, include_query=include_query)
    expected = literal_aggregate(graph, batch, include_query)
    assert estimate.expected_flow.hex() == expected.expected_flow.hex()
    assert estimate.variance.hex() == expected.variance.hex()
    assert estimate.reachability == expected.reachability
    assert estimate.n_samples == expected.n_samples


def test_world_totals_skips_what_it_is_not_asked_for():
    reached = random_bits(5, 100, 7)
    assert _world_totals(reached)[0] is None
    flows, counts = _world_totals(reached, np.ones(7), with_counts=False)
    assert counts is None and flows.shape == (100,)
    empty_flows, empty_counts = _world_totals(np.zeros((0, 4), dtype=bool), np.ones(4))
    assert empty_flows.shape == (0,) and empty_counts.tolist() == [0, 0, 0, 0]


def blocked_flows(reached: np.ndarray, weights: np.ndarray, rows: int) -> np.ndarray:
    return np.concatenate(
        [
            reached[start : start + rows].astype(np.float64) @ weights
            for start in range(0, reached.shape[0], rows)
        ]
    )


def test_only_multiple_of_64_row_blocks_reproduce_the_whole_product():
    """Why 64: blocks of 7 or 1023 rows move rows onto another gemv kernel path.

    A row in a block whose length is not a multiple of the BLAS row-group
    width lands in the remainder kernel, which sums in another order, and
    its flow changes in the last bits.  64-row blocks leave every row
    where the whole-matrix product puts it.
    """
    rng = np.random.default_rng(2024)
    weights = rng.uniform(0.0, 10.0, size=300)
    reached = random_bits(7, 1024, 300)
    whole = reached.astype(np.float64) @ weights
    assert np.array_equal(blocked_flows(reached, weights, 64), whole)
    assert np.array_equal(_world_totals(reached, weights)[0], whole)
    moved = [
        rows
        for rows in (7, 1023)
        if not np.array_equal(blocked_flows(reached, weights, rows), whole)
    ]
    if not moved:
        pytest.skip("this BLAS sums every gemv row in one order; nothing to pin")
    assert moved == [7, 1023]


# ----------------------------------------------------------------------
# the sites that route through _world_totals
# ----------------------------------------------------------------------
def cyclic_graph(seed: int) -> UncertainGraph:
    """A small graph with non-integer weights and plenty of cycles."""
    rng = np.random.default_rng(seed)
    graph = UncertainGraph()
    for vertex in range(30):
        graph.add_vertex(vertex, weight=float(rng.uniform(0.0, 10.0)))
    for u in range(30):
        for v in range(u + 1, 30):
            if rng.random() < 0.15:
                graph.add_edge(u, v, float(rng.uniform(0.1, 0.9)))
    return graph


@pytest.mark.parametrize("backend", ["naive", "csr"])
@pytest.mark.parametrize("include_query", [False, True])
def test_candidate_scores_equal_the_literal_flow_products(backend, include_query):
    graph = cyclic_graph(3)
    edges = sorted(graph.edges())
    base, candidates = edges[:12], edges[12:40]
    context = EvaluationContext(graph, 0, n_samples=777, seed=11, include_query=include_query)
    with repro.session(backend=backend):
        scores = context.score_candidates(base, candidates)
    assert scores.delta_evaluations > 0

    engine = SamplingEngine(backend)
    batch = engine.sample_flips(graph, 0, 777, seed=ensure_rng(11), edges=base + candidates)
    problem, flips = batch.problem, batch.flips
    weights = flow_weight_vector(graph, problem, include_query)
    base_indices = np.arange(len(base))
    base_reached = engine.propagate(problem, flips, base_indices)
    base_worlds = base_reached.astype(np.float64) @ weights
    assert scores.base_flow.hex() == float(base_worlds.mean()).hex()
    touched = {problem.source}
    touched.update(problem.edge_u[base_indices].tolist(), problem.edge_v[base_indices].tolist())
    for position in range(len(candidates)):
        edge_index = len(base) + position
        u, v = int(problem.edge_u[edge_index]), int(problem.edge_v[edge_index])
        if (u in touched) != (v in touched):
            # the attach shortcut: one new column added onto the base flows
            anchor, new_vertex = (u, v) if u in touched else (v, u)
            gained = flips[:, edge_index] & base_reached[:, anchor]
            expected = (base_worlds + weights[new_vertex] * gained).mean()
        else:
            reached = engine.propagate(
                problem, flips, np.append(base_indices, edge_index), base_reached=base_reached
            )
            expected = (reached.astype(np.float64) @ weights).mean()
        assert scores.scores[position].hex() == float(expected).hex()


def test_hit_counts_equal_the_literal_column_sums():
    graph, problem, unreached = weighted_problem(40, 9, seed=4)
    reached = random_worlds(problem, unreached, 1000, seed=4, order="C")
    batch = WorldBatch(problem=problem, reached=reached)
    vertices = [3, 0, 45, 17, "absent", 3]
    columns = [problem.index_of(v) for v in (3, 0, 45, 17)]
    expected = reached[:, columns].sum(axis=0).tolist()
    counts = batch.hit_counts(vertices)
    assert counts.dtype == np.int64
    assert counts.tolist() == expected[:4] + [0, expected[0]]


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
@pytest.mark.parametrize("order", ["C", "F"])
def test_aggregation_does_not_copy_the_batch_to_float64(order):
    n_samples, n_vertices = 8192, 2000
    graph, problem, _ = weighted_problem(n_vertices, 0, seed=6)
    rng = np.random.default_rng(6)
    reached = np.asarray(
        rng.integers(0, 2, size=(n_samples, n_vertices), dtype=np.uint8).view(bool),
        order=order,
    )
    batch = WorldBatch(problem=problem, reached=reached)
    tracemalloc.start()
    try:
        aggregate_expected_flow(graph, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * n_samples * n_vertices * 8
