"""The possible-world sampling engine (single entry point for Lemma 1).

Every Monte-Carlo estimator in the library — whole-graph expected flow,
two-terminal reachability, and the F-tree's per-component reachability —
is the same computation wearing different aggregation: draw ``n``
possible worlds, mark which vertices each world connects to a source,
and average.  The engine factors that shared core out:

1. :func:`repro.reachability.layout.graph_layout` maps the (restricted)
   edge set to contiguous integer ids **once per content** — the
   content-keyed :class:`~repro.reachability.layout.LayoutCache` shares
   the interned :class:`~repro.reachability.layout.GraphLayout` across
   calls, engines and threads, and
   :meth:`~repro.reachability.layout.GraphLayout.problem` materializes
   the per-call :class:`~repro.reachability.backends.base.SamplingProblem`
   view (plus any extra vertices) in O(1);
2. a pluggable :class:`~repro.reachability.backends.base.SamplingBackend`
   produces the boolean ``(n_samples, n_vertices)`` reachability matrix
   (see :mod:`repro.reachability.backends` for the registry);
3. the engine aggregates that matrix into :class:`FlowEstimate`,
   :class:`ReachabilityEstimate` or per-vertex probability dicts.

Because the aggregation is shared and all built-in backends consume the
random stream in the same order, estimates are bit-for-bit identical
across backends for the same seed — the property the cross-backend test
harness pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import VertexNotFoundError
from repro.graph.uncertain_graph import UncertainGraph
from repro.parallel.executor import SamplingExecutor, ShardTask, get_default_executor
from repro.parallel.plan import check_sample_count, get_default_shard_size, plan_shards
from repro.reachability.backends import BackendLike, make_backend
from repro.reachability.backends.base import (
    SamplingBackend,
    SamplingProblem,
    sample_flips,
)
from repro.reachability.layout import graph_layout
from repro.reachability.estimators import FlowEstimate, ReachabilityEstimate
from repro.rng import SeedLike, ensure_rng, split_seed_sequences
from repro.telemetry import current_telemetry
from repro.types import Edge, VertexId

#: Aggregation blocks hold a multiple of this many world rows.  64 is a
#: multiple of every BLAS gemv row-group width, so each row of a block
#: takes the kernel path it takes in the product over the whole matrix.
_BLOCK_ROWS = 64

#: Matrix entries per aggregation block: narrow matrices get several
#: 64-row groups per block, so per-block overhead stays small, and the
#: float64 copy of a block stays within a few hundred KB.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True, eq=False)
class WorldBatch:
    """The result of one engine run: an indexed problem plus its worlds.

    Attributes
    ----------
    problem:
        The indexed sampling problem the batch was drawn for.
    reached:
        Boolean matrix of shape ``(n_samples, n_vertices)``; entry
        ``[s, v]`` is True iff indexed vertex ``v`` is connected to the
        source in world ``s``.
    """

    problem: SamplingProblem
    reached: np.ndarray

    @property
    def n_samples(self) -> int:
        """Number of sampled worlds in the batch."""
        return int(self.reached.shape[0])

    def hit_frequency(self, vertex: VertexId) -> float:
        """Return the fraction of worlds in which ``vertex`` was reached.

        Vertices outside the indexed problem were never reached (they are
        not incident to any sampled edge), so they report 0.0.
        """
        try:
            index = self.problem.index_of(vertex)
        except KeyError:
            return 0.0
        return float(self.reached[:, index].sum()) / self.n_samples

    def hit_counts(self, vertices: Iterable[VertexId]) -> np.ndarray:
        """Return the number of worlds in which each listed vertex was reached.

        One vectorized column gather instead of a Python loop; vertices
        outside the indexed problem were never reached (they are not
        incident to any sampled edge) and report 0.  The ``int64``
        result aligns with the input order.
        """
        vertices = list(vertices)
        counts = np.zeros(len(vertices), dtype=np.int64)
        positions: List[int] = []
        columns: List[int] = []
        for position, vertex in enumerate(vertices):
            try:
                columns.append(self.problem.index_of(vertex))
            except KeyError:
                continue
            positions.append(position)
        if positions:
            counts[positions] = _world_totals(self.reached[:, columns])[1]
        return counts

    def hit_frequencies(self, vertices: Iterable[VertexId]) -> np.ndarray:
        """Return the hit frequency of every listed vertex as one array.

        The bulk counterpart of :meth:`hit_frequency`: one
        :meth:`hit_counts` column gather divided by the sample count.
        Vertices outside the indexed problem report 0.0; the result
        aligns with the input order.
        """
        return self.hit_counts(vertices) / self.n_samples


@dataclass(frozen=True, eq=False)
class FlipBatch:
    """An indexed problem plus one shared edge-flip (survival) matrix.

    Unlike :class:`WorldBatch` this holds the *raw worlds* — which edges
    survived in each sample — before any reachability propagation, so
    one batch can be re-propagated for many different active edge
    subsets (the common-random-numbers candidate scoring of
    :mod:`repro.reachability.context`).

    Attributes
    ----------
    problem:
        The indexed sampling problem the flips were drawn for.
    flips:
        Boolean matrix of shape ``(n_samples, n_edges)``; entry
        ``[s, e]`` is True iff indexed edge ``e`` survived in world ``s``.
    """

    problem: SamplingProblem
    flips: np.ndarray

    @property
    def n_samples(self) -> int:
        """Number of sampled worlds in the batch."""
        return int(self.flips.shape[0])


class SamplingEngine:
    """Batched possible-world sampler with a pluggable backend.

    Parameters
    ----------
    backend:
        A backend name from :data:`repro.reachability.backends.BACKEND_NAMES`
        or an already constructed backend instance pins the backend;
        ``None`` follows the session active at each call (the library
        default :data:`repro.reachability.backends.DEFAULT_BACKEND`
        without one).

    The executor and the shard size always come from the session active
    at each call (see :mod:`repro.parallel`): without a session that pins
    workers, sampling is the unsharded single stream.  With an executor,
    results are a pure function of ``(seed, n_samples, shard_size)`` and
    never of the worker count.
    """

    def __init__(self, backend: BackendLike = None) -> None:
        self._backend: Optional[SamplingBackend] = (
            None if backend is None else make_backend(backend)
        )

    @property
    def backend(self) -> SamplingBackend:
        """The pinned backend, else the one the active session names."""
        return self._backend if self._backend is not None else make_backend(None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SamplingEngine backend={self.backend.name!r}>"

    # ------------------------------------------------------------------
    # core: draw a batch of worlds
    # ------------------------------------------------------------------
    def sample_worlds(
        self,
        graph: UncertainGraph,
        source: VertexId,
        n_samples: int,
        seed: SeedLike = None,
        edges: Optional[Iterable[Edge]] = None,
        extra_vertices: Iterable[VertexId] = (),
    ) -> WorldBatch:
        """Draw ``n_samples`` worlds and compute reachability from ``source``.

        Parameters
        ----------
        graph:
            The uncertain graph supplying edge probabilities.
        source:
            The vertex reachability is measured from.
        n_samples:
            Number of independent possible worlds.
        seed:
            Seed or generator; the stream contract (world-major edge
            flips) makes the batch identical across built-in backends.
        edges:
            Optional restriction to a subset of edges (the candidate
            subgraph of the selection algorithms).
        extra_vertices:
            Vertices to index even when no restricted edge touches them
            (e.g. the isolated targets of a component estimate).

        When the active session names an executor, the batch is drawn
        shard by shard from per-shard child seeds — a different (equally
        valid) stream than the unsharded path, but bit-for-bit identical
        for any worker count given ``(seed, n_samples, shard_size)``.
        """
        check_sample_count(n_samples)
        problem = graph_layout(graph, edges).problem(source, extra_vertices)
        backend = self.backend
        active = get_default_executor()
        tel = current_telemetry()
        with tel.span(
            "engine.sample_worlds",
            backend=backend.name,
            n_samples=int(n_samples),
            sharded=active is not None,
        ):
            reached = _draw(problem, n_samples, seed, active, backend)
        tel.count("engine.sample_calls")
        tel.count("engine.worlds_sampled", int(n_samples))
        return WorldBatch(problem=problem, reached=reached)

    # ------------------------------------------------------------------
    # flip-matrix / delta-propagation primitives (CRN candidate scoring)
    # ------------------------------------------------------------------
    def sample_flips(
        self,
        graph: UncertainGraph,
        source: VertexId,
        n_samples: int,
        seed: SeedLike = None,
        edges: Optional[Iterable[Edge]] = None,
        extra_vertices: Iterable[VertexId] = (),
    ) -> FlipBatch:
        """Draw one shared edge-flip matrix without propagating it.

        The flips are produced by the backend-independent
        :func:`~repro.reachability.backends.base.sample_flips` stream
        implementation, so the batch is bit-for-bit identical across
        backends for the same seed — which is what lets the evaluation
        context guarantee identical candidate scores on any backend.
        When the active session names an executor the matrix is drawn
        shard by shard (still backend-independent, still worker-count
        invariant).
        """
        check_sample_count(n_samples)
        problem = graph_layout(graph, edges).problem(source, extra_vertices)
        active = get_default_executor()
        tel = current_telemetry()
        with tel.span(
            "engine.sample_flips",
            n_samples=int(n_samples),
            sharded=active is not None,
        ):
            flips = _draw(problem, n_samples, seed, active, None)
        tel.count("engine.flip_calls")
        tel.count("engine.worlds_sampled", int(n_samples))
        return FlipBatch(problem=problem, flips=flips)

    def propagate(
        self,
        problem: SamplingProblem,
        flips: np.ndarray,
        edge_indices: np.ndarray,
        base_reached: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Closure of a flip matrix over the listed active edges.

        Thin passthrough to the backend's ``propagate_reachability``
        primitive (see :class:`~repro.reachability.backends.base.SamplingBackend`).
        """
        return self.backend.propagate_reachability(
            problem, flips, edge_indices, base_reached=base_reached
        )

    # ------------------------------------------------------------------
    # the estimators: the one public Monte-Carlo surface (budget and
    # seed are call arguments; Session.expected_flow passes through)
    # ------------------------------------------------------------------
    def expected_flow(
        self,
        graph: UncertainGraph,
        query: VertexId,
        n_samples: int = 1000,
        seed: SeedLike = None,
        edges: Optional[Iterable[Edge]] = None,
        include_query: bool = False,
    ) -> FlowEstimate:
        """Monte-Carlo estimate of ``E[flow(Q, G)]`` from ``n_samples`` worlds (Lemma 1)."""
        if not graph.has_vertex(query):
            raise VertexNotFoundError(query)
        batch = self.sample_worlds(graph, query, n_samples, seed=seed, edges=edges)
        return aggregate_expected_flow(graph, batch, include_query=include_query)

    def pair_reachability(
        self,
        graph: UncertainGraph,
        source: VertexId,
        target: VertexId,
        n_samples: int = 1000,
        seed: SeedLike = None,
        edges: Optional[Iterable[Edge]] = None,
    ) -> ReachabilityEstimate:
        """Monte-Carlo estimate of the two-terminal reachability ``P(source ↔ target)``."""
        for vertex in (source, target):
            if not graph.has_vertex(vertex):
                raise VertexNotFoundError(vertex)
        check_sample_count(n_samples)
        if source == target:
            return ReachabilityEstimate(
                probability=1.0, n_samples=int(n_samples), successes=int(n_samples)
            )
        batch = self.sample_worlds(
            graph, source, n_samples, seed=seed, edges=edges, extra_vertices=(target,)
        )
        return aggregate_pair_reachability(batch, target)

    def component_reachability(
        self,
        graph: UncertainGraph,
        anchor: VertexId,
        vertices: Iterable[VertexId],
        edges: Iterable[Edge],
        n_samples: int = 1000,
        seed: SeedLike = None,
    ) -> Dict[VertexId, float]:
        """Estimate ``P(v ↔ anchor)`` for every ``v`` of an edge-induced component."""
        targets: List[VertexId] = [v for v in vertices if v != anchor]
        batch = self.sample_worlds(
            graph,
            anchor,
            n_samples,
            seed=seed,
            edges=list(edges),
            extra_vertices=targets,
        )
        return aggregate_component_reachability(batch, targets)


def _draw(
    problem: SamplingProblem,
    n_samples: int,
    seed: SeedLike,
    active: Optional[SamplingExecutor],
    backend: Optional[SamplingBackend],
) -> np.ndarray:
    """Draw a reachability matrix (``backend``) or a flip matrix (``None``).

    Without an executor: one stream from ``seed``.  With one: the request
    splits into seeded shard tasks reduced in order, deterministic per
    ``(seed, n_samples, shard_size)`` — shard ``i`` runs on the ``i``-th
    spawned child seed and the partial results are copied into the matrix
    in shard order, so worker count and completion order never influence
    the reduction.

    The matrix is allocated before the shards are dispatched rather than
    stacked after they return.  Allocated first, it reuses the heap space
    the previous call's matrix freed; allocated last, it must fit into
    that space after the dispatch's small allocations have or have not
    landed in it, so the peak memory of repeated sharded calls would
    differ by one whole matrix (16 MB at 8192 x 2000) between otherwise
    identical processes.
    """
    n_samples = int(n_samples)
    if active is None:
        rng = ensure_rng(seed)
        if backend is None:
            return sample_flips(problem, n_samples, rng)
        return backend.sample_reachability(problem, n_samples, rng)
    plan = plan_shards(n_samples, get_default_shard_size())
    children = split_seed_sequences(seed, plan.n_shards)
    tasks = [
        ShardTask(problem=problem, n_samples=size, seed=child, backend=backend)
        for size, child in zip(plan.shard_sizes, children)
    ]
    width = problem.n_edges if backend is None else problem.n_vertices
    matrix = np.empty((n_samples, width), dtype=bool)
    start = 0
    for part in active.map_shards(tasks):
        matrix[start : start + part.shape[0]] = part
        start += part.shape[0]
    return matrix


# ----------------------------------------------------------------------
# batch aggregations — shared by the engine's one-shot estimators and the
# batched query service, which answers many queries from one WorldBatch.
# Keeping these as free functions over an already-sampled batch is what
# makes "batched answer == single-query answer" true by construction
# rather than by parallel implementations that must be kept in sync.
# ----------------------------------------------------------------------
def flow_weight_vector(
    graph: UncertainGraph, problem: SamplingProblem, include_query: bool
) -> np.ndarray:
    """Per-indexed-vertex information weights, aligned with ``problem``.

    Vertices outside the graph weigh nothing; with ``include_query``
    False the source's weight is zeroed — cheaper than masking its
    (always-True) column out of a reached matrix, its flow contribution
    simply becomes zero.
    """
    weights = graph.weights()
    weight_vector = np.array(
        [weights.get(vertex, 0.0) for vertex in problem.vertex_ids], dtype=np.float64
    )
    if not include_query:
        weight_vector[problem.source] = 0.0
    return weight_vector


def aggregate_expected_flow(
    graph: UncertainGraph, batch: WorldBatch, include_query: bool = False
) -> FlowEstimate:
    """Aggregate a sampled world batch into a :class:`FlowEstimate`.

    Exactly the aggregation :meth:`SamplingEngine.expected_flow` applies
    after sampling, factored out so a cached or shared batch yields the
    bit-for-bit identical estimate.  Extra always-unreached vertices in
    the batch (e.g. pooled pair-query targets) contribute exact zeros to
    the flow dot product and are skipped by the ``count`` filter, so
    pooling requests over one batch does not perturb the numbers.

    Per-world flows and hit counts come from :func:`_world_totals`,
    which converts the bool matrix to float64 one block of world rows at
    a time instead of materializing an ``n_samples x n_vertices``
    float64 copy (131 MB at 8192 x 2000).  A block is a multiple of 64
    rows because 64 is a multiple of every BLAS gemv row-group width:
    each world's dot product then runs through the same kernel path, and
    so the same summation order, as in the whole-matrix product, and the
    flows are bit-identical to ``reached.astype(np.float64) @ weights``.
    A block whose row count is not such a multiple (7 or 1023 rows, say)
    moves rows between the grouped and the remainder kernel and changes
    last bits.  The one exception is a whole-matrix product large
    enough for BLAS to split its rows between threads at a row that is
    not a multiple of 4 (two threads split at ``ceil(n_samples / 2)``,
    so never when ``n_samples`` is a multiple of 8): that product
    depends on the thread count, and the blocks give the one-thread
    answer.  The mean, variance and reachability dict are computed from
    the flows and counts as before.
    """
    problem, reached = batch.problem, batch.reached
    n_samples = batch.n_samples
    weight_vector = flow_weight_vector(graph, problem, include_query)
    flow_samples, hit_counts = _world_totals(reached, weight_vector)
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


def _world_totals(
    reached: np.ndarray,
    weight_vector: Optional[np.ndarray] = None,
    with_counts: bool = True,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Per-world flows and per-vertex hit counts of a bool world matrix.

    Returns ``(flows, counts)``: ``flows`` equals
    ``reached.astype(np.float64) @ weight_vector`` bit for bit (``None``
    without a weight vector) and ``counts`` equals ``reached.sum(axis=0)``
    as ``int64`` (``None`` when ``with_counts`` is False).

    The matrix is walked in blocks of a multiple of :data:`_BLOCK_ROWS`
    rows (see :func:`aggregate_expected_flow` for why that keeps the
    flows bit-identical).  A last block of fewer than 4 rows joins the
    block before it: numpy sends a 1-row product to BLAS ``dot``, and
    OpenBLAS sums a column-major (Fortran-order) matrix of 2 or 3 rows
    on a path of its own, both in another order than the whole-matrix
    ``gemv``.  Counts add each block's uint8 view in ``uint16``, which
    cannot overflow at :data:`_BLOCK_ELEMENTS` rows or fewer.
    """
    n_samples, n_vertices = reached.shape
    rows = _BLOCK_ROWS * max(1, _BLOCK_ELEMENTS // (_BLOCK_ROWS * max(1, n_vertices)))
    stops = list(range(rows, n_samples, rows))
    if stops and n_samples - stops[-1] < 4:
        stops.pop()
    flows = None if weight_vector is None else np.empty(n_samples, dtype=np.float64)
    counts = np.zeros(n_vertices, dtype=np.int64) if with_counts else None
    start = 0
    for stop in stops + [n_samples]:
        block = reached[start:stop]
        if flows is not None:
            flows[start:stop] = block.astype(np.float64) @ weight_vector
        if counts is not None:
            counts += block.view(np.uint8).sum(axis=0, dtype=np.uint16)
        start = stop
    return flows, counts


def aggregate_pair_reachability(batch: WorldBatch, target: VertexId) -> ReachabilityEstimate:
    """Aggregate a world batch into the two-terminal estimate for ``target``.

    A target outside the indexed problem is not incident to any sampled
    edge, hence reached in no world: zero successes — the same answer a
    batch that carried the target as an always-False extra column would
    produce, which is what lets pooled batches drop the extra columns.
    """
    try:
        successes = int(batch.reached[:, batch.problem.index_of(target)].sum())
    except KeyError:
        successes = 0
    return ReachabilityEstimate(
        probability=successes / batch.n_samples,
        n_samples=batch.n_samples,
        successes=successes,
    )


def aggregate_component_reachability(
    batch: WorldBatch, targets: Iterable[VertexId]
) -> Dict[VertexId, float]:
    """Aggregate a world batch into per-target reachability probabilities.

    One bulk :meth:`WorldBatch.hit_frequencies` column gather; targets
    outside the indexed problem report 0.0.
    """
    targets = list(targets)
    frequencies = batch.hit_frequencies(targets)
    return {vertex: float(f) for vertex, f in zip(targets, frequencies)}


__all__ = [
    "FlipBatch",
    "SamplingEngine",
    "WorldBatch",
    "aggregate_component_reachability",
    "aggregate_expected_flow",
    "aggregate_pair_reachability",
    "flow_weight_vector",
]
