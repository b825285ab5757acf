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
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import VertexNotFoundError
from repro.graph.uncertain_graph import UncertainGraph
from repro.parallel.adaptive import AdaptiveSettings, shard_rounds
from repro.parallel.executor import (
    ExecutorLike,
    SamplingExecutor,
    SerialExecutor,
    ShardTask,
    make_executor,
    resolve_executor,
)
from repro.parallel.plan import check_sample_count, get_default_shard_size, plan_shards
from repro.reachability.backends import BackendLike, make_backend
from repro.reachability.backends.base import (
    SamplingBackend,
    SamplingProblem,
    sample_flips,
)
from repro.reachability.layout import graph_layout
from repro.reachability.confidence import (
    flow_confidence_interval,
    proportion_interval_function,
)
from repro.reachability.estimators import FlowEstimate, ReachabilityEstimate
from repro.rng import SeedLike, ensure_rng, split_seed_sequences
from repro.telemetry import current_telemetry
from repro.types import Edge, VertexId

#: Sample-count specification: a positive integer budget, or
#: :data:`~repro.parallel.adaptive.AUTO_SAMPLES` for CI-driven stopping.
SampleSpec = Union[int, str]

#: Shared in-process executor for sharded paths that were not handed one.
_SERIAL_EXECUTOR = SerialExecutor()

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
        A backend name from :data:`repro.reachability.backends.BACKEND_NAMES`,
        an already constructed backend instance, or ``None`` for the
        default (:data:`repro.reachability.backends.DEFAULT_BACKEND`).
    executor:
        Sharded-sampling executor (see :mod:`repro.parallel`): ``None``
        defers to the active session (unsharded single-stream sampling,
        the historical behaviour, without one), an integer is
        a worker count, or pass a :class:`~repro.parallel.executor.SamplingExecutor`
        instance to share one pool across engines.
    shard_size:
        Worlds per shard when an executor is active (``None`` uses
        :data:`~repro.parallel.plan.DEFAULT_SHARD_SIZE`).  Part of the
        determinism key: results are a pure function of
        ``(seed, n_samples, shard_size)`` and never of worker count.
    """

    def __init__(
        self,
        backend: BackendLike = None,
        executor: ExecutorLike = None,
        shard_size: Optional[int] = None,
    ) -> None:
        self.backend: SamplingBackend = make_backend(backend)
        self.executor: Optional[SamplingExecutor] = make_executor(executor)
        self.shard_size = shard_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SamplingEngine backend={self.backend.name!r}>"

    # ------------------------------------------------------------------
    # executor / shard plumbing
    # ------------------------------------------------------------------
    def _resolve_executor(self, executor: ExecutorLike) -> Optional[SamplingExecutor]:
        """Call-level spec beats the engine's executor beats the global default."""
        if executor is not None:
            return make_executor(executor)
        if self.executor is not None:
            return self.executor
        return resolve_executor(None)

    def _resolve_shard_size(self, shard_size: Optional[int]) -> int:
        resolved = shard_size if shard_size is not None else self.shard_size
        return resolved if resolved is not None else get_default_shard_size()

    def _run_sharded(
        self,
        problem: SamplingProblem,
        n_samples: int,
        seed: SeedLike,
        executor: SamplingExecutor,
        shard_size: Optional[int],
        backend: Optional[SamplingBackend],
    ) -> np.ndarray:
        """Split one request into seeded shard tasks and reduce in order.

        ``backend=None`` draws raw flip matrices, otherwise reachability
        matrices.  Deterministic per ``(seed, n_samples, shard_size)``:
        shard ``i`` runs on the ``i``-th spawned child seed and the
        partial results are concatenated in shard order, so worker count
        and completion order never influence the reduction.
        """
        plan = plan_shards(n_samples, self._resolve_shard_size(shard_size))
        children = split_seed_sequences(seed, plan.n_shards)
        tasks = [
            ShardTask(problem=problem, n_samples=size, seed=child, backend=backend)
            for size, child in zip(plan.shard_sizes, children)
        ]
        parts = executor.map_shards(tasks)
        width = problem.n_edges if backend is None else problem.n_vertices
        if not parts:
            return np.zeros((0, width), dtype=bool)
        return np.vstack(parts)

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
        executor: ExecutorLike = None,
        shard_size: Optional[int] = None,
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
        executor:
            Sharded-sampling executor override (see :mod:`repro.parallel`).
            With an active executor the batch is drawn shard by shard
            from per-shard child seeds — a different (equally valid)
            stream than the unsharded path, but bit-for-bit identical
            for any worker count given ``(seed, n_samples, shard_size)``.
            Note an *integer* spec here builds (and tears down) a fresh
            executor per call — for repeated calls pass an executor
            instance, or set one at engine construction, so the process
            pool is reused.
        shard_size:
            Worlds per shard for the executor path.
        """
        check_sample_count(n_samples)
        problem = graph_layout(graph, edges).problem(source, extra_vertices)
        active = self._resolve_executor(executor)
        tel = current_telemetry()
        if tel.enabled:
            with tel.span(
                "engine.sample_worlds",
                backend=self.backend.name,
                n_samples=int(n_samples),
                sharded=active is not None,
            ):
                reached = self._draw_worlds(problem, n_samples, seed, active, shard_size)
            tel.count("engine.sample_calls")
            tel.count("engine.worlds_sampled", int(n_samples))
        else:
            reached = self._draw_worlds(problem, n_samples, seed, active, shard_size)
        return WorldBatch(problem=problem, reached=reached)

    def _draw_worlds(
        self,
        problem: SamplingProblem,
        n_samples: int,
        seed: SeedLike,
        active: Optional[SamplingExecutor],
        shard_size: Optional[int],
    ) -> np.ndarray:
        if active is None:
            rng = ensure_rng(seed)
            return self.backend.sample_reachability(problem, int(n_samples), rng)
        return self._run_sharded(
            problem, int(n_samples), seed, active, shard_size, self.backend
        )

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
        executor: ExecutorLike = None,
        shard_size: Optional[int] = None,
    ) -> FlipBatch:
        """Draw one shared edge-flip matrix without propagating it.

        The flips are produced by the backend-independent
        :func:`~repro.reachability.backends.base.sample_flips` stream
        implementation, so the batch is bit-for-bit identical across
        backends for the same seed — which is what lets the evaluation
        context guarantee identical candidate scores on any backend.
        With an active ``executor`` the matrix is drawn shard by shard
        (still backend-independent, still worker-count invariant).
        """
        check_sample_count(n_samples)
        problem = graph_layout(graph, edges).problem(source, extra_vertices)
        active = self._resolve_executor(executor)
        tel = current_telemetry()
        if tel.enabled:
            with tel.span(
                "engine.sample_flips",
                n_samples=int(n_samples),
                sharded=active is not None,
            ):
                flips = self._draw_flips(problem, n_samples, seed, active, shard_size)
            tel.count("engine.flip_calls")
            tel.count("engine.worlds_sampled", int(n_samples))
        else:
            flips = self._draw_flips(problem, n_samples, seed, active, shard_size)
        return FlipBatch(problem=problem, flips=flips)

    def _draw_flips(
        self,
        problem: SamplingProblem,
        n_samples: int,
        seed: SeedLike,
        active: Optional[SamplingExecutor],
        shard_size: Optional[int],
    ) -> np.ndarray:
        if active is None:
            rng = ensure_rng(seed)
            return sample_flips(problem, int(n_samples), rng)
        return self._run_sharded(
            problem, int(n_samples), seed, active, shard_size, backend=None
        )

    # ------------------------------------------------------------------
    # adaptive (CI-driven) sampling
    # ------------------------------------------------------------------
    def _sample_worlds_adaptive(
        self,
        graph: UncertainGraph,
        source: VertexId,
        seed: SeedLike,
        edges: Optional[Iterable[Edge]],
        extra_vertices: Iterable[VertexId],
        executor: ExecutorLike,
        shard_size: Optional[int],
        settings: AdaptiveSettings,
        width_of: Callable[[SamplingProblem, np.ndarray, int], float],
    ) -> WorldBatch:
        """Draw shards until ``width_of(problem, hit_counts, n)`` hits the target.

        The shard schedule (:func:`~repro.parallel.adaptive.shard_rounds`)
        and the seed split depend only on ``(seed, settings, shard_size)``,
        so the stopping point — and therefore the returned batch — is
        identical for any worker count.
        """
        problem = graph_layout(graph, edges).problem(source, extra_vertices)
        active = self._resolve_executor(executor) or _SERIAL_EXECUTOR
        size = self._resolve_shard_size(shard_size)
        plan = plan_shards(settings.max_samples, size)
        children = split_seed_sequences(seed, plan.n_shards)

        tel = current_telemetry()
        if not tel.enabled:
            return self._adaptive_loop(
                problem, active, size, plan.shard_sizes, children, settings, width_of
            )[0]
        with tel.span(
            "engine.sample_worlds_adaptive",
            backend=self.backend.name,
            max_samples=settings.max_samples,
            shard_size=size,
        ) as span:
            batch, rounds = self._adaptive_loop(
                problem, active, size, plan.shard_sizes, children, settings, width_of
            )
            span.set(n_samples=batch.n_samples, rounds=rounds)
        tel.count("engine.adaptive.rounds", rounds)
        tel.count("engine.worlds_sampled", batch.n_samples)
        tel.count("engine.sample_calls")
        return batch

    def _adaptive_loop(
        self,
        problem: SamplingProblem,
        active: SamplingExecutor,
        size: int,
        shard_sizes,
        children,
        settings: AdaptiveSettings,
        width_of: Callable[[SamplingProblem, np.ndarray, int], float],
    ):
        blocks: List[np.ndarray] = []
        counts = np.zeros(problem.n_vertices, dtype=np.int64)
        drawn_shards = 0
        drawn_samples = 0
        rounds = 0
        for round_shards in shard_rounds(settings, size):
            rounds += 1
            tasks = [
                ShardTask(
                    problem=problem,
                    n_samples=shard_sizes[index],
                    seed=children[index],
                    backend=self.backend,
                )
                for index in range(drawn_shards, drawn_shards + round_shards)
            ]
            parts = active.map_shards(tasks)
            for part in parts:
                blocks.append(part)
                counts += _world_totals(part)[1]
                drawn_samples += part.shape[0]
            drawn_shards += round_shards
            if drawn_samples >= settings.min_samples:
                if width_of(problem, counts, drawn_samples) <= settings.target_width:
                    break
        reached = (
            np.vstack(blocks)
            if blocks
            else np.zeros((0, problem.n_vertices), dtype=bool)
        )
        return WorldBatch(problem=problem, reached=reached), rounds

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
    # the estimators: the one public Monte-Carlo surface (Session's
    # workload methods call these with session-resolved policy)
    # ------------------------------------------------------------------
    def expected_flow(
        self,
        graph: UncertainGraph,
        query: VertexId,
        n_samples: SampleSpec = 1000,
        seed: SeedLike = None,
        edges: Optional[Iterable[Edge]] = None,
        include_query: bool = False,
        executor: ExecutorLike = None,
        shard_size: Optional[int] = None,
        adaptive: Optional[AdaptiveSettings] = None,
    ) -> FlowEstimate:
        """Monte-Carlo estimate of ``E[flow(Q, G)]`` (Lemma 1).

        ``n_samples="auto"`` switches to adaptive CI-driven stopping:
        shards of worlds are drawn until the weighted flow confidence
        interval (:func:`repro.reachability.confidence.flow_confidence_interval`)
        is narrower than ``adaptive.target_width`` or the
        ``adaptive.max_samples`` cap is hit.
        """
        if not graph.has_vertex(query):
            raise VertexNotFoundError(query)
        if check_sample_count(n_samples, allow_auto=True):
            settings = adaptive or AdaptiveSettings()
            weights = graph.weights()

            def flow_width(problem: SamplingProblem, counts: np.ndarray, n: int) -> float:
                reachability_counts = {}
                interval_weights = {}
                for index, vertex in enumerate(problem.vertex_ids):
                    if not include_query and index == problem.source:
                        continue
                    weight = float(weights.get(vertex, 0.0))
                    if weight == 0.0:
                        continue
                    reachability_counts[vertex] = int(counts[index])
                    interval_weights[vertex] = weight
                return flow_confidence_interval(
                    reachability_counts,
                    n,
                    interval_weights,
                    alpha=settings.alpha,
                    method=settings.method,
                ).width

            batch = self._sample_worlds_adaptive(
                graph, query, seed, edges, (), executor, shard_size, settings, flow_width
            )
        else:
            batch = self.sample_worlds(
                graph,
                query,
                n_samples,
                seed=seed,
                edges=edges,
                executor=executor,
                shard_size=shard_size,
            )
        return aggregate_expected_flow(graph, batch, include_query=include_query)

    def pair_reachability(
        self,
        graph: UncertainGraph,
        source: VertexId,
        target: VertexId,
        n_samples: SampleSpec = 1000,
        seed: SeedLike = None,
        edges: Optional[Iterable[Edge]] = None,
        executor: ExecutorLike = None,
        shard_size: Optional[int] = None,
        adaptive: Optional[AdaptiveSettings] = None,
    ) -> ReachabilityEstimate:
        """Monte-Carlo estimate of the two-terminal reachability ``P(source ↔ target)``.

        ``n_samples="auto"`` draws shards until the Wilson (or normal)
        interval around the success fraction is narrower than
        ``adaptive.target_width``, capped at ``adaptive.max_samples``.
        """
        for vertex in (source, target):
            if not graph.has_vertex(vertex):
                raise VertexNotFoundError(vertex)
        auto = check_sample_count(n_samples, allow_auto=True)
        if source == target:
            pinned = (adaptive or AdaptiveSettings()).min_samples if auto else n_samples
            return ReachabilityEstimate(probability=1.0, n_samples=pinned, successes=pinned)
        if auto:
            settings = adaptive or AdaptiveSettings()
            interval_fn = proportion_interval_function(settings.method)

            def pair_width(problem: SamplingProblem, counts: np.ndarray, n: int) -> float:
                successes = int(counts[problem.index_of(target)])
                return interval_fn(successes, n, alpha=settings.alpha).width

            batch = self._sample_worlds_adaptive(
                graph,
                source,
                seed,
                edges,
                (target,),
                executor,
                shard_size,
                settings,
                pair_width,
            )
        else:
            batch = self.sample_worlds(
                graph,
                source,
                n_samples,
                seed=seed,
                edges=edges,
                extra_vertices=(target,),
                executor=executor,
                shard_size=shard_size,
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
        executor: ExecutorLike = None,
        shard_size: Optional[int] = None,
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
            executor=executor,
            shard_size=shard_size,
        )
        return aggregate_component_reachability(batch, targets)


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
