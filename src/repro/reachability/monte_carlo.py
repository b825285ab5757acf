"""Whole-graph Monte-Carlo estimation of reachability and expected flow.

Implements the unbiased estimator of Lemma 1: drawing possible worlds by
flipping every edge independently and averaging the per-world information
flow ``flow(Q, g)``.  The Naive baseline of the evaluation applies this
estimator to the entire candidate subgraph in every greedy iteration.

All three public estimators are thin wrappers around one shared
:class:`~repro.reachability.engine.SamplingEngine` entry point, so the
world-flipping and adjacency/traversal code lives in exactly one place
and the backend (``"naive"`` per-world BFS or the default ``"csr"``
bit-packed propagation — see :mod:`repro.reachability.backends`) can be
chosen per call.
Estimates are bit-for-bit deterministic per ``(seed, backend)``, and the
built-in backends share one random-stream contract, so the same seed
yields the same estimate on either backend.

``backend``, ``executor`` and ``shard_size`` left at ``None`` resolve
from the active :func:`repro.session` (then ``repro.runtime.defaults``);
:meth:`repro.runtime.Session.expected_flow` and friends are the
session-native spellings of the same estimators and reproduce them bit
for bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.exceptions import SampleSizeError, VertexNotFoundError
from repro.graph.uncertain_graph import UncertainGraph
from repro.parallel.adaptive import AUTO_SAMPLES, AdaptiveSettings
from repro.parallel.executor import ExecutorLike
from repro.reachability.backends import BackendLike
from repro.reachability.engine import SampleSpec, SamplingEngine
from repro.reachability.estimators import FlowEstimate, ReachabilityEstimate
from repro.rng import SeedLike, ensure_rng
from repro.types import Edge, VertexId


class MonteCarloFlowEstimator:
    """Reusable Monte-Carlo estimator bound to one graph and one query vertex.

    Parameters
    ----------
    graph:
        The uncertain graph (or candidate subgraph) to sample.
    query:
        The query vertex ``Q``.
    n_samples:
        Number of possible worlds to draw per estimate (paper default 1000).
    seed:
        Seed or generator used for world sampling.
    include_query:
        Whether the query vertex's own weight counts towards the flow.
    backend:
        Sampling backend name or instance (default: the registry default).
    executor:
        Sharded-sampling executor or worker count (see
        :mod:`repro.parallel`); ``None`` keeps the unsharded stream.
    shard_size:
        Worlds per shard when an executor is active.
    adaptive:
        Stopping rule for ``n_samples="auto"``.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        query: VertexId,
        n_samples: SampleSpec = 1000,
        seed: SeedLike = None,
        include_query: bool = False,
        backend: BackendLike = None,
        executor: ExecutorLike = None,
        shard_size: Optional[int] = None,
        adaptive: Optional[AdaptiveSettings] = None,
    ) -> None:
        if not graph.has_vertex(query):
            raise VertexNotFoundError(query)
        if isinstance(n_samples, str):
            if n_samples != AUTO_SAMPLES:
                raise ValueError(
                    f"n_samples must be a positive integer or {AUTO_SAMPLES!r}, "
                    f"got {n_samples!r}"
                )
        else:
            if n_samples <= 0:
                raise SampleSizeError(n_samples)
            n_samples = int(n_samples)
        self.graph = graph
        self.query = query
        self.n_samples = n_samples
        self.include_query = include_query
        self.adaptive = adaptive
        self._engine = SamplingEngine(backend, executor=executor, shard_size=shard_size)
        self._rng = ensure_rng(seed)

    def estimate(self, edges: Optional[Iterable[Edge]] = None) -> FlowEstimate:
        """Estimate the expected flow of the subgraph restricted to ``edges``."""
        return self._engine.expected_flow(
            self.graph,
            self.query,
            n_samples=self.n_samples,
            seed=self._rng,
            edges=edges,
            include_query=self.include_query,
            adaptive=self.adaptive,
        )


def monte_carlo_expected_flow(
    graph: UncertainGraph,
    query: VertexId,
    n_samples: SampleSpec = 1000,
    seed: SeedLike = None,
    edges: Optional[Iterable[Edge]] = None,
    include_query: bool = False,
    backend: BackendLike = None,
    executor: ExecutorLike = None,
    shard_size: Optional[int] = None,
    adaptive: Optional[AdaptiveSettings] = None,
) -> FlowEstimate:
    """Monte-Carlo estimate of ``E[flow(Q, G)]`` (Lemma 1).

    Parameters
    ----------
    graph:
        The uncertain graph.
    query:
        Query vertex ``Q``.
    n_samples:
        Number of sampled possible worlds, or ``"auto"`` for adaptive
        CI-driven stopping (see :class:`repro.parallel.AdaptiveSettings`).
    seed:
        Random seed or generator.
    edges:
        Optional restriction of the graph to a subset of edges (the
        candidate subgraph of the selection algorithms); vertices are
        unchanged.
    include_query:
        Whether ``W(Q)`` counts towards the flow.
    backend:
        Sampling backend name or instance (see
        :data:`repro.reachability.backends.BACKEND_NAMES`).
    executor:
        Sharded-sampling executor or worker count (see
        :mod:`repro.parallel`); ``None`` keeps the historical unsharded
        single-process stream.
    shard_size:
        Worlds per shard when an executor is active; part of the
        determinism key ``(seed, n_samples, shard_size)``.
    adaptive:
        Stopping rule for ``n_samples="auto"``.

    Returns
    -------
    FlowEstimate
        Point estimate together with per-vertex reachability frequencies
        and the sample variance of the per-world flow.
    """
    return SamplingEngine(backend, executor=executor, shard_size=shard_size).expected_flow(
        graph,
        query,
        n_samples=n_samples,
        seed=seed,
        edges=edges,
        include_query=include_query,
        adaptive=adaptive,
    )


def monte_carlo_reachability(
    graph: UncertainGraph,
    source: VertexId,
    target: VertexId,
    n_samples: SampleSpec = 1000,
    seed: SeedLike = None,
    edges: Optional[Iterable[Edge]] = None,
    backend: BackendLike = None,
    executor: ExecutorLike = None,
    shard_size: Optional[int] = None,
    adaptive: Optional[AdaptiveSettings] = None,
) -> ReachabilityEstimate:
    """Monte-Carlo estimate of the two-terminal reachability ``P(source ↔ target)``.

    ``n_samples="auto"`` draws shards until the Wilson/normal interval is
    narrower than ``adaptive.target_width`` (see :mod:`repro.parallel`).
    """
    return SamplingEngine(backend, executor=executor, shard_size=shard_size).pair_reachability(
        graph, source, target, n_samples=n_samples, seed=seed, edges=edges, adaptive=adaptive
    )


def monte_carlo_component_reachability(
    graph: UncertainGraph,
    anchor: VertexId,
    vertices: Iterable[VertexId],
    edges: Iterable[Edge],
    n_samples: int = 1000,
    seed: SeedLike = None,
    backend: BackendLike = None,
    executor: ExecutorLike = None,
    shard_size: Optional[int] = None,
) -> Dict[VertexId, float]:
    """Estimate ``P(v ↔ anchor)`` for every ``v`` within a small edge-induced component.

    Used by the F-tree to sample a single bi-connected component: only the
    component's edges are flipped, and reachability is evaluated towards
    the component's articulation vertex.
    """
    return SamplingEngine(backend, executor=executor, shard_size=shard_size).component_reachability(
        graph, anchor, vertices, edges, n_samples=n_samples, seed=seed
    )
