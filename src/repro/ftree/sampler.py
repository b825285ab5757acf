"""Estimation of reachability inside a single bi-connected component.

The F-tree replaces whole-graph sampling by *local* sampling: only the
edges of one bi-connected component are flipped, and reachability is
measured towards the component's articulation vertex (paper Section 5.3,
Example 2).  Components with few uncertain edges are evaluated exactly
over all of their possible worlds at once by
:func:`~repro.reachability.exact.exact_closure`, straight from the
component's ``(edge, probability)`` list with no subgraph copy — an
extension over the paper that removes sampling noise from small cycles
and keeps unit tests deterministic.

Results are optionally memoized in a :class:`~repro.ftree.memo.MemoCache`
keyed by the component content (Section 6.2).

Two sampling modes govern where the Monte-Carlo randomness comes from:

* ``crn=False`` (resample, the reference mode): every estimation draws
  the next worlds from one sequential stream, so the same component
  probed for two different candidates sees *different* worlds — the
  paper's literal behaviour, pinned by the RNG-contract tests.
* ``crn=True`` (common random numbers): each estimation derives its
  stream from a counter-based generator keyed on ``(base seed, round,
  sample size, component content)`` via
  :func:`~repro.digest.content_digest`.  Within a selection round
  (see :meth:`ComponentSampler.begin_round`) every probe of the same
  component content draws the same worlds, so candidate comparisons are
  free of cross-candidate sampling noise and estimates are independent
  of probe order — with or without memoization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set

import numpy as np

from repro.digest import content_digest
from repro.ftree.memo import MemoCache, MemoEntry
from repro.graph.uncertain_graph import UncertainGraph
from repro.parallel.plan import check_sample_count
from repro.reachability.engine import SamplingEngine
from repro.reachability.exact import exact_closure
from repro.rng import SeedLike, ensure_rng
from repro.types import Edge, VertexId


@dataclass(frozen=True)
class ComponentEstimate:
    """Reachability of a component's vertices towards its articulation vertex."""

    probabilities: Dict[VertexId, float]
    n_samples: Optional[int]
    exact: bool
    from_cache: bool = False


class ComponentSampler:
    """Estimates per-component reachability, with memoization and exact fallback.

    Parameters
    ----------
    n_samples:
        Monte-Carlo sample size for components that are too large for
        exact enumeration (paper default: 1000).
    exact_threshold:
        Components with at most this many uncertain edges are evaluated
        exactly by enumerating their possible worlds (``0`` disables the
        exact path entirely).
    seed:
        Seed or generator for the Monte-Carlo path.
    memo:
        Optional :class:`MemoCache`; when provided, identical component
        contents are only estimated once (the FT+M heuristic).
    crn:
        Common-random-numbers mode (see the module docstring).  Off by
        default so directly constructed samplers keep the sequential
        reference stream; the greedy selectors enable it per default.

    The Monte-Carlo path samples with the backend, executor and shard
    size of the session active at each estimate (see
    :func:`repro.session`); with an executor, estimates are bit-for-bit
    identical for any worker count given ``(seed, n_samples,
    shard_size)``.  ``crn`` stays an explicit per-sampler choice — the
    harness's evaluation yardstick relies on the sequential reference
    stream regardless of how the enclosing session scores selection
    candidates.
    """

    def __init__(
        self,
        n_samples: int = 1000,
        exact_threshold: int = 10,
        seed: SeedLike = None,
        memo: Optional[MemoCache] = None,
        *,
        crn: bool = False,
    ) -> None:
        check_sample_count(n_samples)
        if exact_threshold < 0:
            raise ValueError(f"exact_threshold must be >= 0, got {exact_threshold!r}")
        self.n_samples = int(n_samples)
        self.exact_threshold = int(exact_threshold)
        self.memo = memo
        self.crn = bool(crn)
        self._engine = SamplingEngine()
        self._rng = ensure_rng(seed)
        self._round = 0
        # the CRN base key: reuse an integer seed directly so estimates
        # are reproducible per seed; otherwise draw one key from the
        # provided stream (or OS entropy for seed=None)
        if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
            self._crn_base = int(seed)
        else:
            self._crn_base = int(self._rng.integers(0, 2**63 - 1)) if self.crn else 0
        #: number of Monte-Carlo estimations actually performed
        self.sampled_components = 0
        #: number of exact enumerations performed
        self.exact_components = 0
        #: total number of edges flipped across all Monte-Carlo estimations
        self.sampled_edges = 0

    # ------------------------------------------------------------------
    def begin_round(self, round_index: int) -> None:
        """Advance the CRN stream to a new selection round.

        In CRN mode every estimation between two ``begin_round`` calls
        derives its worlds from ``(base seed, round_index, sample size,
        component content)``, so re-probing the same component content
        within one round replays the same worlds while a new round draws
        fresh ones.  A no-op in resample mode.
        """
        self._round = int(round_index)

    def _component_rng(self, edges: Set[Edge], articulation: VertexId) -> np.random.Generator:
        """Counter-based generator keyed on round and component content."""
        key = content_digest(
            edges, articulation, self._crn_base, self._round, self.n_samples
        )
        return np.random.Generator(np.random.Philox(key=key))

    # ------------------------------------------------------------------
    def reachability(
        self,
        graph: UncertainGraph,
        articulation: VertexId,
        vertices: Iterable[VertexId],
        edges: Iterable[Edge],
    ) -> ComponentEstimate:
        """Estimate ``P(v ↔ articulation)`` for every vertex of the component.

        Parameters
        ----------
        graph:
            The underlying uncertain graph (source of edge probabilities).
        articulation:
            The component's articulation vertex.
        vertices:
            The component's owned vertices.
        edges:
            The component's edges (over ``vertices ∪ {articulation}``).
        """
        vertex_set: Set[VertexId] = set(vertices)
        edge_set: Set[Edge] = set(edges)
        key = MemoCache.make_key(edge_set, articulation)
        if self.memo is not None:
            cached = self.memo.get(key)
            if cached is not None:
                return ComponentEstimate(
                    probabilities=dict(cached.probabilities),
                    n_samples=cached.n_samples,
                    exact=cached.exact,
                    from_cache=True,
                )
        estimate = self._estimate(graph, articulation, vertex_set, edge_set)
        if self.memo is not None:
            self.memo.put(
                key,
                MemoEntry(
                    probabilities=dict(estimate.probabilities),
                    n_samples=estimate.n_samples,
                    exact=estimate.exact,
                ),
            )
        return estimate

    def estimation_cost(self, edges: Iterable[Edge], articulation: VertexId) -> int:
        """Return the number of edges that would need sampling for this component.

        Zero when the result is already memoized; used by the
        delayed-sampling heuristic to define the cost of probing an edge.
        """
        edge_set = set(edges)
        if self.memo is not None and MemoCache.make_key(edge_set, articulation) in self.memo:
            return 0
        return len(edge_set)

    # ------------------------------------------------------------------
    def _estimate(
        self,
        graph: UncertainGraph,
        articulation: VertexId,
        vertices: Set[VertexId],
        edges: Set[Edge],
    ) -> ComponentEstimate:
        uncertain_edges = sum(1 for edge in edges if graph.probability(edge) < 1.0)
        if uncertain_edges <= self.exact_threshold:
            probabilities = self._exact(graph, articulation, vertices, edges)
            self.exact_components += 1
            return ComponentEstimate(probabilities=probabilities, n_samples=None, exact=True)
        seed = self._component_rng(edges, articulation) if self.crn else self._rng
        probabilities = self._engine.component_reachability(
            graph,
            articulation,
            vertices,
            edges,
            n_samples=self.n_samples,
            seed=seed,
        )
        self.sampled_components += 1
        self.sampled_edges += len(edges)
        return ComponentEstimate(
            probabilities=probabilities, n_samples=self.n_samples, exact=False
        )

    def _exact(
        self,
        graph: UncertainGraph,
        articulation: VertexId,
        vertices: Set[VertexId],
        edges: Set[Edge],
    ) -> Dict[VertexId, float]:
        # an isolated articulation vertex reaches nothing: every vertex reads 0.0
        return exact_closure(
            articulation,
            vertices,
            [(edge, graph.probability(edge)) for edge in edges],
            limit=max(20, self.exact_threshold),
        )
