"""Shared-sample evaluation contexts: common-random-numbers scoring.

Every greedy selector spends its time asking the same question hundreds
of times per round: *"what would the expected flow be if I added this
one candidate edge to the edges selected so far?"*.  Resampling a fresh
batch of possible worlds per candidate (the paper's literal scheme) would
pay the full sampling cost per candidate **and** compare candidates
across independent noise — the argmax then picks the luckiest draw as
often as the best edge.

:class:`EvaluationContext` fixes one batch of sampled edge flips per
selection round instead (common random numbers, CRN):

1. the edge-flip matrix for the whole candidate universe (base edges
   plus every candidate) is drawn **once** per round through the
   backend-independent stream primitive, so the same worlds are reused
   for every candidate and are bit-for-bit identical across backends;
2. the base edge set is propagated once, giving the per-world baseline
   closure and flow;
3. each candidate is scored **incrementally** against that baseline:
   a candidate that attaches a brand-new vertex ``v`` via ``(u, v)``
   changes exactly one column of the closure (``v`` is reached where
   the edge survived and ``u`` was reached — no onward propagation is
   possible because ``v`` has no other active edge), which costs one
   vectorized AND per candidate; a cycle-closing candidate re-runs the
   backend's fixpoint seeded from the baseline closure, which converges
   after a handful of sweeps because only the new frontier can gain.

Because adding an edge can only grow per-world reachability, every CRN
score is ≥ the round's base flow — candidate gains are nonnegative by
construction rather than up to sampling luck.

Typical use (one call per greedy round)::

    context = EvaluationContext(graph, query, n_samples=1000, seed=7)
    scores = context.score_candidates(selected_edges, candidate_edges)
    index, edge, flow = scores.best()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import SampleSizeError, VertexNotFoundError
from repro.graph.uncertain_graph import UncertainGraph
from repro.reachability.engine import SamplingEngine, _world_totals, flow_weight_vector
from repro.rng import SeedLike, ensure_rng
from repro.types import Edge, VertexId


@dataclass(frozen=True)
class CandidateScores:
    """Result of scoring one greedy round against a shared world batch.

    Attributes
    ----------
    candidates:
        The scored candidate edges, in input order.
    scores:
        Expected flow of ``base_edges + [candidate]`` per candidate,
        all estimated on the same possible worlds.
    base_flow:
        Expected flow of the base edge set on the same worlds; every
        score is ≥ this value.
    n_samples:
        Number of shared worlds behind the estimates.
    fast_evaluations:
        Candidates scored by the O(n_samples) attach-delta shortcut.
    delta_evaluations:
        Cycle-closing candidates scored by incremental re-propagation.
    """

    candidates: Tuple[Edge, ...]
    scores: np.ndarray
    base_flow: float
    n_samples: int
    fast_evaluations: int
    delta_evaluations: int

    def best(self) -> Tuple[int, Edge, float]:
        """Return ``(index, edge, score)`` of the best candidate.

        Ties break towards the first candidate in input order, which
        keeps selections deterministic across backends (scores are
        bit-for-bit identical, see :class:`EvaluationContext`).
        """
        if not self.candidates:
            raise ValueError("no candidates were scored")
        index = int(np.argmax(self.scores))
        return index, self.candidates[index], float(self.scores[index])

    def gains(self) -> np.ndarray:
        """Per-candidate marginal gain over the base flow (all ≥ 0)."""
        return self.scores - self.base_flow


class EvaluationContext:
    """Common-random-numbers candidate scoring for one greedy selection.

    Parameters
    ----------
    graph:
        The uncertain graph supplying edge probabilities and weights.
    source:
        The query vertex flow is measured towards.
    n_samples:
        Possible worlds shared by all candidates of one round.
    seed:
        Seed or generator; each round consumes fresh draws from the one
        stream, so a seeded context is fully reproducible.
    include_query:
        Whether the query vertex's own weight counts towards the flow.

    Each round samples with the backend, executor and shard size of the
    session active at that call (see :func:`repro.session`).  Flips are
    drawn by shared stream code and propagation is exact on every
    backend, so the scores — and therefore the selections — are
    identical across backends for the same seed.  With an executor,
    each round's shared flip matrix is drawn shard by shard from
    per-shard child seeds — a different (equally valid) stream than the
    unsharded default, but bit-for-bit identical for any worker count
    given ``(seed, n_samples, shard_size)``, so selections stay
    reproducible when scaling across cores.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        source: VertexId,
        n_samples: int = 1000,
        seed: SeedLike = None,
        *,
        include_query: bool = False,
    ) -> None:
        if not graph.has_vertex(source):
            raise VertexNotFoundError(source)
        if n_samples <= 0:
            raise SampleSizeError(n_samples)
        self.graph = graph
        self.source = source
        self.n_samples = int(n_samples)
        self.include_query = include_query
        self._engine = SamplingEngine()
        self._rng = ensure_rng(seed)
        #: number of completed scoring rounds (diagnostics)
        self.rounds = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<EvaluationContext source={self.source!r} "
            f"n_samples={self.n_samples} backend={self._engine.backend.name!r}>"
        )

    # ------------------------------------------------------------------
    def score_candidates(
        self,
        base_edges: Sequence[Edge],
        candidates: Sequence[Edge],
    ) -> CandidateScores:
        """Score every candidate edge against one shared world batch.

        Draws the flip matrix for ``base_edges + candidates`` once,
        propagates the base closure once, and scores each candidate
        incrementally.  One call evaluates a whole greedy round.
        """
        base_edges = list(base_edges)
        candidates = list(candidates)
        # every universe edge gets its own independent flip column, so a
        # candidate repeated there would survive with two chances — loud
        # rejection instead of a silently inflated score
        seen = set(base_edges)
        for candidate in candidates:
            if candidate in seen:
                raise ValueError(
                    f"candidate {candidate!r} duplicates a base edge or another candidate"
                )
            seen.add(candidate)
        universe: List[Edge] = base_edges + candidates
        batch = self._engine.sample_flips(
            self.graph, self.source, self.n_samples, seed=self._rng, edges=universe
        )
        problem, flips = batch.problem, batch.flips
        n_base = len(base_edges)
        base_indices = np.arange(n_base)
        base_reached = self._engine.propagate(problem, flips, base_indices)

        weight_vector = flow_weight_vector(self.graph, problem, self.include_query)
        base_flow_worlds = _world_totals(base_reached, weight_vector, with_counts=False)[0]
        base_flow = float(base_flow_worlds.mean())

        # vertices already touched by the base subgraph (plus the source):
        # a candidate endpoint outside this set is reachable only through
        # the candidate edge itself, enabling the one-column fast path
        touched = np.zeros(problem.n_vertices, dtype=bool)
        touched[problem.source] = True
        if n_base:
            touched[problem.edge_u[base_indices]] = True
            touched[problem.edge_v[base_indices]] = True

        scores = np.empty(len(candidates), dtype=np.float64)
        fast = 0
        delta = 0
        for position, _ in enumerate(candidates):
            edge_index = n_base + position
            u = int(problem.edge_u[edge_index])
            v = int(problem.edge_v[edge_index])
            attach_target = None
            if touched[u] and not touched[v]:
                attach_target = (u, v)
            elif touched[v] and not touched[u]:
                attach_target = (v, u)
            if attach_target is not None:
                anchor, new_vertex = attach_target
                gained = flips[:, edge_index] & base_reached[:, anchor]
                scores[position] = float(
                    (base_flow_worlds + weight_vector[new_vertex] * gained).mean()
                )
                fast += 1
            else:
                active = np.append(base_indices, edge_index)
                reached = self._engine.propagate(
                    problem, flips, active, base_reached=base_reached
                )
                scores[position] = float(
                    _world_totals(reached, weight_vector, with_counts=False)[0].mean()
                )
                delta += 1

        self.rounds += 1
        return CandidateScores(
            candidates=tuple(candidates),
            scores=scores,
            base_flow=base_flow,
            n_samples=batch.n_samples,
            fast_evaluations=fast,
            delta_evaluations=delta,
        )


__all__ = ["CandidateScores", "EvaluationContext"]
