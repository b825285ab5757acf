"""The Naive greedy competitor: whole-graph Monte-Carlo flow estimation.

The paper's Naive baseline (Section 7.2) applies the same greedy edge
selection as the F-tree algorithms but estimates the expected flow of
every probed candidate subgraph by sampling the *entire* candidate
subgraph (1000 worlds by default).

Each selection round draws one shared batch of possible worlds and scores
every candidate of the round on it through
:class:`~repro.reachability.context.EvaluationContext` (common random
numbers): candidate comparisons carry no cross-candidate sampling noise
and one backend draw is amortized over the whole round.
"""

from __future__ import annotations

from typing import List

from repro.graph.uncertain_graph import UncertainGraph
from repro.reachability.context import EvaluationContext
from repro.rng import SeedLike, ensure_rng
from repro.selection.base import (
    EdgeSelector,
    SelectionIteration,
    SelectionResult,
    Stopwatch,
)
from repro.selection.candidates import CandidateManager
from repro.types import Edge, VertexId


class NaiveGreedySelector(EdgeSelector):
    """Greedy selection with whole-graph Monte-Carlo estimation.

    Parameters
    ----------
    n_samples:
        Possible worlds sampled per selection round (paper: 1000).
    seed:
        Random seed or generator.
    include_query:
        Whether the query vertex's own weight counts towards the flow.

    Every world batch is drawn with the backend, executor and shard size
    of the session active in :meth:`select`; selections stay bit-for-bit
    identical for any worker count given ``(seed, n_samples,
    shard_size)``.
    """

    name = "Naive"

    def __init__(
        self,
        n_samples: int = 1000,
        seed: SeedLike = None,
        include_query: bool = False,
    ) -> None:
        self.n_samples = n_samples
        self.include_query = include_query
        self._seed = seed

    def select(self, graph: UncertainGraph, query: VertexId, budget: int) -> SelectionResult:
        self._validate(graph, query, budget)
        rng = ensure_rng(self._seed)
        stopwatch = Stopwatch()
        candidates = CandidateManager(graph, query)
        selected: List[Edge] = []
        iterations: List[SelectionIteration] = []
        current_flow = 0.0
        fast_evaluations = 0
        delta_evaluations = 0
        context = EvaluationContext(
            graph,
            query,
            n_samples=self.n_samples,
            seed=rng,
            include_query=self.include_query,
        )

        for index in range(budget):
            if not candidates.has_candidates():
                break
            iteration_watch = Stopwatch()
            frontier = candidates.candidates()
            scores = context.score_candidates(selected, frontier)
            _, best_edge, best_flow = scores.best()
            fast_evaluations += scores.fast_evaluations
            delta_evaluations += scores.delta_evaluations
            candidates.mark_selected(best_edge)
            selected.append(best_edge)
            gain = best_flow - current_flow
            current_flow = best_flow
            iterations.append(
                SelectionIteration(
                    index=index,
                    edge=best_edge,
                    gain=gain,
                    flow_after=current_flow,
                    candidates_probed=len(frontier),
                    elapsed_seconds=iteration_watch.elapsed(),
                )
            )

        if not selected and self.include_query:
            current_flow = float(graph.weight(query))  # the query vertex alone
        extras = {
            "n_samples": float(self.n_samples),
            "fast_evaluations": float(fast_evaluations),
            "delta_evaluations": float(delta_evaluations),
        }
        return SelectionResult(
            algorithm=self.name,
            query=query,
            budget=budget,
            selected_edges=selected,
            expected_flow=current_flow,
            elapsed_seconds=stopwatch.elapsed(),
            iterations=iterations,
            extras=extras,
        )

