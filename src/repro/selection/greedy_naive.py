"""The Naive greedy competitor: whole-graph Monte-Carlo flow estimation.

The paper's Naive baseline (Section 7.2) applies the same greedy edge
selection as the F-tree algorithms but estimates the expected flow of
every probed candidate subgraph by sampling the *entire* candidate
subgraph (1000 worlds by default).

Two evaluation modes are supported:

* ``crn=True`` (the default): one shared batch of possible worlds per
  selection round, scored through
  :class:`~repro.reachability.context.EvaluationContext` — every
  candidate of a round is evaluated on the *same* worlds (common random
  numbers), so candidate comparisons carry no cross-candidate sampling
  noise and one backend draw is amortized over the whole round.
* ``crn=False`` (the paper's literal resampling scheme, kept as the
  reference mode): the whole candidate subgraph is re-sampled from
  scratch for every probed candidate — slow and noisy, since the argmax
  compares estimates across independent draws.
"""

from __future__ import annotations

from typing import List, Optional

from repro.graph.uncertain_graph import UncertainGraph
from repro.reachability.context import EvaluationContext
from repro.reachability.engine import SamplingEngine
from repro.rng import SeedLike, ensure_rng
from repro.selection.base import EdgeSelector, SelectionIteration, SelectionResult, Stopwatch
from repro.selection.candidates import CandidateManager
from repro.types import Edge, VertexId


class NaiveGreedySelector(EdgeSelector):
    """Greedy selection with whole-graph Monte-Carlo estimation.

    Parameters
    ----------
    n_samples:
        Possible worlds sampled per candidate evaluation (paper: 1000).
    seed:
        Random seed or generator.
    include_query:
        Whether the query vertex's own weight counts towards the flow.
    crn:
        Common-random-numbers candidate scoring (see the module
        docstring).  On by default; ``False`` restores the paper's
        per-candidate resampling reference behaviour.

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
        *,
        crn: bool = True,
    ) -> None:
        self.n_samples = n_samples
        self.include_query = include_query
        self.crn = bool(crn)
        self._rng = ensure_rng(seed)

    def select(self, graph: UncertainGraph, query: VertexId, budget: int) -> SelectionResult:
        self._validate(graph, query, budget)
        stopwatch = Stopwatch()
        candidates = CandidateManager(graph, query)
        selected: List[Edge] = []
        iterations: List[SelectionIteration] = []
        current_flow = 0.0
        fast_evaluations = 0
        delta_evaluations = 0
        context: Optional[EvaluationContext] = None
        if self.crn and budget > 0:
            context = EvaluationContext(
                graph,
                query,
                n_samples=self.n_samples,
                seed=self._rng,
                include_query=self.include_query,
            )

        for index in range(budget):
            if not candidates.has_candidates():
                break
            iteration_watch = Stopwatch()
            frontier = candidates.candidates()
            if context is not None:
                scores = context.score_candidates(selected, frontier)
                _, best_edge, best_flow = scores.best()
                probed = len(frontier)
                fast_evaluations += scores.fast_evaluations
                delta_evaluations += scores.delta_evaluations
            else:
                best_edge, best_flow, probed = self._probe_resampling(
                    graph, query, selected, frontier
                )
            if best_edge is None:
                break
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
                    candidates_probed=probed,
                    elapsed_seconds=iteration_watch.elapsed(),
                )
            )

        extras = {"n_samples": float(self.n_samples), "crn": float(self.crn)}
        if context is not None:
            extras["fast_evaluations"] = float(fast_evaluations)
            extras["delta_evaluations"] = float(delta_evaluations)
        return SelectionResult(
            algorithm=self.name,
            query=query,
            budget=budget,
            selected_edges=selected,
            expected_flow=current_flow if selected else 0.0,
            elapsed_seconds=stopwatch.elapsed(),
            iterations=iterations,
            extras=extras,
        )

    def _probe_resampling(
        self,
        graph: UncertainGraph,
        query: VertexId,
        selected: List[Edge],
        frontier: List[Edge],
    ):
        """Reference mode: re-sample the whole subgraph per candidate."""
        engine = SamplingEngine()
        best_edge: Optional[Edge] = None
        best_flow = float("-inf")
        probed = 0
        for edge in frontier:
            probed += 1
            estimate = engine.expected_flow(
                graph,
                query,
                n_samples=self.n_samples,
                seed=self._rng,
                edges=selected + [edge],
                include_query=self.include_query,
            )
            if estimate.expected_flow > best_flow:
                best_flow = estimate.expected_flow
                best_edge = edge
        return best_edge, best_flow, probed
