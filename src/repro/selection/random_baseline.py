"""Random connected growth: a sanity-check baseline.

Not part of the paper's evaluation, but useful to show that the greedy
heuristics are doing real work: it grows the selected subgraph by picking
uniformly random frontier edges until the budget is exhausted, and
evaluates the resulting flow with the F-tree.
"""

from __future__ import annotations

from typing import List

from repro.ftree.builder import build_ftree
from repro.ftree.sampler import ComponentSampler
from repro.graph.uncertain_graph import UncertainGraph
from repro.rng import SeedLike, ensure_rng
from repro.selection.base import (
    EdgeSelector,
    SelectionIteration,
    SelectionResult,
    Stopwatch,
)
from repro.selection.candidates import CandidateManager
from repro.types import Edge, VertexId


class RandomSelector(EdgeSelector):
    """Selects uniformly random candidate edges until the budget is spent."""

    name = "Random"

    def __init__(
        self,
        n_samples: int = 500,
        exact_threshold: int = 10,
        seed: SeedLike = None,
        include_query: bool = False,
    ) -> None:
        self.n_samples = n_samples
        self.exact_threshold = exact_threshold
        self.include_query = include_query
        self._seed = seed

    def select(self, graph: UncertainGraph, query: VertexId, budget: int) -> SelectionResult:
        self._validate(graph, query, budget)
        rng = ensure_rng(self._seed)
        stopwatch = Stopwatch()
        candidates = CandidateManager(graph, query)
        selected: List[Edge] = []
        iterations: List[SelectionIteration] = []
        for index in range(budget):
            frontier = candidates.candidates()
            if not frontier:
                break
            edge = frontier[int(rng.integers(0, len(frontier)))]
            candidates.mark_selected(edge)
            selected.append(edge)
            iterations.append(
                SelectionIteration(index=index, edge=edge, gain=0.0, flow_after=0.0)
            )
        sampler = ComponentSampler(
            n_samples=self.n_samples,
            exact_threshold=self.exact_threshold,
            seed=rng,
        )
        ftree = build_ftree(graph, selected, query, sampler=sampler)
        flow = ftree.expected_flow(include_query=self.include_query)
        return SelectionResult(
            algorithm=self.name,
            query=query,
            budget=budget,
            selected_edges=selected,
            expected_flow=flow,
            elapsed_seconds=stopwatch.elapsed(),
            iterations=iterations,
        )
