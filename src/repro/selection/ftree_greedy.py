"""Greedy edge selection on top of the F-tree (FT, FT+M, FT+M+CI, FT+M+DS).

Each round the selector scores every candidate edge as the flow of the
tree with the edge inserted, a delta over the committed tree, and
commits the edge with the highest flow (Section 6.1); ties go to the
first candidate in rank order.  The scores read aggregates that the
F-tree keeps current per insertion, so a round costs no pass over the
committed tree.  Edges to a new vertex (Case II) are scored all at
once by :meth:`FTree.probe_new_vertices`, one array expression over the
frontier; only edges that close a cycle go through :meth:`FTree.probe`
one by one.  The F-tree keeps each cycle candidate's plan, and an exact
estimate of its component, until an insertion changes a component the
plan read, so most cycle probes re-plan and re-estimate nothing; a
sampled estimate still goes through the sampler on every probe.  The
result's extras report ``reused_plans`` and ``fresh_plans`` beside
``exact_components``.  Three optional heuristics reduce the
per-iteration work, and all three only ever concern cycle candidates,
the only ones whose probe estimates anything:

* **Memoization (M, Section 6.2)** — bi-connected component estimates
  are cached by component content, so probing the same cycle twice costs
  nothing.
* **Confidence-interval pruning (CI, Section 6.3)** — a candidate whose
  new component needs estimation is first screened with that component
  estimated from a small sample size; if its optimistic upper bound
  cannot beat the best candidate's pessimistic lower bound the full
  estimation is skipped.
* **Delayed sampling (DS, Section 6.4)** — a candidate that was expensive
  to sample and yielded little gain is suspended for
  ``floor(log_c(cost / potential))`` iterations.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ftree.ftree import FTree
from repro.ftree.memo import MemoCache
from repro.ftree.sampler import ComponentSampler
from repro.graph.uncertain_graph import UncertainGraph
from repro.rng import SeedLike, derive_seed, ensure_rng
from repro.selection.base import (
    EdgeSelector,
    SelectionIteration,
    SelectionResult,
    Stopwatch,
)
from repro.selection.candidates import CandidateManager
from repro.types import Edge, VertexId

#: Minimum sample count before the CLT-based screening interval is trusted.
_SCREENING_SAMPLES = 30


class FTreeGreedySelector(EdgeSelector):
    """Greedy MaxFlow selection backed by the F-tree decomposition.

    Parameters
    ----------
    n_samples:
        Monte-Carlo samples per bi-connected component (paper: 1000).
    exact_threshold:
        Components with at most this many uncertain edges are evaluated
        exactly instead of sampled.
    memoize:
        Enable the component-memoization heuristic (FT+M).
    confidence:
        Enable confidence-interval pruning (FT+M+CI).
    delayed:
        Enable delayed sampling (FT+M+DS).
    delay_base:
        The penalisation parameter ``c`` of the delayed-sampling
        heuristic (paper default 2.0; must be > 1).
    alpha:
        Significance level of the pruning intervals (paper: 0.01); the
        F-tree is built with it.
    seed:
        Random seed or generator.
    include_query:
        Whether the query vertex's own weight counts towards the flow.

    The component samplers key their streams per selection round and
    component content (see :class:`~repro.ftree.sampler.ComponentSampler`),
    so within one round every probe of the same component draws the same
    worlds and candidate comparisons are free of cross-candidate noise.
    They are built in :meth:`select` and sample with the backend,
    executor and shard size of the session active there; selections stay
    bit-for-bit identical for any worker count given ``(seed, n_samples,
    shard_size)``.
    """

    def __init__(
        self,
        n_samples: int = 1000,
        exact_threshold: int = 10,
        memoize: bool = False,
        confidence: bool = False,
        delayed: bool = False,
        delay_base: float = 2.0,
        alpha: float = 0.01,
        seed: SeedLike = None,
        include_query: bool = False,
    ) -> None:
        if delay_base <= 1.0:
            raise ValueError(f"delay_base must be greater than 1, got {delay_base!r}")
        self.n_samples = n_samples
        self.exact_threshold = exact_threshold
        self.memoize = memoize
        self.confidence = confidence
        self.delayed = delayed
        self.delay_base = delay_base
        self.alpha = alpha
        self.include_query = include_query
        self._seed = seed
        self.name = self._build_name()

    def _build_name(self) -> str:
        name = "FT"
        if self.memoize:
            name += "+M"
        if self.confidence:
            name += "+CI"
        if self.delayed:
            name += "+DS"
        return name

    # ------------------------------------------------------------------
    def select(self, graph: UncertainGraph, query: VertexId, budget: int) -> SelectionResult:
        self._validate(graph, query, budget)
        stopwatch = Stopwatch()
        rng = ensure_rng(self._seed)
        memo = MemoCache() if self.memoize else None
        sampler = ComponentSampler(
            n_samples=self.n_samples,
            exact_threshold=self.exact_threshold,
            seed=rng,
            memo=memo,
        )
        screening_sampler = ComponentSampler(
            n_samples=_SCREENING_SAMPLES,
            exact_threshold=self.exact_threshold,
            seed=derive_seed(self._seed, 1) if self._seed is not None else None,
            memo=None,
        )
        ftree = FTree(graph, query, sampler=sampler, alpha=self.alpha)
        candidates = CandidateManager(graph, query)
        delays: Dict[Edge, int] = {}
        selected: List[Edge] = []
        iterations: List[SelectionIteration] = []
        current_flow = 0.0
        total_pruned = 0
        total_delayed = 0

        for index in range(budget):
            if not candidates.has_candidates():
                break
            iteration_watch = Stopwatch()
            ftree.begin_round(index)
            screening_sampler.begin_round(index)
            outcome = self._probe_candidates(
                ftree, candidates, delays, screening_sampler
            )
            if outcome is None and delays:
                # every candidate was suspended: clear the delays and retry
                delays.clear()
                outcome = self._probe_candidates(
                    ftree, candidates, delays, screening_sampler
                )
            if outcome is None:
                break
            best_edge, best_flow, cycle_info, probed, pruned, skipped = outcome
            total_pruned += pruned
            total_delayed += skipped

            if self.delayed:
                self._update_delays(delays, cycle_info, best_edge, best_flow, probed)

            candidates.mark_selected(best_edge)
            ftree.insert_edge(best_edge.u, best_edge.v)
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
                    candidates_pruned=pruned,
                    candidates_delayed=skipped,
                    elapsed_seconds=iteration_watch.elapsed(),
                )
            )

        final_flow = ftree.expected_flow(include_query=self.include_query)
        extras: Dict[str, float] = {
            "sampled_components": float(sampler.sampled_components),
            "exact_components": float(sampler.exact_components),
            "reused_plans": float(ftree.reused_plans),
            "fresh_plans": float(ftree.fresh_plans),
            "sampled_edges": float(sampler.sampled_edges),
            "pruned_candidates": float(total_pruned),
            "delayed_candidates": float(total_delayed),
        }
        if memo is not None:
            extras["memo_hits"] = float(memo.hits)
            extras["memo_hit_rate"] = memo.hit_rate
        return SelectionResult(
            algorithm=self.name,
            query=query,
            budget=budget,
            selected_edges=selected,
            expected_flow=final_flow,
            elapsed_seconds=stopwatch.elapsed(),
            iterations=iterations,
            extras=extras,
        )

    # ------------------------------------------------------------------
    def _probe_candidates(
        self,
        ftree: FTree,
        candidates: CandidateManager,
        delays: Dict[Edge, int],
        screening_sampler: ComponentSampler,
    ) -> Optional[Tuple[Edge, float, Dict[Edge, Tuple[float, int]], int, int, int]]:
        """Probe the current candidates and return the best edge.

        Returns ``None`` if no candidate could be probed (all suspended).
        The returned tuple is ``(best edge, best flow, cycle probe info,
        probed count, pruned count, delayed count)`` where the probe info
        maps each probed cycle candidate to ``(flow estimate, sampling
        cost)``.

        The candidates are walked in rank order.  Case II scores come in
        one batch; before each cycle candidate the block of Case II
        scores preceding it is merged into the running best (its first
        maximum, if strictly greater), so confidence-interval screening
        sees the same best lower bound as a candidate-by-candidate walk.
        Delays and screening apply only to candidates with a positive
        sampling cost, and every such candidate closes a cycle.
        """
        # the batch brings the committed tree's aggregates up to date before any cycle probe
        flows, lowers, _ = ftree.probe_new_vertices(
            candidates.anchors, candidates.gains, include_query=self.include_query
        )
        cycles = np.flatnonzero(candidates.new_vertices < 0).tolist()
        edges = candidates.candidates()
        best_position = -1
        best_flow = float("-inf")
        best_lower = float("-inf")
        cycle_info: Dict[Edge, Tuple[float, int]] = {}
        probed = len(edges) - len(cycles)
        pruned = 0
        skipped = 0

        start = 0
        for position in cycles + [len(edges)]:
            if position > start:
                block = start + int(flows[start:position].argmax())
                if flows[block] > best_flow:
                    best_position = block
                    best_flow = float(flows[block])
                    best_lower = float(lowers[block])
            start = position + 1
            if position == len(edges):
                break
            edge = edges[position]
            if self.delayed and delays.get(edge, 0) > 0:
                delays[edge] -= 1
                skipped += 1
                continue
            probed += 1
            if self.confidence and best_position >= 0:
                cost = ftree.probe_cost(edge)
                if cost > 0:
                    # screening pass with a coarse sampler; prune hopeless candidates
                    screening = ftree.probe(
                        edge, include_query=self.include_query, sampler=screening_sampler
                    )
                    if screening.upper < best_lower:
                        pruned += 1
                        cycle_info[edge] = (screening.upper, cost)
                        continue

            score = ftree.probe(edge, include_query=self.include_query)
            cycle_info[edge] = (score.flow, score.cost)
            if score.flow > best_flow:
                best_flow = score.flow
                best_position = position
                best_lower = score.lower
        if best_position < 0:
            return None
        return edges[best_position], best_flow, cycle_info, probed, pruned, skipped

    def _update_delays(
        self,
        delays: Dict[Edge, int],
        cycle_info: Dict[Edge, Tuple[float, int]],
        best_edge: Edge,
        best_flow: float,
        probed: int,
    ) -> None:
        """Apply the delayed-sampling rule ``d = floor(log_c(cost / potential))``.

        Only cycle candidates can have a positive cost, so ``cycle_info``
        holds every candidate the rule can delay; ``probed`` counts all
        probed candidates.
        """
        for edge, (flow, cost) in cycle_info.items():
            if edge == best_edge or cost <= 0:
                continue
            if best_flow <= 0:
                continue
            potential = max(flow, 0.0) / best_flow
            if potential <= 0:
                delay = probed  # effectively suspend for a long time
            else:
                delay = int(math.floor(math.log(cost / potential, self.delay_base)))
            if delay > 0:
                delays[edge] = delay
