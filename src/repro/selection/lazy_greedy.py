"""Lazy greedy (CELF-style) edge selection on the F-tree.

An extension beyond the paper: the expected information flow is monotone
in the edge set and, in practice, close to submodular — the marginal
gain of an edge can only shrink slightly as other edges are added (it can
grow when a later edge creates a shortcut towards the query vertex,
which is why this remains a heuristic rather than an exact reformulation
of the greedy algorithm).  The lazy-greedy strategy of Leskovec et al.
(CELF) therefore applies: keep candidates in a max-heap keyed by their
*last known* marginal gain, and only re-evaluate the top candidate; if it
stays on top after re-evaluation it is selected without touching the
rest of the frontier.  A re-evaluation is one :meth:`FTree.probe
<repro.ftree.ftree.FTree.probe>`: the candidate's flow scored as a delta
over the committed F-tree, which is never copied.

Compared to the paper's delayed-sampling heuristic, lazy greedy needs no
tuning parameter ``c`` and gives the same selections as plain FT greedy
whenever the gains are truly non-increasing.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.ftree.ftree import FTree
from repro.ftree.memo import MemoCache
from repro.ftree.sampler import ComponentSampler
from repro.graph.uncertain_graph import UncertainGraph
from repro.rng import SeedLike, ensure_rng
from repro.selection.base import EdgeSelector, SelectionIteration, SelectionResult, Stopwatch
from repro.selection.candidates import CandidateManager
from repro.types import Edge, VertexId


class LazyGreedySelector(EdgeSelector):
    """CELF-style lazy greedy selection backed by the F-tree.

    Parameters
    ----------
    n_samples:
        Monte-Carlo samples per bi-connected component.
    exact_threshold:
        Components with at most this many uncertain edges are evaluated
        exactly.
    memoize:
        Share component estimates through a memoization cache.
    seed:
        Random seed or generator.
    include_query:
        Whether the query vertex's own weight counts towards the flow.
    crn:
        Common-random-numbers candidate scoring (the default): the
        component sampler keys its streams per selection round and
        component content, so re-evaluating the heap's top candidate
        compares against gains measured on the same worlds.  ``False``
        restores the sequential-stream resampling reference behaviour.

    The component sampler is built in :meth:`select` and samples with
    the backend, executor and shard size of the session active there,
    keeping selections bit-for-bit identical for any worker count.
    """

    name = "FT+Lazy"

    def __init__(
        self,
        n_samples: int = 1000,
        exact_threshold: int = 10,
        memoize: bool = True,
        seed: SeedLike = None,
        include_query: bool = False,
        *,
        crn: bool = True,
    ) -> None:
        self.n_samples = n_samples
        self.exact_threshold = exact_threshold
        self.memoize = memoize
        self.include_query = include_query
        self.crn = bool(crn)
        self._seed = seed

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
            crn=self.crn,
        )
        ftree = FTree(graph, query, sampler=sampler)
        candidates = CandidateManager(graph, query)
        selected: List[Edge] = []
        iterations: List[SelectionIteration] = []
        current_flow = 0.0
        evaluations = 0

        # heap entries: (-last_known_gain, round_evaluated, tie_breaker, edge)
        heap: List[Tuple[float, int, int, Edge]] = []
        tie_breaker = 0
        for edge in candidates:
            heap.append((-float("inf"), -1, tie_breaker, edge))
            tie_breaker += 1
        heapq.heapify(heap)

        for index in range(budget):
            if not candidates.has_candidates():
                break
            iteration_watch = Stopwatch()
            ftree.begin_round(index)
            probed = 0
            best_edge: Optional[Edge] = None
            best_flow = current_flow
            while heap:
                negative_gain, evaluated_round, _, edge = heapq.heappop(heap)
                if edge not in candidates:
                    continue
                if evaluated_round == index and negative_gain != -float("inf"):
                    # the top entry is fresh for this round: it wins
                    best_edge = edge
                    best_flow = current_flow - negative_gain
                    break
                flow = ftree.probe(edge, include_query=self.include_query).flow
                probed += 1
                evaluations += 1
                gain = flow - current_flow
                tie_breaker += 1
                heapq.heappush(heap, (-gain, index, tie_breaker, edge))
                # if this freshly evaluated candidate is still the best, take it
                if heap and heap[0][3] == edge and heap[0][1] == index:
                    negative_gain, _, _, edge = heapq.heappop(heap)
                    best_edge = edge
                    best_flow = current_flow - negative_gain
                    break
            if best_edge is None:
                break
            candidates.mark_selected(best_edge)
            ftree.insert_edge(best_edge.u, best_edge.v)
            selected.append(best_edge)
            gain = best_flow - current_flow
            current_flow = best_flow
            # push the brand-new frontier edges, in rank order, with an
            # optimistic (infinite) key; none of them was ever on the frontier
            for edge in candidates.added_edges:
                tie_breaker += 1
                heapq.heappush(heap, (-float("inf"), -1, tie_breaker, edge))
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

        final_flow = ftree.expected_flow(include_query=self.include_query)
        extras: Dict[str, float] = {"flow_evaluations": float(evaluations)}
        if memo is not None:
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
