"""Edge-selection algorithms for the MaxFlow problem (Section 6).

Given a probabilistic graph, a query vertex and an edge budget ``k``,
every selector returns the set of edges it would activate together with
per-iteration diagnostics.  Available selectors:

* :class:`DijkstraSelector` — maximum-probability spanning-tree baseline;
* :class:`NaiveGreedySelector` — greedy edge selection with whole-graph
  Monte-Carlo flow estimation (the paper's "Naive" competitor);
* :class:`FTreeGreedySelector` — greedy selection on top of the F-tree
  with optional memoization (FT+M), confidence-interval pruning
  (FT+M+CI) and delayed sampling (FT+M+DS);
* :class:`RandomSelector` — random connected growth (sanity baseline);
* :func:`exhaustive_optimal_selection` — brute-force optimum for tiny
  instances, used to measure the quality gap of the heuristics.

:func:`make_selector` builds the paper's named algorithm variants
("Naive", "Dijkstra", "FT", "FT+M", "FT+M+CI", "FT+M+DS", "FT+M+CI+DS").

All sampling-based selectors score the candidates of one selection
round with common random numbers: every candidate is evaluated on the
same possible worlds (see :mod:`repro.reachability.context` and
:mod:`repro.ftree.sampler`).
"""

from repro.selection.base import (
    EdgeSelector,
    SelectionIteration,
    SelectionResult,
)
from repro.selection.candidates import CandidateManager
from repro.selection.dijkstra_tree import DijkstraSelector
from repro.selection.greedy_naive import NaiveGreedySelector
from repro.selection.ftree_greedy import FTreeGreedySelector
from repro.selection.random_baseline import RandomSelector
from repro.selection.exact_optimal import exhaustive_optimal_selection
from repro.selection.registry import ALGORITHM_NAMES, make_selector

__all__ = [
    "EdgeSelector",
    "SelectionIteration",
    "SelectionResult",
    "CandidateManager",
    "DijkstraSelector",
    "NaiveGreedySelector",
    "FTreeGreedySelector",
    "RandomSelector",
    "exhaustive_optimal_selection",
    "ALGORITHM_NAMES",
    "make_selector",
]
