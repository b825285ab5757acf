"""Common interfaces and result objects for edge selectors."""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import BudgetError, VertexNotFoundError
from repro.graph.uncertain_graph import UncertainGraph
from repro.types import Edge, VertexId

@dataclass(frozen=True)
class SelectionIteration:
    """Diagnostics of one greedy iteration."""

    index: int
    edge: Optional[Edge]
    gain: float
    flow_after: float
    candidates_probed: int = 0
    candidates_pruned: int = 0
    candidates_delayed: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class SelectionResult:
    """Outcome of one selector run.

    Attributes
    ----------
    algorithm:
        Human-readable algorithm name ("FT+M", "Dijkstra", ...).
    query:
        The query vertex.
    budget:
        The requested edge budget ``k``.
    selected_edges:
        The edges chosen, in selection order (at most ``budget`` many).
    expected_flow:
        The selector's own estimate of the expected flow of the selected
        subgraph (harnesses typically re-evaluate with an independent
        estimator for fairness).
    elapsed_seconds:
        Total wall-clock time of the selection.
    iterations:
        Per-iteration diagnostics.
    extras:
        Selector-specific counters (memo hit rate, pruning counts, ...).
    """

    algorithm: str
    query: VertexId
    budget: int
    selected_edges: List[Edge]
    expected_flow: float
    elapsed_seconds: float
    iterations: List[SelectionIteration] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def n_selected(self) -> int:
        """Number of edges actually selected."""
        return len(self.selected_edges)

    def as_dict(self) -> dict:
        """Flatten the result for CSV/tabular reporting."""
        return {
            "algorithm": self.algorithm,
            "query": self.query,
            "budget": self.budget,
            "n_selected": self.n_selected,
            "expected_flow": self.expected_flow,
            "elapsed_seconds": self.elapsed_seconds,
            **{f"extra_{key}": value for key, value in self.extras.items()},
        }


class EdgeSelector(abc.ABC):
    """Abstract base class for edge-selection algorithms."""

    #: Human readable algorithm name, overridden by subclasses.
    name: str = "selector"

    @abc.abstractmethod
    def select(self, graph: UncertainGraph, query: VertexId, budget: int) -> SelectionResult:
        """Select up to ``budget`` edges maximising the expected flow towards ``query``."""

    # -- shared validation helpers --------------------------------------
    @staticmethod
    def _validate(graph: UncertainGraph, query: VertexId, budget: int) -> None:
        if not graph.has_vertex(query):
            raise VertexNotFoundError(query)
        if not isinstance(budget, int) or isinstance(budget, bool) or budget < 0:
            raise BudgetError(budget)


class Stopwatch:
    """Tiny helper measuring elapsed wall-clock seconds."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction."""
        return time.perf_counter() - self._start
