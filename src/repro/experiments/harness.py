"""Generic experiment runner.

Runs a set of named selection algorithms on a graph, measures wall-clock
time, and re-evaluates every algorithm's selected subgraph with one
shared, higher-precision estimator so that flow numbers are comparable
across algorithms (a selector's own estimate can be biased by its own
sampling noise).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.ftree.builder import build_ftree
from repro.ftree.sampler import ComponentSampler
from repro.graph.uncertain_graph import UncertainGraph
from repro.rng import SeedLike, derive_seed
from repro.selection.base import SelectionResult
from repro.selection.registry import make_selector
from repro.types import Edge, VertexId


@dataclass(frozen=True)
class AlgorithmRun:
    """Result of one algorithm on one graph."""

    algorithm: str
    budget: int
    n_selected: int
    expected_flow: float
    evaluated_flow: float
    elapsed_seconds: float
    extras: Dict[str, float] = field(default_factory=dict)

    def as_row(self, **extra_columns) -> dict:
        """Flatten into a reporting row, merging additional sweep columns."""
        row = {
            "algorithm": self.algorithm,
            "budget": self.budget,
            "n_selected": self.n_selected,
            "expected_flow": self.expected_flow,
            "evaluated_flow": self.evaluated_flow,
            "elapsed_seconds": self.elapsed_seconds,
        }
        row.update(extra_columns)
        return row


def evaluate_flow(
    graph: UncertainGraph,
    edges: Iterable[Edge],
    query: VertexId,
    n_samples: int = 1000,
    exact_threshold: int = 14,
    seed: SeedLike = 12345,
    include_query: bool = False,
) -> float:
    """Independently evaluate the expected flow of a selected edge set.

    Builds an F-tree from scratch over ``edges`` and evaluates it with a
    generous sample budget (exact for small cyclic components), so the
    same yardstick is applied to every algorithm's output.  Backend,
    executor and shard size resolve from the active session.
    """
    sampler = ComponentSampler(
        n_samples=n_samples, exact_threshold=exact_threshold, seed=seed
    )
    ftree = build_ftree(graph, list(edges), query, sampler=sampler)
    return ftree.expected_flow(include_query=include_query)


def pick_query_vertex(graph: UncertainGraph) -> VertexId:
    """Pick a deterministic, well-connected query vertex (highest degree)."""
    best_vertex = None
    best_degree = -1
    for vertex in graph.vertices():
        degree = graph.degree(vertex)
        if degree > best_degree:
            best_degree = degree
            best_vertex = vertex
    if best_vertex is None:
        raise ValueError("cannot pick a query vertex from an empty graph")
    return best_vertex


def run_algorithms(
    graph: UncertainGraph,
    query: VertexId,
    budget: int,
    algorithms: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    seed: SeedLike = 0,
) -> List[AlgorithmRun]:
    """Run every named algorithm on ``graph`` and evaluate the results uniformly.

    Every selector and the shared evaluation yardstick resolve backend,
    executor and shard size from the active session, so one
    ``with repro.session(workers=4):`` around the call shares one pool.
    """
    config = config or ExperimentConfig()
    runs: List[AlgorithmRun] = []
    for index, name in enumerate(algorithms):
        algorithm_seed = derive_seed(seed, index + 1)
        n_samples = config.naive_samples if name == "Naive" else config.n_samples
        selector = make_selector(
            name,
            n_samples=n_samples,
            exact_threshold=config.exact_threshold,
            seed=algorithm_seed,
            include_query=config.include_query,
        )
        started = time.perf_counter()
        result: SelectionResult = selector.select(graph, query, budget)
        elapsed = time.perf_counter() - started
        evaluated = evaluate_flow(
            graph,
            result.selected_edges,
            query,
            n_samples=max(500, config.n_samples),
            exact_threshold=max(12, config.exact_threshold),
            seed=derive_seed(seed, 10_000 + index),
            include_query=config.include_query,
        )
        runs.append(
            AlgorithmRun(
                algorithm=name,
                budget=budget,
                n_selected=result.n_selected,
                expected_flow=result.expected_flow,
                evaluated_flow=evaluated,
                elapsed_seconds=elapsed,
                extras=dict(result.extras),
            )
        )
    return runs


def run_sweep(
    points: Sequence[Tuple[float, UncertainGraph, VertexId, int]],
    algorithms: Sequence[str],
    config: Optional[ExperimentConfig] = None,
    seed: SeedLike = 0,
    x_name: str = "x",
) -> List[dict]:
    """Run the algorithm set on every sweep point and return flat reporting rows.

    Parameters
    ----------
    points:
        Sequence of ``(x value, graph, query vertex, budget)`` tuples.
    algorithms:
        Algorithm names to run on each point.
    config:
        Shared experiment configuration.
    seed:
        Base seed; every point derives its own stream.
    x_name:
        Column name for the swept value in the returned rows.
    """
    rows: List[dict] = []
    for point_index, (x_value, graph, query, budget) in enumerate(points):
        runs = run_algorithms(
            graph,
            query,
            budget,
            algorithms,
            config=config,
            seed=derive_seed(seed, 100 + point_index),
        )
        for run in runs:
            rows.append(run.as_row(**{x_name: x_value, "graph": graph.name}))
    return rows
