"""Per-figure experiment reproductions (paper Section 7).

Every public function regenerates the data behind one figure of the
paper's evaluation: a list of rows, one per (swept value, algorithm),
with the expected information flow and the running time — exactly the
two series every figure plots.  Default parameters are scaled down so a
full run finishes on a laptop; pass an
:class:`~repro.experiments.config.ExperimentConfig` (or
``ExperimentConfig.paper_scale()``) to change that.

The mapping from figure to function is listed in :data:`ALL_FIGURES`;
``python -m repro.cli experiment --figure NAME`` runs one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.registry import load_dataset
from repro.experiments.config import FAST_ALGORITHMS, ExperimentConfig
from repro.experiments.harness import evaluate_flow, pick_query_vertex, run_sweep
from repro.ftree.builder import build_ftree
from repro.ftree.sampler import ComponentSampler
from repro.graph.generators import erdos_renyi_graph, partitioned_graph, wsn_graph
from repro.graph.uncertain_graph import UncertainGraph
from repro.reachability.engine import SamplingEngine
from repro.reachability.exact import exact_expected_flow
from repro.rng import derive_seed
from repro.selection.ftree_greedy import FTreeGreedySelector
from repro.types import VertexId


@dataclass
class FigureResult:
    """Rows reproducing one figure, plus metadata for reporting."""

    figure: str
    description: str
    x_name: str
    rows: List[dict] = field(default_factory=list)

    def series(self, value: str = "evaluated_flow") -> Dict[str, List[Tuple[float, float]]]:
        """Per-algorithm ``(x, value)`` series, ready for plotting."""
        series: Dict[str, List[Tuple[float, float]]] = {}
        for row in self.rows:
            series.setdefault(row["algorithm"], []).append((row[self.x_name], row[value]))
        for points in series.values():
            points.sort()
        return series


def _query_for(graph: UncertainGraph) -> VertexId:
    return pick_query_vertex(graph)


# ----------------------------------------------------------------------
# Figure 5: graph size sweeps
# ----------------------------------------------------------------------
def figure5a_graph_size_locality(
    sizes: Sequence[int] = (150, 300, 600),
    config: Optional[ExperimentConfig] = None,
) -> FigureResult:
    """Fig. 5(a): flow and runtime versus |V| on the *partitioned* locality graphs."""
    config = config or ExperimentConfig()
    points = []
    for index, size in enumerate(sizes):
        graph = partitioned_graph(size, degree=config.degree, seed=derive_seed(config.seed, index))
        points.append((float(size), graph, _query_for(graph), config.budget))
    rows = run_sweep(points, config.algorithms, config=config, seed=config.seed, x_name="n_vertices")
    return FigureResult(
        figure="5a",
        description="Changing graph size with locality assumption (partitioned)",
        x_name="n_vertices",
        rows=rows,
    )


def figure5b_graph_size_no_locality(
    sizes: Sequence[int] = (150, 300, 600),
    config: Optional[ExperimentConfig] = None,
) -> FigureResult:
    """Fig. 5(b): flow and runtime versus |V| on Erdős graphs (no locality)."""
    config = config or ExperimentConfig()
    points = []
    for index, size in enumerate(sizes):
        graph = erdos_renyi_graph(
            size, average_degree=config.degree, seed=derive_seed(config.seed, index)
        )
        points.append((float(size), graph, _query_for(graph), config.budget))
    rows = run_sweep(points, config.algorithms, config=config, seed=config.seed, x_name="n_vertices")
    return FigureResult(
        figure="5b",
        description="Changing graph size without locality assumption (Erdős)",
        x_name="n_vertices",
        rows=rows,
    )


# ----------------------------------------------------------------------
# Figure 6: density sweeps
# ----------------------------------------------------------------------
def figure6a_density_locality(
    degrees: Sequence[int] = (4, 6, 10),
    config: Optional[ExperimentConfig] = None,
) -> FigureResult:
    """Fig. 6(a): flow and runtime versus vertex degree on partitioned graphs."""
    config = config or ExperimentConfig()
    points = []
    for index, degree in enumerate(degrees):
        graph = partitioned_graph(
            config.n_vertices, degree=degree, seed=derive_seed(config.seed, index)
        )
        points.append((float(degree), graph, _query_for(graph), config.budget))
    rows = run_sweep(points, config.algorithms, config=config, seed=config.seed, x_name="degree")
    return FigureResult(
        figure="6a",
        description="Changing graph density with locality assumption (partitioned)",
        x_name="degree",
        rows=rows,
    )


def figure6b_density_no_locality(
    degrees: Sequence[int] = (4, 6, 10),
    config: Optional[ExperimentConfig] = None,
) -> FigureResult:
    """Fig. 6(b): flow and runtime versus vertex degree on Erdős graphs."""
    config = config or ExperimentConfig()
    points = []
    for index, degree in enumerate(degrees):
        graph = erdos_renyi_graph(
            config.n_vertices, average_degree=degree, seed=derive_seed(config.seed, index)
        )
        points.append((float(degree), graph, _query_for(graph), config.budget))
    rows = run_sweep(points, config.algorithms, config=config, seed=config.seed, x_name="degree")
    return FigureResult(
        figure="6b",
        description="Changing graph density without locality assumption (Erdős)",
        x_name="degree",
        rows=rows,
    )


# ----------------------------------------------------------------------
# Figure 7: budget sweeps
# ----------------------------------------------------------------------
def figure7a_budget_locality(
    budgets: Sequence[int] = (5, 10, 20),
    config: Optional[ExperimentConfig] = None,
) -> FigureResult:
    """Fig. 7(a): flow and runtime versus budget k on partitioned graphs."""
    config = config or ExperimentConfig()
    graph = partitioned_graph(config.n_vertices, degree=config.degree, seed=config.seed)
    query = _query_for(graph)
    points = [(float(budget), graph, query, budget) for budget in budgets]
    rows = run_sweep(points, config.algorithms, config=config, seed=config.seed, x_name="budget_k")
    return FigureResult(
        figure="7a",
        description="Changing budget k with locality assumption (partitioned)",
        x_name="budget_k",
        rows=rows,
    )


def figure7b_budget_no_locality(
    budgets: Sequence[int] = (5, 10, 20),
    config: Optional[ExperimentConfig] = None,
) -> FigureResult:
    """Fig. 7(b): flow and runtime versus budget k on Erdős graphs."""
    config = config or ExperimentConfig()
    graph = erdos_renyi_graph(config.n_vertices, average_degree=config.degree, seed=config.seed)
    query = _query_for(graph)
    points = [(float(budget), graph, query, budget) for budget in budgets]
    rows = run_sweep(points, config.algorithms, config=config, seed=config.seed, x_name="budget_k")
    return FigureResult(
        figure="7b",
        description="Changing budget k without locality assumption (Erdős)",
        x_name="budget_k",
        rows=rows,
    )


# ----------------------------------------------------------------------
# Figure 8: synthetic wireless sensor networks
# ----------------------------------------------------------------------
def figure8_wsn(
    eps_values: Sequence[float] = (0.05, 0.07),
    budgets: Sequence[int] = (5, 10, 20),
    config: Optional[ExperimentConfig] = None,
) -> Dict[float, FigureResult]:
    """Fig. 8(a)/(b): budget sweep on WSN graphs for each connection radius eps."""
    config = config or ExperimentConfig()
    results: Dict[float, FigureResult] = {}
    for eps_index, eps in enumerate(eps_values):
        graph = wsn_graph(
            config.n_vertices, eps=eps, seed=derive_seed(config.seed, eps_index)
        )
        query = _query_for(graph)
        points = [(float(budget), graph, query, budget) for budget in budgets]
        rows = run_sweep(
            points, config.algorithms, config=config, seed=config.seed, x_name="budget_k"
        )
        results[eps] = FigureResult(
            figure="8a" if eps_index == 0 else "8b",
            description=f"Synthetic wireless sensor network, eps={eps}",
            x_name="budget_k",
            rows=rows,
        )
    return results


# ----------------------------------------------------------------------
# Figure 9: real-world surrogates
# ----------------------------------------------------------------------
def figure9_real_world(
    datasets: Sequence[str] = ("san-joaquin", "facebook", "dblp", "youtube"),
    budgets: Sequence[int] = (5, 10, 20),
    config: Optional[ExperimentConfig] = None,
    sizes: Optional[Dict[str, int]] = None,
) -> Dict[str, FigureResult]:
    """Fig. 9(a)-(d): budget sweep on the four real-world dataset surrogates."""
    config = config or ExperimentConfig(algorithms=FAST_ALGORITHMS)
    panel_names = {"san-joaquin": "9a", "facebook": "9b", "dblp": "9c", "youtube": "9d"}
    results: Dict[str, FigureResult] = {}
    for dataset_index, name in enumerate(datasets):
        size = None if sizes is None else sizes.get(name)
        graph = load_dataset(name, n_vertices=size, seed=derive_seed(config.seed, dataset_index))
        query = _query_for(graph)
        points = [(float(budget), graph, query, budget) for budget in budgets]
        rows = run_sweep(
            points, config.algorithms, config=config, seed=config.seed, x_name="budget_k"
        )
        results[name] = FigureResult(
            figure=panel_names.get(name, name),
            description=f"Real-world surrogate dataset: {name}",
            x_name="budget_k",
            rows=rows,
        )
    return results


# ----------------------------------------------------------------------
# Parameter c (delayed sampling penalty) — Section 7.3, "Parameter c"
# ----------------------------------------------------------------------
def parameter_c_sweep(
    c_values: Sequence[float] = (1.01, 1.2, 2.0, 4.0, 16.0),
    config: Optional[ExperimentConfig] = None,
) -> FigureResult:
    """Sweep the delayed-sampling penalisation parameter ``c`` (FT+M+DS)."""
    config = config or ExperimentConfig()
    graph = partitioned_graph(config.n_vertices, degree=config.degree, seed=config.seed)
    query = _query_for(graph)
    rows: List[dict] = []
    for index, c in enumerate(c_values):
        selector = FTreeGreedySelector(
            n_samples=config.n_samples,
            exact_threshold=config.exact_threshold,
            memoize=True,
            delayed=True,
            delay_base=c,
            seed=derive_seed(config.seed, index),
        )
        result = selector.select(graph, query, config.budget)
        evaluated = evaluate_flow(
            graph,
            result.selected_edges,
            query,
            n_samples=max(500, config.n_samples),
            seed=derive_seed(config.seed, 999 + index),
        )
        rows.append(
            {
                "c": float(c),
                "algorithm": "FT+M+DS",
                "evaluated_flow": evaluated,
                "expected_flow": result.expected_flow,
                "elapsed_seconds": result.elapsed_seconds,
                "delayed_candidates": result.extras.get("delayed_candidates", 0.0),
            }
        )
    return FigureResult(
        figure="param-c",
        description="Delayed sampling penalisation parameter c",
        x_name="c",
        rows=rows,
    )


# ----------------------------------------------------------------------
# Estimator variance ablation — Section 7.3 discussion of Fig. 5(b)
# ----------------------------------------------------------------------
def estimator_variance_ablation(
    n_vertices: int = 12,
    average_degree: float = 3.0,
    n_samples: int = 100,
    repetitions: int = 30,
    seed: Optional[int] = 0,
) -> FigureResult:
    """Compare whole-graph sampling with component-wise (F-tree) estimation.

    A small cyclic graph (all of its edges selected, so bi-connected
    components exist and both estimators must sample) is evaluated
    exactly by enumeration; both estimators are then run ``repetitions``
    times and their empirical bias and variance reported.  The paper
    argues (Section 7.3) that sampling independent components separately
    yields a lower variance than sampling the whole graph with the same
    sample size.
    """
    graph = erdos_renyi_graph(
        n_vertices, average_degree=average_degree, seed=seed, weight_range=(1.0, 5.0)
    )
    query = pick_query_vertex(graph)
    selected = graph.edge_list()
    exact = exact_expected_flow(graph, query, edges=selected).expected_flow

    engine = SamplingEngine()
    naive_estimates = []
    ftree_estimates = []
    for repetition in range(repetitions):
        naive = engine.expected_flow(
            graph,
            query,
            n_samples=n_samples,
            seed=derive_seed(seed, 100 + repetition),
            edges=selected,
        )
        naive_estimates.append(naive.expected_flow)
        sampler = ComponentSampler(
            n_samples=n_samples,
            exact_threshold=0,  # force sampling so the comparison is fair
            seed=derive_seed(seed, 500 + repetition),
        )
        ftree = build_ftree(graph, selected, query, sampler=sampler)
        ftree_estimates.append(ftree.expected_flow())

    rows = [
        {
            "estimator": "whole-graph MC",
            "exact_flow": exact,
            "mean_estimate": float(np.mean(naive_estimates)),
            "variance": float(np.var(naive_estimates, ddof=1)),
            "abs_bias": abs(float(np.mean(naive_estimates)) - exact),
            "n_samples": n_samples,
            "repetitions": repetitions,
        },
        {
            "estimator": "F-tree component MC",
            "exact_flow": exact,
            "mean_estimate": float(np.mean(ftree_estimates)),
            "variance": float(np.var(ftree_estimates, ddof=1)),
            "abs_bias": abs(float(np.mean(ftree_estimates)) - exact),
            "n_samples": n_samples,
            "repetitions": repetitions,
        },
    ]
    return FigureResult(
        figure="variance-ablation",
        description="Whole-graph versus component-wise sampling variance",
        x_name="estimator",
        rows=rows,
    )


#: Figure id -> callable producing it with default (scaled-down) parameters.
ALL_FIGURES: Dict[str, Callable[..., object]] = {
    "5a": figure5a_graph_size_locality,
    "5b": figure5b_graph_size_no_locality,
    "6a": figure6a_density_locality,
    "6b": figure6b_density_no_locality,
    "7a": figure7a_budget_locality,
    "7b": figure7b_budget_no_locality,
    "8": figure8_wsn,
    "9": figure9_real_world,
    "param-c": parameter_c_sweep,
    "variance": estimator_variance_ablation,
}


def run_figure(figure: str, config: Optional[ExperimentConfig] = None) -> object:
    """Reproduce ``ALL_FIGURES[figure]``, forwarding ``config`` where accepted.

    The variance ablation runs its own fixed setting and takes no
    ``config``; an unknown id raises :class:`ValueError`.
    """
    try:
        figure_fn = ALL_FIGURES[figure]
    except KeyError:
        raise ValueError(
            f"unknown figure {figure!r}; known: {sorted(ALL_FIGURES)}"
        ) from None
    if config is None or figure == "variance":
        return figure_fn()
    return figure_fn(config=config)
