"""Experiment harness reproducing the paper's evaluation (Section 7).

Each figure of the evaluation is regenerated by a function in
:mod:`repro.experiments.figures`; the generic sweep machinery lives in
:mod:`repro.experiments.harness` and the textual output (the "rows" and
"series" the paper plots) in :mod:`repro.experiments.reporting`.  The
worked examples of Figures 1 and 3 are reproduced in
:mod:`repro.experiments.running_example`.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import (
    AlgorithmRun,
    evaluate_flow,
    run_algorithms,
    run_sweep,
)
from repro.experiments.reporting import format_table, rows_to_csv
from repro.experiments.figures import (
    FigureResult,
    figure5a_graph_size_locality,
    figure5b_graph_size_no_locality,
    figure6a_density_locality,
    figure6b_density_no_locality,
    figure7a_budget_locality,
    figure7b_budget_no_locality,
    figure8_wsn,
    figure9_real_world,
    parameter_c_sweep,
    estimator_variance_ablation,
    ALL_FIGURES,
)
from repro.experiments.running_example import (
    example1_graph,
    example1_report,
    ftree_example_graph,
    ftree_example_report,
)

__all__ = [
    "ExperimentConfig",
    "AlgorithmRun",
    "evaluate_flow",
    "run_algorithms",
    "run_sweep",
    "format_table",
    "rows_to_csv",
    "FigureResult",
    "figure5a_graph_size_locality",
    "figure5b_graph_size_no_locality",
    "figure6a_density_locality",
    "figure6b_density_no_locality",
    "figure7a_budget_locality",
    "figure7b_budget_no_locality",
    "figure8_wsn",
    "figure9_real_world",
    "parameter_c_sweep",
    "estimator_variance_ablation",
    "ALL_FIGURES",
    "example1_graph",
    "example1_report",
    "ftree_example_graph",
    "ftree_example_report",
]
