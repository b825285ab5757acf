"""Batch runner: regenerate every figure and write the results to disk.

``run_all_figures`` executes each figure reproduction (at the provided
configuration) and writes one CSV per figure plus a Markdown summary
table into an output directory — the artefacts a reproduction report
links to.  The CLI exposes it as ``repro-flow experiment --figure all``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import ALL_FIGURES, FigureResult, run_figure
from repro.experiments.reporting import compare_algorithms, format_table, rows_to_csv

PathLike = Union[str, Path]


@dataclass
class FigureArtifacts:
    """Where one figure's regenerated data was written."""

    figure: str
    description: str
    csv_path: Optional[Path]
    n_rows: int
    algorithm_means: Dict[str, float] = field(default_factory=dict)


def _normalise(result) -> List[FigureResult]:
    """Figure functions return either one FigureResult or a dict of panels."""
    if isinstance(result, FigureResult):
        return [result]
    if isinstance(result, dict):
        return list(result.values())
    raise TypeError(f"unexpected figure result type {type(result)!r}")


def run_all_figures(
    output_dir: Optional[PathLike] = None,
    figures: Optional[Sequence[str]] = None,
    config: Optional[ExperimentConfig] = None,
) -> List[FigureArtifacts]:
    """Run the selected figure reproductions and write their CSVs.

    Parameters
    ----------
    output_dir:
        Directory for the CSV files and the ``SUMMARY.md``; ``None``
        skips writing and only returns the in-memory artefact records.
    figures:
        Figure ids (keys of :data:`ALL_FIGURES`); defaults to all of them.
    config:
        Experiment configuration passed to every figure that accepts one.

    Runtime knobs come from the active session: run inside
    ``repro.session(world_cache=N)`` to give the whole multi-figure run
    one sized world cache, so service-backed evaluations in different
    figures reuse each other's sampled batches.
    """
    selected = list(figures) if figures is not None else sorted(ALL_FIGURES)
    unknown = [figure for figure in selected if figure not in ALL_FIGURES]
    if unknown:
        raise ValueError(f"unknown figure ids {unknown!r}; known: {sorted(ALL_FIGURES)}")
    directory = None
    if output_dir is not None:
        directory = Path(output_dir)
        directory.mkdir(parents=True, exist_ok=True)

    artifacts: List[FigureArtifacts] = []
    for figure_id in selected:
        result = run_figure(figure_id, config)
        for panel in _normalise(result):
            csv_path = None
            if directory is not None:
                csv_path = directory / f"figure_{panel.figure.replace('/', '_')}.csv"
                csv_path.write_text(rows_to_csv(panel.rows) + "\n", encoding="utf-8")
            artifacts.append(
                FigureArtifacts(
                    figure=panel.figure,
                    description=panel.description,
                    csv_path=csv_path,
                    n_rows=len(panel.rows),
                    algorithm_means=compare_algorithms(panel.rows)
                    if panel.rows and "algorithm" in panel.rows[0]
                    else {},
                )
            )
    if directory is not None:
        _write_summary(directory, artifacts)
    return artifacts


def _write_summary(directory: Path, artifacts: List[FigureArtifacts]) -> None:
    """Write a Markdown overview of every regenerated figure."""
    lines = [
        "# Regenerated evaluation figures",
        "",
        "One CSV per figure panel; `evaluated_flow` and `elapsed_seconds` are",
        "the two series each figure of the paper plots.",
        "",
        "| figure | description | rows | csv | mean evaluated flow per algorithm |",
        "|---|---|---|---|---|",
    ]
    for artifact in artifacts:
        means = ", ".join(
            f"{name}: {value:.2f}" for name, value in sorted(artifact.algorithm_means.items())
        )
        csv_name = artifact.csv_path.name if artifact.csv_path is not None else "-"
        lines.append(
            f"| {artifact.figure} | {artifact.description} | {artifact.n_rows} "
            f"| {csv_name} | {means or '-'} |"
        )
    (directory / "SUMMARY.md").write_text("\n".join(lines) + "\n", encoding="utf-8")


def summary_table(artifacts: List[FigureArtifacts]) -> str:
    """Render the artefact list as an ASCII table (used by the CLI)."""
    rows = [
        {
            "figure": artifact.figure,
            "rows": artifact.n_rows,
            "csv": artifact.csv_path.name if artifact.csv_path else "-",
            "description": artifact.description,
        }
        for artifact in artifacts
    ]
    return format_table(rows, title="Regenerated figures")
