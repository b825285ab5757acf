"""Experiment configuration objects.

The paper's default setting is ``|V| = 10,000``, vertex degree 6,
budget ``k = 200`` and 1000 Monte-Carlo samples.  Pure-Python Monte-Carlo
at that scale takes hours per figure, so the default configuration here
is scaled down (see DESIGN.md §4 and EXPERIMENTS.md); the paper-scale
values can be requested explicitly through :meth:`ExperimentConfig.paper_scale`
or by setting the environment variable ``REPRO_BENCH_SCALE`` (a float
multiplier applied to graph sizes and budgets by the benchmark suite).

Runtime knobs — sampling backend, CRN mode, workers, shard size, world
cache — are not experiment settings: every figure resolves them from the
active :func:`repro.session`, so ``with repro.session(backend="naive"):``
reaches every selector and yardstick an experiment runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from repro.exceptions import ExperimentError

#: The algorithm set of the paper's figures, in plotting order.
DEFAULT_ALGORITHMS: Tuple[str, ...] = (
    "Dijkstra",
    "Naive",
    "FT",
    "FT+M",
    "FT+M+CI",
    "FT+M+DS",
    "FT+M+CI+DS",
)

#: Algorithms that stay fast enough for larger sweeps (Naive excluded).
FAST_ALGORITHMS: Tuple[str, ...] = (
    "Dijkstra",
    "FT",
    "FT+M",
    "FT+M+CI",
    "FT+M+DS",
    "FT+M+CI+DS",
)


def bench_scale() -> float:
    """Return the global benchmark scale factor from ``REPRO_BENCH_SCALE``.

    ``1.0`` (the default) keeps the scaled-down sizes; larger values move
    the experiments towards the paper's original scale.
    """
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError as error:
        raise ExperimentError(f"REPRO_BENCH_SCALE must be a number, got {raw!r}") from error
    if value <= 0:
        raise ExperimentError(f"REPRO_BENCH_SCALE must be positive, got {value!r}")
    return value


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep: a label plus the overriding value."""

    label: str
    value: float


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by all figure reproductions.

    Attributes
    ----------
    n_vertices:
        Graph size used when the sweep does not vary it.
    degree:
        Average vertex degree used by the synthetic generators.
    budget:
        Edge budget ``k``.
    n_samples:
        Monte-Carlo samples per estimation for the sampling selectors.
    naive_samples:
        Sample size for the (much slower) Naive baseline.
    exact_threshold:
        Bi-components with at most this many uncertain edges are solved
        exactly by the FT variants.
    algorithms:
        Algorithm names to run (see :data:`DEFAULT_ALGORITHMS`).
    seed:
        Base random seed; every algorithm/point derives its own stream.
    repetitions:
        Number of independent repetitions averaged per point.
    """

    n_vertices: int = 300
    degree: int = 6
    budget: int = 12
    n_samples: int = 150
    naive_samples: int = 60
    exact_threshold: int = 10
    algorithms: Sequence[str] = field(default=DEFAULT_ALGORITHMS)
    seed: Optional[int] = 0
    repetitions: int = 1
    include_query: bool = False

    def __post_init__(self) -> None:
        if self.n_vertices <= 0:
            raise ExperimentError("n_vertices must be positive")
        if self.budget < 0:
            raise ExperimentError("budget must be non-negative")
        if self.n_samples <= 0 or self.naive_samples <= 0:
            raise ExperimentError("sample sizes must be positive")
        if self.repetitions <= 0:
            raise ExperimentError("repetitions must be positive")

    def scaled(self, factor: float) -> "ExperimentConfig":
        """Return a copy with graph size and budget scaled by ``factor``."""
        return replace(
            self,
            n_vertices=max(10, int(self.n_vertices * factor)),
            budget=max(1, int(self.budget * factor)),
        )

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """The configuration the paper reports (expensive: hours of runtime)."""
        return cls(
            n_vertices=10_000,
            degree=6,
            budget=200,
            n_samples=1000,
            naive_samples=1000,
            repetitions=1,
        )

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """A deliberately tiny configuration for unit tests and smoke runs."""
        return cls(
            n_vertices=60,
            degree=4,
            budget=6,
            n_samples=60,
            naive_samples=30,
            algorithms=("Dijkstra", "FT", "FT+M"),
        )
