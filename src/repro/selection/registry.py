"""Factory for the paper's named algorithm variants.

The evaluation compares seven algorithms; :func:`make_selector` builds
any of them from its name so the experiment harness, the CLI and the
benchmarks share one source of truth for their configuration.
"""

from __future__ import annotations

from typing import Dict

from repro.rng import SeedLike
from repro.selection.base import EdgeSelector
from repro.selection.dijkstra_tree import DijkstraSelector
from repro.selection.ftree_greedy import FTreeGreedySelector
from repro.selection.greedy_naive import NaiveGreedySelector
from repro.selection.random_baseline import RandomSelector

#: The algorithm names of the paper's evaluation (plus the Random sanity baseline).
ALGORITHM_NAMES = (
    "Naive",
    "Dijkstra",
    "FT",
    "FT+M",
    "FT+M+CI",
    "FT+M+DS",
    "FT+M+CI+DS",
    "Random",
)

def make_selector(
    name: str,
    n_samples: int = 1000,
    exact_threshold: int = 10,
    delay_base: float = 2.0,
    alpha: float = 0.01,
    seed: SeedLike = None,
    include_query: bool = False,
) -> EdgeSelector:
    """Instantiate one of the paper's algorithms by name.

    Parameters
    ----------
    name:
        One of :data:`ALGORITHM_NAMES`.
    n_samples:
        Monte-Carlo sample size used by the sampling-based selectors.
    exact_threshold:
        Bi-connected components with at most this many uncertain edges
        are evaluated exactly by the FT variants.
    delay_base:
        The ``c`` parameter of the delayed-sampling heuristic.
    alpha:
        Significance level for confidence-interval pruning.
    seed:
        Random seed or generator.
    include_query:
        Whether the query vertex's own weight counts towards the flow.

    The sampling backend, executor and shard size are not arguments: a
    selector samples with those of the session active when its
    ``select`` runs (see :func:`repro.session`).
    """
    flags = _FT_FLAGS.get(name)
    if flags is not None:
        memoize, confidence, delayed = flags
        return FTreeGreedySelector(
            n_samples=n_samples,
            exact_threshold=exact_threshold,
            memoize=memoize,
            confidence=confidence,
            delayed=delayed,
            delay_base=delay_base,
            alpha=alpha,
            seed=seed,
            include_query=include_query,
        )
    if name == "Naive":
        return NaiveGreedySelector(
            n_samples=n_samples,
            seed=seed,
            include_query=include_query,
        )
    if name == "Dijkstra":
        return DijkstraSelector(include_query=include_query)
    if name == "Random":
        return RandomSelector(
            n_samples=n_samples,
            exact_threshold=exact_threshold,
            seed=seed,
            include_query=include_query,
        )
    raise ValueError(f"unknown algorithm {name!r}; expected one of {ALGORITHM_NAMES}")


#: Mapping of FT variant name to (memoize, confidence, delayed) flags.
_FT_FLAGS: Dict[str, tuple] = {
    "FT": (False, False, False),
    "FT+M": (True, False, False),
    "FT+M+CI": (True, True, False),
    "FT+M+DS": (True, False, True),
    "FT+M+CI+DS": (True, True, True),
}
