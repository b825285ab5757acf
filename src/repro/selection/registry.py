"""Factory for the paper's named algorithm variants.

The evaluation compares seven algorithms; :func:`make_selector` builds
any of them from its name so the experiment harness, the CLI and the
benchmarks share one source of truth for their configuration.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro._runtime_state import resolve_field
from repro.parallel.executor import ExecutorLike
from repro.reachability.backends import BackendLike
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

#: Sampling mode used when nothing else pins one — neither an explicit
#: ``crn=`` argument, nor an active :func:`repro.session`, nor
#: ``repro.runtime.defaults.crn``.
DEFAULT_CRN = True


def get_default_crn() -> bool:
    """Return the sampling mode every ``crn=None`` call resolves to.

    Resolution order: the innermost active :func:`repro.session` (if it
    pins a mode) → ``repro.runtime.defaults.crn`` → :data:`DEFAULT_CRN`.
    """
    return resolve_field("crn", DEFAULT_CRN)


def make_selector(
    name: str,
    n_samples: int = 1000,
    exact_threshold: int = 10,
    delay_base: float = 2.0,
    alpha: float = 0.01,
    seed: SeedLike = None,
    include_query: bool = False,
    backend: BackendLike = None,
    crn: Optional[bool] = None,
    executor: ExecutorLike = None,
    shard_size: Optional[int] = None,
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
    backend:
        Possible-world sampling backend used by the sampling-based
        selectors (see :data:`repro.reachability.backends.BACKEND_NAMES`).
    crn:
        Common-random-numbers candidate scoring for the sampling-based
        selectors: one shared batch of possible worlds per selection
        round instead of a fresh draw per candidate.  ``None`` (the
        default) defers to :func:`get_default_crn`; ``False`` restores
        the paper's literal per-candidate resampling reference mode.
    executor:
        Sharded-sampling executor for the sampling-based selectors (see
        :mod:`repro.parallel`): a worker count, an executor instance
        (pass one instance to share a process pool across selectors), or
        ``None`` for the process-wide default (normally unsharded).
    shard_size:
        Worlds per shard when an executor is active.
    """
    if crn is None:
        crn = get_default_crn()
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
            backend=backend,
            crn=crn,
            executor=executor,
            shard_size=shard_size,
        )
    if name == "Naive":
        return NaiveGreedySelector(
            n_samples=n_samples,
            seed=seed,
            include_query=include_query,
            backend=backend,
            crn=crn,
            executor=executor,
            shard_size=shard_size,
        )
    if name == "Dijkstra":
        return DijkstraSelector(include_query=include_query)
    if name == "Random":
        return RandomSelector(
            n_samples=n_samples,
            exact_threshold=exact_threshold,
            seed=seed,
            include_query=include_query,
            backend=backend,
            crn=crn,
            executor=executor,
            shard_size=shard_size,
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
