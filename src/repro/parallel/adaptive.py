"""Adaptive CI-driven stopping for sharded Monte-Carlo sampling.

The paper runs every estimation at a fixed sample budget (1000 worlds),
which wastes work on easy instances: a reachability probability near 0
or 1 is pinned down tightly after a few hundred worlds.  Adaptive mode
(``n_samples="auto"`` on the estimators) instead draws *shards* of
worlds until the confidence interval of the quantity being estimated —
Wilson or normal for reachability probabilities, the weighted flow
interval for expected flow (:mod:`repro.reachability.confidence`) — is
narrower than a target width, with a hard sample cap as the backstop.

Determinism: the shard schedule below is a pure function of the settings
and the shard size — rounds draw 1, 2, 4, … shards (doubling saturates a
process pool after the first rounds) regardless of how many workers run
them, and shard seeds come from the same pre-split sequence as fixed
budgets.  The stopping decision therefore depends only on
``(seed, settings, shard_size)``: adaptive estimates are bit-for-bit
identical for any worker count, just like fixed-budget ones.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator

from repro.parallel.plan import AUTO_SAMPLES, plan_shards

logger = logging.getLogger(__name__)

#: Interval methods accepted by :class:`AdaptiveSettings`.
ADAPTIVE_CI_METHODS = ("wilson", "normal")


@dataclass(frozen=True)
class AdaptiveSettings:
    """Stopping rule for adaptive (``n_samples="auto"``) sampling.

    Attributes
    ----------
    target_width:
        Stop once the confidence interval is at most this wide.  For
        reachability estimates the width is in probability units; for
        expected flow it is in flow units (weights included).
    alpha:
        Significance level of the interval (``1 - alpha`` coverage).
    method:
        ``"wilson"`` (default; better behaved near 0/1) or ``"normal"``
        (the paper's Definition 10 interval).
    max_samples:
        Hard cap; sampling stops here even if the target width was not
        reached.
    min_samples:
        Never stop before this many worlds — guards against an interval
        that looks deceptively narrow after a handful of all-identical
        worlds.
    """

    target_width: float = 0.05
    alpha: float = 0.05
    method: str = "wilson"
    max_samples: int = 10_000
    min_samples: int = 100

    def __post_init__(self) -> None:
        if self.target_width <= 0.0:
            raise ValueError(f"target_width must be positive, got {self.target_width!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.method not in ADAPTIVE_CI_METHODS:
            raise ValueError(
                f"unknown interval method {self.method!r}; expected one of {ADAPTIVE_CI_METHODS}"
            )
        if self.max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {self.max_samples!r}")
        if self.min_samples <= 0:
            raise ValueError(f"min_samples must be positive, got {self.min_samples!r}")
        if self.min_samples > self.max_samples:
            raise ValueError(
                f"min_samples ({self.min_samples}) cannot exceed max_samples ({self.max_samples})"
            )


def shard_rounds(settings: AdaptiveSettings, shard_size: int) -> Iterator[int]:
    """Yield the shard count of each adaptive round (1, 2, 4, … doubling).

    The schedule covers exactly the shards of ``plan_shards(max_samples,
    shard_size)`` — the last round is clipped to the cap — and depends
    only on the settings and shard size, never on worker count, which is
    what keeps adaptive stopping worker-invariant.
    """
    total_shards = plan_shards(settings.max_samples, shard_size).n_shards
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "adaptive schedule: %d shard(s) of %d world(s) toward the %d-sample cap",
            total_shards,
            shard_size,
            settings.max_samples,
        )
    drawn = 0
    round_shards = 1
    while drawn < total_shards:
        take = min(round_shards, total_shards - drawn)
        yield take
        drawn += take
        round_shards *= 2
