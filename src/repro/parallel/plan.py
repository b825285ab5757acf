"""Shard planning: how one sampling request splits into fixed-size pieces.

A :class:`ShardPlan` is pure arithmetic — ``n_samples`` worlds split
into ``ceil(n_samples / shard_size)`` shards, every shard full except
possibly the last — and is therefore identical for every executor and
worker count.  The plan's shard count is what the deterministic
seed-splitting keys on (shard ``i`` always receives child seed ``i``),
so the plan is part of the reproducibility contract: results are a
function of ``(seed, n_samples, shard_size)`` and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro._runtime_state import resolve_field
from repro.exceptions import SampleSizeError

#: Sentinel accepted by the estimators' ``n_samples`` argument.
AUTO_SAMPLES = "auto"

#: Default worlds per shard.  Small enough that a paper-scale request
#: (1000-5000 samples) splits into enough shards to keep several workers
#: busy, large enough that per-shard dispatch overhead stays negligible.
DEFAULT_SHARD_SIZE = 256


def get_default_shard_size() -> int:
    """Return the shard size sharded sampling uses.

    The innermost active :func:`repro.session` that pins a shard size
    names it, else :data:`DEFAULT_SHARD_SIZE`.
    """
    return resolve_field("shard_size", DEFAULT_SHARD_SIZE)


def check_shard_size(shard_size: object, name: str = "shard_size") -> None:
    """Reject anything but a positive ``int`` shard size.

    A bool or a fractional size is refused rather than truncated: the
    shard size is part of the determinism key, so ``2.9`` silently
    running 2-world shards would misreport which stream was drawn.
    """
    if isinstance(shard_size, bool) or not isinstance(shard_size, int):
        raise TypeError(f"{name} must be an int, got {shard_size!r}")
    if shard_size <= 0:
        raise ValueError(f"{name} must be positive, got {shard_size!r}")


def check_sample_count(
    n_samples: object, allow_auto: bool = False, name: str = "n_samples"
) -> bool:
    """Reject anything but a positive integer sample count.

    Returns True for the adaptive sentinel :data:`AUTO_SAMPLES` (accepted
    only with ``allow_auto``) and False for a count.  A bool or a
    fractional count is refused rather than truncated, like
    :func:`check_shard_size`: ``2.9`` silently running 2 worlds would
    misreport the estimate's sample count.  NumPy integers are counts.
    """
    if allow_auto and isinstance(n_samples, str):
        if n_samples != AUTO_SAMPLES:
            raise ValueError(
                f"{name} must be a positive integer or {AUTO_SAMPLES!r}, got {n_samples!r}"
            )
        return True
    if isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {n_samples!r}")
    if n_samples <= 0:
        raise SampleSizeError(n_samples)
    return False


@dataclass(frozen=True)
class ShardPlan:
    """The split of ``n_samples`` worlds into fixed-size shards.

    Attributes
    ----------
    n_samples:
        Total number of worlds requested (may be zero).
    shard_size:
        Worlds per shard; every shard holds exactly this many except
        possibly the last one, which holds the remainder.
    """

    n_samples: int
    shard_size: int

    def __post_init__(self) -> None:
        if self.n_samples < 0:
            raise ValueError(f"n_samples must be non-negative, got {self.n_samples!r}")
        check_shard_size(self.shard_size)

    @property
    def n_shards(self) -> int:
        """Number of shards (zero when no samples were requested)."""
        return -(-self.n_samples // self.shard_size)

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        """Per-shard world counts, in shard order; sums to ``n_samples``."""
        full, remainder = divmod(self.n_samples, self.shard_size)
        sizes = [self.shard_size] * full
        if remainder:
            sizes.append(remainder)
        return tuple(sizes)

    def offsets(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(start, stop)`` sample offsets per shard, in shard order."""
        start = 0
        for size in self.shard_sizes:
            yield start, start + size
            start += size


def plan_shards(n_samples: int, shard_size: int = DEFAULT_SHARD_SIZE) -> ShardPlan:
    """Build the shard plan for a sampling request (validates both inputs)."""
    return ShardPlan(n_samples=int(n_samples), shard_size=shard_size)
