"""Memoization cache for bi-connected component reachability functions.

The component-memoization heuristic (paper Section 6.2) avoids
re-sampling a bi-connected component whose content did not change since
it was last estimated.  The cache key is the component's *content* — its
edge set and articulation vertex — rather than the probing candidate
edge, which subsumes the paper's per-candidate memoization and stays
valid when the same component re-appears while probing a different
candidate edge.

:class:`MemoCache` is one use of the shared :class:`repro.lru.LRUCache`
and reports under ``cache.memo``.  :func:`repro.digest.content_digest`
hashes the same content notion into a stable integer:
:class:`~repro.ftree.sampler.ComponentSampler` keys its counter-based
random streams on that digest, so that within a selection round every
probe of the same component content draws the same possible worlds —
memoization and common random numbers agree on what "the same
component" means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.lru import LRUCache
from repro.types import Edge, VertexId

#: Cache key: (frozenset of component edges, articulation vertex).
MemoKey = Tuple[FrozenSet[Edge], VertexId]

__all__ = ["MemoCache", "MemoEntry", "MemoKey"]


@dataclass(frozen=True)
class MemoEntry:
    """A cached reachability estimate for one component content."""

    probabilities: Dict[VertexId, float]
    n_samples: Optional[int]
    exact: bool


class MemoCache(LRUCache[MemoKey, MemoEntry]):
    """Bounded LRU cache of component reachability estimates.

    Parameters
    ----------
    max_entries:
        Maximum number of cached components; the least recently used
        entry is evicted beyond that.  ``None`` disables eviction.
    """

    def __init__(self, max_entries: Optional[int] = 10_000) -> None:
        super().__init__(max_entries, prefix="cache.memo")

    @staticmethod
    def make_key(edges: Iterable[Edge], articulation: VertexId) -> MemoKey:
        """Build the cache key for a component content."""
        return frozenset(edges), articulation
