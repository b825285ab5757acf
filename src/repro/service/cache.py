"""Content-addressed LRU cache of sampled world batches.

The dominant cost of every Monte-Carlo answer is drawing and propagating
the possible worlds; the aggregation afterwards is a column gather.  A
:class:`WorldCache` therefore caches the :class:`~repro.reachability.engine.WorldBatch`
itself, keyed by a :class:`WorldKey` of everything the batch is a pure
function of:

* the **graph content** (vertices, weights, ordered edge/probability
  sequence — :func:`repro.digest.graph_digest`),
* the **edge restriction** in order (:func:`repro.digest.edge_sequence_digest`),
* the **source vertex**, the **backend**, the integer **seed**, the
  **sample count**, and the **shard plan** (``None`` for the unsharded
  stream, else the shard size — worker count is deliberately absent,
  it never changes a bit).

Content addressing makes invalidation automatic: any graph mutation
moves the graph digest, so a stale entry can never be *hit*, and the
LRU bound (:class:`repro.lru.LRUCache`) reclaims its memory.

Weight-only mutations also move the digest even though they leave the
sampled worlds valid (weights enter at aggregation time).  That is a
deliberate trade: the cache key stays one digest of the full graph
content, and a weight edit can never serve a stale flow number.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro._runtime_state import UNSET, current_effective
from repro.digest import combine_digests
from repro.lru import LRUCache
from repro.reachability.engine import WorldBatch


@dataclass(frozen=True)
class WorldKey:
    """Everything a cached world batch is a pure function of.

    ``source_repr`` carries the source vertex as its ``repr`` so the key
    hashes stably across processes (vertex ids are arbitrary hashables);
    ``shard_size`` is ``None`` for the unsharded historical stream and
    the resolved shard size when an executor is active — the two streams
    differ, so they must not share entries.
    """

    graph_digest: int
    edges_digest: Optional[int]
    source_repr: str
    backend: str
    seed: int
    n_samples: int
    shard_size: Optional[int]

    @property
    def digest(self) -> int:
        """Stable 128-bit digest of the full key."""
        return combine_digests(
            "world",
            self.graph_digest,
            self.edges_digest,
            self.source_repr,
            self.backend,
            self.seed,
            self.n_samples,
            self.shard_size,
        )


class WorldCache(LRUCache[WorldKey, WorldBatch]):
    """Bounded, thread-safe LRU cache of sampled world batches.

    Parameters
    ----------
    max_entries:
        Maximum number of cached batches; the least recently used entry
        is evicted beyond that.  ``None`` disables eviction.

    A cache shared by concurrent evaluators — e.g. through one
    long-lived :func:`repro.session` serving several request threads —
    keeps its LRU order and statistics consistent.  Counters are
    re-emitted under ``cache.world``.
    """

    def __init__(self, max_entries: Optional[int] = 64) -> None:
        super().__init__(max_entries, prefix="cache.world")

    def stats(self) -> Dict[str, float]:
        """The LRU statistics plus ``cached_worlds`` (one consistent view)."""
        with self._lock:
            stats = super().stats()
            stats["cached_worlds"] = float(
                sum(batch.n_samples for batch in self._entries.values())
            )
        return stats


#: Accepted forms of a cache specification: ``None`` (the ambient
#: default), ``0`` (caching disabled), a positive entry bound, or an
#: instance to share across evaluators.
CacheLike = Union[None, int, WorldCache]

#: The shared process-wide cache, created on first use (see
#: :func:`get_default_world_cache`).
_DEFAULT_WORLD_CACHE: Optional[WorldCache] = None
_DEFAULT_WORLD_CACHE_LOCK = threading.Lock()


def get_default_world_cache() -> Optional[WorldCache]:
    """Return the cache every unspecified ``cache=None`` spec resolves to.

    Resolution order: the innermost active :func:`repro.session` (which
    may pin a private cache, a shared instance, or ``None`` = caching
    disabled) → the shared process-wide :class:`WorldCache`, created
    lazily on first use.  Sharing that default instance is what lets
    successive batch calls (e.g. repeated figure runs in one process)
    reuse each other's sampled worlds.
    """
    global _DEFAULT_WORLD_CACHE
    effective = current_effective()
    if effective is not None and effective.world_cache is not UNSET:
        return effective.world_cache
    if _DEFAULT_WORLD_CACHE is None:
        # double-checked so concurrent first resolutions share one instance
        with _DEFAULT_WORLD_CACHE_LOCK:
            if _DEFAULT_WORLD_CACHE is None:
                _DEFAULT_WORLD_CACHE = WorldCache()
    return _DEFAULT_WORLD_CACHE


def resolve_cache(cache: CacheLike) -> Optional[WorldCache]:
    """Resolve a cache spec: default, disabled (``0``), sized, or instance."""
    if cache is None:
        return get_default_world_cache()
    if isinstance(cache, WorldCache):
        return cache
    if isinstance(cache, bool):
        raise TypeError("cache must be an entry bound or WorldCache, not bool")
    if isinstance(cache, (int, np.integer)):
        if cache < 0:
            raise ValueError(f"cache size must be >= 0, got {cache!r}")
        return None if cache == 0 else WorldCache(max_entries=cache)
    raise TypeError(f"cannot interpret {cache!r} as a world cache")


def world_key_source_repr(source: object) -> str:
    """Canonical ``repr`` of a source vertex for :class:`WorldKey` fields."""
    return repr(source)


__all__ = [
    "CacheLike",
    "WorldCache",
    "WorldKey",
    "get_default_world_cache",
    "resolve_cache",
    "world_key_source_repr",
]
