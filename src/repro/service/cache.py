"""Digest-keyed LRU cache of sampled world batches.

The dominant cost of every Monte-Carlo answer is drawing and propagating
the possible worlds; the aggregation afterwards is a column gather.  A
:class:`WorldCache` therefore caches the :class:`~repro.reachability.engine.WorldBatch`
itself, keyed by a stable digest of everything the batch is a pure
function of:

* the **graph content** (vertices, weights, ordered edge/probability
  sequence — :func:`repro.digest.graph_digest`),
* the **edge restriction** in order (:func:`repro.digest.edge_sequence_digest`),
* the **source vertex**, the **backend**, the integer **seed**, the
  **sample count**, and the **shard plan** (``None`` for the unsharded
  stream, else the shard size — worker count is deliberately absent,
  it never changes a bit).

Content addressing makes invalidation automatic for correctness: any
graph mutation moves the graph digest, so stale entries can never be
*hit* — :meth:`WorldCache.invalidate_graph` exists to reclaim their
memory eagerly (and to make the invalidation observable in stats).

Weight-only mutations also move the digest even though they leave the
sampled worlds valid (weights enter at aggregation time).  That is a
deliberate trade: the cache key stays one digest of the full graph
content, and a weight edit can never serve a stale flow number.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Set, Union

from repro._runtime_state import UNSET, current_effective
from repro.digest import combine_digests, graph_digest
from repro.reachability.engine import WorldBatch
from repro.reachability.layout import invalidate_graph_layouts
from repro.telemetry import current_telemetry

logger = logging.getLogger(__name__)


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


class WorldCache:
    """Bounded LRU cache of sampled world batches with hit/miss/eviction stats.

    Parameters
    ----------
    max_entries:
        Maximum number of cached batches; the least recently used entry
        is evicted beyond that.  ``None`` disables eviction.

    All operations are thread-safe (one internal lock): a cache shared
    by concurrent evaluators — e.g. through one long-lived
    :func:`repro.session` serving several request threads — keeps its
    LRU order and statistics consistent.
    """

    def __init__(self, max_entries: Optional[int] = 64) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive or None, got {max_entries!r}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[int, tuple[WorldKey, WorldBatch]]" = OrderedDict()
        self._by_graph: Dict[int, Set[int]] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<WorldCache entries={len(self._entries)}"
            f"/{self.max_entries} hits={self.hits} misses={self.misses}>"
        )

    #: registry namespace the cache's stats are re-emitted under; the
    #: structurally identical LayoutCache overrides it (see
    #: :mod:`repro.reachability.layout`)
    _metric_prefix = "cache.world"

    # ------------------------------------------------------------------
    def get(self, key: WorldKey) -> Optional[WorldBatch]:
        """Return the cached batch for ``key`` (counting a hit or miss)."""
        with self._lock:
            entry = self._entries.get(key.digest)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key.digest)
        # re-emit through the ambient registry outside the lock: the
        # stats() dict stays the canonical per-instance view, the
        # registry aggregates across instances and layers
        tel = current_telemetry()
        if tel.enabled:
            tel.count(f"{self._metric_prefix}.{'misses' if entry is None else 'hits'}")
        return None if entry is None else entry[1]

    def put(self, key: WorldKey, batch: WorldBatch) -> None:
        """Store ``batch`` under ``key``, evicting the LRU entry if needed."""
        digest = key.digest
        evicted = False
        with self._lock:
            self._entries[digest] = (key, batch)
            self._entries.move_to_end(digest)
            self._by_graph.setdefault(key.graph_digest, set()).add(digest)
            if self.max_entries is not None and len(self._entries) > self.max_entries:
                evicted_digest, (evicted_key, _) = self._entries.popitem(last=False)
                self._drop_graph_index(evicted_key.graph_digest, evicted_digest)
                self.evictions += 1
                evicted = True
            entries = len(self._entries)
        tel = current_telemetry()
        if tel.enabled:
            tel.count(f"{self._metric_prefix}.puts")
            if evicted:
                tel.count(f"{self._metric_prefix}.evictions")
            tel.gauge(f"{self._metric_prefix}.entries", entries)

    def _drop_graph_index(self, graph_key: int, digest: int) -> None:
        members = self._by_graph.get(graph_key)
        if members is not None:
            members.discard(digest)
            if not members:
                del self._by_graph[graph_key]

    # ------------------------------------------------------------------
    def invalidate_graph(self, graph_or_digest: Union[int, object]) -> int:
        """Drop every batch sampled from the given graph content.

        Accepts either an :class:`~repro.graph.uncertain_graph.UncertainGraph`
        (its current content digest is computed) or a digest previously
        obtained from :func:`repro.digest.graph_digest` — useful to
        reclaim entries for the *pre-mutation* content, since mutating a
        graph moves its digest.  The default
        :class:`~repro.reachability.layout.LayoutCache` is invalidated
        for the same content in the same call, so interned graph layouts
        are reclaimed from the one mutation path the service exposes.
        Returns the number of dropped world batches (layout drops are
        visible in the layout cache's own stats).
        """
        digest = (
            graph_or_digest
            if isinstance(graph_or_digest, int)
            else graph_digest(graph_or_digest)
        )
        invalidate_graph_layouts(digest)
        with self._lock:
            members = self._by_graph.pop(digest, set())
            for entry_digest in members:
                self._entries.pop(entry_digest, None)
            self.invalidations += len(members)
            dropped = len(members)
        if dropped:
            logger.warning(
                "invalidated %d cached world batch(es) for graph digest %d",
                dropped,
                digest,
            )
            tel = current_telemetry()
            if tel.enabled:
                tel.count(f"{self._metric_prefix}.invalidations", dropped)
        return dropped

    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        with self._lock:
            self._entries.clear()
            self._by_graph.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.invalidations = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: WorldKey) -> bool:
        with self._lock:
            return key.digest in self._entries

    def keys(self) -> "list[WorldKey]":
        """Cached keys, least recently used first (for tests/diagnostics)."""
        with self._lock:
            return [key for key, _ in self._entries.values()]

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when no lookups).

        Both counters are snapshotted under the lock so a concurrent
        reader always sees a consistent ratio — reading ``hits`` and
        ``misses`` in two unlocked steps can interleave with a writer
        and report a rate computed from two different moments (the lock
        is re-entrant, so :meth:`stats` may call this while holding it).
        """
        with self._lock:
            hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Hit/miss/eviction statistics for reporting (one consistent view)."""
        with self._lock:
            return {
                "entries": float(len(self._entries)),
                "hits": float(self.hits),
                "misses": float(self.misses),
                "evictions": float(self.evictions),
                "invalidations": float(self.invalidations),
                "hit_rate": self.hit_rate,
                "cached_worlds": float(
                    sum(batch.n_samples for _, batch in self._entries.values())
                ),
            }


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
    if isinstance(cache, int):
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
