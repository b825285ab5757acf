"""The one bounded, thread-safe LRU behind every content-addressed cache.

Three caches hold data that is a pure function of its key: sampled
world batches (:class:`repro.service.cache.WorldCache`), interned graph
layouts (:class:`repro.reachability.layout.LayoutCache`) and component
reachability estimates (:class:`repro.ftree.memo.MemoCache`).  Each is a
thin use of :class:`LRUCache`.

Content addressing makes eager invalidation unnecessary: a mutated
graph or component moves its key, so a stale entry can never be hit,
and the LRU bound reclaims its memory.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Generic, Hashable, List, Optional, TypeVar

import numpy as np

from repro.telemetry import current_telemetry

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """Bounded LRU map with hit/miss/eviction statistics.

    Parameters
    ----------
    max_entries:
        Maximum number of entries (a positive integer, NumPy integers
        included); the least recently used entry is evicted beyond that.
        ``None`` disables eviction.
    prefix:
        Registry namespace the counters are re-emitted under
        (``{prefix}.hits``, ``.misses``, ``.puts``, ``.evictions`` and
        the ``{prefix}.entries`` gauge).

    All operations, counters included, are guarded by one re-entrant
    lock, so a cache shared by concurrent evaluators keeps its LRU order
    and statistics consistent.
    """

    def __init__(self, max_entries: Optional[int], prefix: str = "cache.lru") -> None:
        # a bool or a fractional bound is refused rather than truncated,
        # like the sample-count and worker-count checks
        if max_entries is not None:
            if isinstance(max_entries, bool) or not isinstance(max_entries, (int, np.integer)):
                raise TypeError(f"max_entries must be an int or None, got {max_entries!r}")
            if max_entries <= 0:
                raise ValueError(f"max_entries must be positive or None, got {max_entries!r}")
            max_entries = int(max_entries)
        self.max_entries = max_entries
        self.prefix = prefix
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} entries={len(self._entries)}"
            f"/{self.max_entries} hits={self.hits} misses={self.misses}>"
        )

    def get(self, key: K) -> Optional[V]:
        """Return the value for ``key`` or ``None`` (counting a hit or miss)."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
        # re-emit through the ambient registry outside the lock: stats()
        # stays the per-instance view, the registry aggregates instances
        current_telemetry().count(f"{self.prefix}.{'misses' if value is None else 'hits'}")
        return value

    def put(self, key: K, value: V) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if needed."""
        evicted = False
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if self.max_entries is not None and len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted = True
            entries = len(self._entries)
        tel = current_telemetry()
        tel.count(f"{self.prefix}.puts")
        if evicted:
            tel.count(f"{self.prefix}.evictions")
        tel.gauge(f"{self.prefix}.entries", entries)

    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> List[K]:
        """Cached keys, least recently used first (for tests/diagnostics)."""
        with self._lock:
            return list(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when no lookups).

        Both counters are read under the lock, so a concurrent reader
        never sees a ratio computed from two different moments.
        """
        with self._lock:
            hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Entry count and hit/miss/eviction statistics (one consistent view)."""
        with self._lock:
            return {
                "entries": float(len(self._entries)),
                "hits": float(self.hits),
                "misses": float(self.misses),
                "evictions": float(self.evictions),
                "hit_rate": self.hit_rate,
            }


__all__ = ["LRUCache"]
