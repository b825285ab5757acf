"""Tests for the shared bounded LRU (`repro.lru`) and its three caches.

The LRU order, bound check and statistics tests run over every cache
built on :class:`LRUCache` — world batches, graph layouts and the F-tree
memo — each with keys and values of its own kind.
"""

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.ftree.memo import MemoCache, MemoEntry
from repro.lru import LRUCache
from repro.reachability.layout import LayoutCache
from repro.service.cache import WorldCache, WorldKey
from repro.telemetry import Telemetry
from repro.types import Edge


def world_key(i: int) -> WorldKey:
    return WorldKey(
        graph_digest=1,
        edges_digest=None,
        source_repr="0",
        backend="csr",
        seed=i,
        n_samples=100,
        shard_size=None,
    )


#: cache class -> (key of the i-th entry, a value of the kind it holds)
CACHES = {
    WorldCache: (world_key, SimpleNamespace(n_samples=4)),
    LayoutCache: (lambda i: 1000 + i, SimpleNamespace(n_edges=3)),
    MemoCache: (
        lambda i: MemoCache.make_key([Edge(i, i + 1)], i),
        MemoEntry(probabilities={"a": 0.5}, n_samples=100, exact=False),
    ),
}

#: test id of each class; a cache's telemetry prefix is ``cache.<id>``
NAMES = {LRUCache: "lru", WorldCache: "world", LayoutCache: "layout", MemoCache: "memo"}


@pytest.fixture(params=list(CACHES), ids=NAMES.get)
def cache_class(request):
    return request.param


class TestBoundCheck:
    @pytest.mark.parametrize("cls", list(NAMES), ids=NAMES.get)
    @pytest.mark.parametrize("bound", [True, 2.5, "4"])
    def test_bool_and_non_integer_bounds_raise_type_error(self, cls, bound):
        with pytest.raises(TypeError):
            cls(max_entries=bound)

    @pytest.mark.parametrize("cls", list(NAMES), ids=NAMES.get)
    @pytest.mark.parametrize("bound", [0, -1])
    def test_non_positive_bounds_raise_value_error(self, cls, bound):
        with pytest.raises(ValueError):
            cls(max_entries=bound)

    @pytest.mark.parametrize("cls", list(NAMES), ids=NAMES.get)
    def test_numpy_integers_and_none_are_bounds(self, cls):
        cache = cls(max_entries=np.int64(4))
        assert cache.max_entries == 4 and type(cache.max_entries) is int
        assert cls(max_entries=None).max_entries is None


class TestLRUBehaviour:
    def test_eviction_order_is_least_recently_used(self, cache_class):
        key, value = CACHES[cache_class]
        cache = cache_class(max_entries=2)
        cache.put(key(0), value)
        cache.put(key(1), value)
        # touch the first entry so the second becomes LRU, then overflow
        assert cache.get(key(0)) is value
        cache.put(key(2), value)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.keys() == [key(0), key(2)]
        assert key(1) not in cache
        # the evicted entry misses, the survivors hit
        assert cache.get(key(1)) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_counters_are_emitted_under_the_cache_prefix(self, cache_class):
        key, value = CACHES[cache_class]
        prefix = f"cache.{NAMES[cache_class]}"
        tel = Telemetry()
        with repro.session(telemetry=tel):
            cache = cache_class(max_entries=1)
            cache.get(key(0))
            cache.put(key(0), value)
            cache.get(key(0))
            cache.put(key(1), value)
        snapshot = tel.snapshot()
        counters = {
            name: count for name, count in snapshot["counters"].items() if name.startswith(prefix)
        }
        assert counters == {
            f"{prefix}.hits": 1,
            f"{prefix}.misses": 1,
            f"{prefix}.puts": 2,
            f"{prefix}.evictions": 1,
        }
        assert snapshot["gauges"][f"{prefix}.entries"] == 1


class TestConcurrentStats:
    """The statistics surface must stay consistent under contention.

    ``hit_rate`` used to read ``hits`` and ``misses`` in two unlocked
    steps, so a reader interleaving with a writer could see a ratio
    computed from two different moments (e.g. momentarily > 1.0 after a
    hit landed between the two reads).  Both counters are snapshotted
    under the cache lock.
    """

    def test_hit_rate_snapshot_is_consistent_under_writer_storm(self, cache_class):
        key, value = CACHES[cache_class]
        cache = cache_class(max_entries=8)
        cache.put(key(0), value)
        stop = threading.Event()
        anomalies = []

        def writer():
            while not stop.is_set():
                cache.get(key(0))  # hit
                cache.get(key(999))  # miss

        def reader():
            while not stop.is_set():
                rate = cache.hit_rate
                if not (0.0 <= rate <= 1.0):
                    anomalies.append(rate)
                stats = cache.stats()
                total = stats["hits"] + stats["misses"]
                expected = stats["hits"] / total if total else 0.0
                if stats["hit_rate"] != expected:
                    anomalies.append(stats)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert anomalies == []

    def test_hit_rate_matches_counters_exactly(self, cache_class):
        key, value = CACHES[cache_class]
        cache = cache_class(max_entries=4)
        assert cache.hit_rate == 0.0
        cache.get(key(0))  # miss
        cache.put(key(0), value)
        cache.get(key(0))  # hit
        cache.get(key(0))  # hit
        assert cache.hit_rate == pytest.approx(2 / 3)
        assert cache.stats()["hit_rate"] == pytest.approx(2 / 3)
