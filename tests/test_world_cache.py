"""Tests for the digest-keyed world cache (`repro.service.cache`)."""

import pytest

import repro
from repro.graph.generators import erdos_renyi_graph
from repro.service import (
    BatchEvaluator,
    QueryRequest,
    WorldCache,
    get_default_world_cache,
    resolve_cache,
)
from repro.service.cache import WorldKey


def make_key(**overrides) -> WorldKey:
    base = dict(
        graph_digest=1,
        edges_digest=None,
        source_repr="0",
        backend="csr",
        seed=7,
        n_samples=100,
        shard_size=None,
    )
    base.update(overrides)
    return WorldKey(**base)


@pytest.fixture
def graph():
    return erdos_renyi_graph(40, average_degree=4, seed=2)


def flow_request(seed=7, n_samples=120):
    return QueryRequest(kind="expected_flow", source=0, n_samples=n_samples, seed=seed)


class TestWorldKey:
    def test_digest_is_stable(self):
        assert make_key().digest == make_key().digest

    def test_every_component_separates_keys(self):
        base = make_key().digest
        assert make_key(graph_digest=2).digest != base
        assert make_key(edges_digest=5).digest != base
        assert make_key(source_repr="1").digest != base
        assert make_key(backend="naive").digest != base
        assert make_key(seed=8).digest != base
        assert make_key(n_samples=200).digest != base
        assert make_key(shard_size=256).digest != base


class TestLRUBehaviour:
    def test_eviction_order_is_least_recently_used(self, graph):
        cache = WorldCache(max_entries=2)
        evaluator = BatchEvaluator(cache=cache)
        requests = [flow_request(seed=s) for s in (1, 2)]
        evaluator.evaluate(graph, requests)
        assert len(cache) == 2

        # touch seed=1 so seed=2 becomes the LRU entry, then add seed=3
        evaluator.evaluate_one(graph, flow_request(seed=1))
        evaluator.evaluate_one(graph, flow_request(seed=3))
        assert len(cache) == 2
        assert cache.evictions == 1
        seeds = [key.seed for key in cache.keys()]
        assert seeds == [1, 3]  # seed=2 was evicted

        # the evicted entry misses, the survivors hit
        before = cache.misses
        evaluator.evaluate_one(graph, flow_request(seed=2))
        assert cache.misses == before + 1

    def test_unbounded_cache_never_evicts(self, graph):
        cache = WorldCache(max_entries=None)
        evaluator = BatchEvaluator(cache=cache)
        for seed in range(5):
            evaluator.evaluate_one(graph, flow_request(seed=seed))
        assert len(cache) == 5
        assert cache.evictions == 0

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            WorldCache(max_entries=0)


class TestKeySeparation:
    def test_seed_and_backend_do_not_cross_hit(self, graph):
        cache = WorldCache()
        evaluator = BatchEvaluator(cache=cache)
        # the backend comes from the session the batch is evaluated in
        for backend, seed in (("naive", 1), ("csr", 1), ("csr", 2)):
            with repro.session(backend=backend):
                evaluator.evaluate_one(graph, flow_request(seed=seed))
        assert len(cache) == 3
        assert cache.hits == 0
        assert cache.misses == 3

    def test_sharded_and_unsharded_streams_do_not_cross_hit(self, graph):
        from repro.parallel.executor import SerialExecutor

        import repro

        cache = WorldCache()
        evaluator = BatchEvaluator(cache=cache)
        evaluator.evaluate_one(graph, flow_request())
        with repro.session(workers=SerialExecutor(), shard_size=64):
            result = evaluator.evaluate_one(graph, flow_request())
        assert cache.hits == 0 and len(cache) == 2
        assert not result.from_cache


class TestInvalidation:
    def test_graph_mutation_moves_the_key(self, graph):
        cache = WorldCache()
        evaluator = BatchEvaluator(cache=cache)
        first = evaluator.evaluate_one(graph, flow_request())
        mutated = graph.copy()
        edge = next(iter(mutated.edges()))
        mutated.set_probability(edge.u, edge.v, 0.123)
        second = evaluator.evaluate_one(mutated, flow_request())
        # content addressing: the mutated graph can never hit the stale entry
        assert cache.hits == 0
        assert not second.from_cache
        assert first.flow != second.flow

    def test_clear_resets_counters(self, graph):
        cache = WorldCache()
        evaluator = BatchEvaluator(cache=cache)
        evaluator.evaluate_one(graph, flow_request())
        evaluator.evaluate_one(graph, flow_request())
        assert cache.hits == 1
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)


class TestCachedAnswersEqualFresh:
    def test_cached_equals_freshly_sampled(self, graph):
        cached = BatchEvaluator(cache=WorldCache())
        fresh = BatchEvaluator(cache=0)  # caching disabled
        requests = [
            flow_request(),
            QueryRequest(kind="pair_reachability", source=0, target=9, n_samples=120, seed=7),
        ]
        first = cached.evaluate(graph, requests)
        second = cached.evaluate(graph, requests)  # served from cache
        uncached = fresh.evaluate(graph, requests)
        assert second[0].from_cache and second[1].from_cache
        for a, b, c in zip(first, second, uncached):
            assert a.flow == b.flow == c.flow
            assert a.reachability == b.reachability == c.reachability

    def test_stats_shape(self, graph):
        cache = WorldCache()
        evaluator = BatchEvaluator(cache=cache)
        evaluator.evaluate_one(graph, flow_request())
        stats = cache.stats()
        assert stats["entries"] == 1.0
        assert stats["misses"] == 1.0
        assert stats["cached_worlds"] == 120.0
        assert 0.0 <= stats["hit_rate"] <= 1.0


class TestDefaultCache:
    def test_default_cache_is_shared_and_restorable(self):
        import repro

        shared = get_default_world_cache()
        assert isinstance(shared, WorldCache)
        assert get_default_world_cache() is shared  # one instance per process
        assert BatchEvaluator().cache is shared  # cache=None -> ambient default
        with repro.session(world_cache=4) as session:
            assert get_default_world_cache() is session.world_cache
        assert get_default_world_cache() is shared  # restored on exit

    def test_default_cache_is_tracked_lazily(self, graph, monkeypatch):
        import repro.service.cache as cache_module

        # the shared default is created on first resolution, not at import,
        # and an evaluator built before that follows it at call time
        monkeypatch.setattr(cache_module, "_DEFAULT_WORLD_CACHE", None)
        evaluator = BatchEvaluator()
        assert cache_module._DEFAULT_WORLD_CACHE is None
        evaluator.evaluate_one(graph, flow_request())
        created = cache_module._DEFAULT_WORLD_CACHE
        assert isinstance(created, WorldCache)
        assert len(created) == 1
        assert evaluator.cache is created

    def test_session_cache_wins_over_the_default(self, graph):
        import repro

        scoped = WorldCache(max_entries=4)
        evaluator = BatchEvaluator()  # cache=None -> ambient default
        with repro.session(world_cache=scoped):
            assert evaluator.cache is scoped
            evaluator.evaluate_one(graph, flow_request())
            assert len(scoped) == 1
        assert evaluator.cache is not scoped

    def test_last_plan_reflects_the_most_recent_call(self, graph):
        evaluator = BatchEvaluator(cache=WorldCache())
        assert evaluator.last_plan is None
        evaluator.evaluate(graph, [flow_request(seed=1), flow_request(seed=2)])
        assert evaluator.last_plan is not None
        assert len(evaluator.last_plan.groups) == 2

    def test_resolve_cache_specs(self):
        assert resolve_cache(0) is None
        sized = resolve_cache(5)
        assert isinstance(sized, WorldCache) and sized.max_entries == 5
        instance = WorldCache()
        assert resolve_cache(instance) is instance
        with pytest.raises(TypeError):
            resolve_cache(True)
        with pytest.raises(ValueError):
            resolve_cache(-1)

    def test_resolve_cache_accepts_numpy_integers(self):
        import numpy as np

        sized = resolve_cache(np.int64(4))
        assert isinstance(sized, WorldCache) and sized.max_entries == 4
        assert resolve_cache(np.int64(0)) is None
        with pytest.raises(ValueError):
            resolve_cache(np.int64(-1))
        with pytest.raises(TypeError):
            resolve_cache(2.5)
