"""Worker-count invariance and adaptive stopping across the whole stack.

The hard guarantee of :mod:`repro.parallel`: for a fixed
``(seed, n_samples, shard_size)`` every estimate and every greedy
selection is bit-for-bit identical no matter how many workers run the
shards — the serial reference executor and process pools of 2 and 4
workers must agree exactly, on every registered sampling backend.  The
executor, shard size and backend come from the session each draw runs
in.
"""

import numpy as np
import pytest

import repro
from repro.exceptions import SampleSizeError
from repro.graph.generators import erdos_renyi_graph
from repro.parallel import (
    AdaptiveSettings,
    ProcessExecutor,
    SerialExecutor,
)
from repro.reachability.backends import BACKEND_NAMES
from repro.reachability.context import EvaluationContext
from repro.reachability.engine import SamplingEngine
from repro.selection.ftree_greedy import FTreeGreedySelector
from repro.selection.greedy_naive import NaiveGreedySelector

SHARD_SIZE = 16
N_SAMPLES = 96  # 6 shards


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(60, average_degree=6.0, seed=5)


def sharded(executor, shard_size=SHARD_SIZE, **knobs):
    """The session a sharded draw of these tests runs in."""
    return repro.session(workers=executor, shard_size=shard_size, **knobs)


@pytest.fixture(scope="module")
def pools():
    """One shared pool per worker count, so tests don't respawn processes."""
    with ProcessExecutor(2) as pool2, ProcessExecutor(4) as pool4:
        yield {1: SerialExecutor(), 2: pool2, 4: pool4}


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_world_batches_identical(self, graph, pools, backend):
        engine = SamplingEngine(backend)
        batches = {}
        for workers, executor in pools.items():
            with sharded(executor):
                batches[workers] = engine.sample_worlds(graph, 0, N_SAMPLES, seed=123)
        reference = batches[1]
        assert reference.n_samples == N_SAMPLES
        for workers, batch in batches.items():
            assert np.array_equal(batch.reached, reference.reached), workers

    def test_flip_batches_identical(self, graph, pools):
        engine = SamplingEngine()
        flips = []
        for executor in pools.values():
            with sharded(executor):
                flips.append(engine.sample_flips(graph, 0, N_SAMPLES, seed=9).flips)
        for other in flips[1:]:
            assert np.array_equal(flips[0], other)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_flow_estimates_identical(self, graph, pools, backend):
        estimates = []
        for executor in pools.values():
            with sharded(executor, backend=backend):
                estimates.append(
                    SamplingEngine().expected_flow(graph, 0, n_samples=N_SAMPLES, seed=7)
                )
        assert len({e.expected_flow for e in estimates}) == 1
        assert len({e.variance for e in estimates}) == 1
        for other in estimates[1:]:
            assert other.reachability == estimates[0].reachability

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_naive_greedy_selections_identical(self, graph, pools, backend):
        selections = []
        for executor in pools.values():
            selector = NaiveGreedySelector(n_samples=64, seed=3)
            with sharded(executor, backend=backend):
                selections.append(selector.select(graph, 0, budget=3))
        reference = selections[0]
        for result in selections[1:]:
            assert result.selected_edges == reference.selected_edges
            assert result.expected_flow == reference.expected_flow

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_ftree_greedy_selections_identical(self, graph, pools, backend):
        selections = []
        for executor in pools.values():
            selector = FTreeGreedySelector(
                n_samples=64,
                exact_threshold=0,  # force sampling so the executor is exercised
                memoize=True,
                seed=3,
            )
            with sharded(executor, backend=backend):
                selections.append(selector.select(graph, 0, budget=3))
        reference = selections[0]
        for result in selections[1:]:
            assert result.selected_edges == reference.selected_edges
            assert result.expected_flow == reference.expected_flow

    def test_evaluation_context_scores_identical(self, graph, pools):
        edges = graph.edge_list()
        base, candidates = edges[:3], edges[3:9]
        all_scores = []
        for executor in pools.values():
            context = EvaluationContext(graph, 0, n_samples=N_SAMPLES, seed=21)
            with sharded(executor):
                all_scores.append(context.score_candidates(base, candidates).scores)
        for other in all_scores[1:]:
            assert np.array_equal(all_scores[0], other)


class TestShardBoundaries:
    def test_indivisible_sample_count(self, graph, pools):
        engine = SamplingEngine()
        batches = []
        for executor in pools.values():
            with sharded(executor, shard_size=16):
                batches.append(engine.sample_worlds(graph, 0, 50, seed=2))
        assert batches[0].n_samples == 50
        for other in batches[1:]:
            assert np.array_equal(batches[0].reached, other.reached)

    def test_single_shard_request(self, graph, pools):
        engine = SamplingEngine()
        batches = []
        for executor in pools.values():
            with sharded(executor, shard_size=100):
                batches.append(engine.sample_worlds(graph, 0, 5, seed=2))
        for other in batches[1:]:
            assert np.array_equal(batches[0].reached, other.reached)

    def test_zero_samples_still_rejected(self, graph):
        engine = SamplingEngine()
        with sharded(SerialExecutor(), shard_size=8):
            with pytest.raises(SampleSizeError):
                engine.sample_worlds(graph, 0, 0, seed=2)
            with pytest.raises(SampleSizeError):
                engine.sample_flips(graph, 0, 0, seed=2)

    def test_shard_size_is_part_of_the_determinism_key(self, graph):
        engine = SamplingEngine()
        with sharded(SerialExecutor(), shard_size=16):
            a = engine.sample_worlds(graph, 0, 64, seed=2)
        with sharded(SerialExecutor(), shard_size=32):
            b = engine.sample_worlds(graph, 0, 64, seed=2)
        assert not np.array_equal(a.reached, b.reached)

    def test_unsharded_path_untouched_by_subsystem(self, graph):
        # no session executor must keep the historical single-stream draw
        engine = SamplingEngine("naive")
        import numpy.random as npr

        direct = engine.backend.sample_reachability(
            engine.sample_worlds(graph, 0, 20, seed=4).problem, 20, npr.default_rng(4)
        )
        assert np.array_equal(engine.sample_worlds(graph, 0, 20, seed=4).reached, direct)


class TestDefaultExecutorRouting:
    def test_session_default_shards_unspecified_calls(self, graph):
        built_outside = SamplingEngine()
        with repro.session(workers=SerialExecutor()):
            via_default = built_outside.expected_flow(graph, 0, n_samples=64, seed=6)
        with repro.session(workers=1):
            built_inside = SamplingEngine().expected_flow(graph, 0, n_samples=64, seed=6)
        unsharded = built_outside.expected_flow(graph, 0, n_samples=64, seed=6)
        assert via_default.expected_flow == built_inside.expected_flow
        assert via_default.expected_flow != unsharded.expected_flow


class TestConcurrentServiceUse:
    """Shared-resource contention must never change a single bit.

    A long-lived service hands one :class:`WorldCache` and one
    :class:`ProcessExecutor` to many concurrent evaluators (threads
    and/or asyncio tasks).  These tests hammer that sharing and pin the
    answers against an uncontended serial run with the same
    ``(seed, backend, shard plan)`` — contention may reorder *when*
    batches are sampled or served from cache, never *what* they contain.
    """

    N_THREADS = 6

    @staticmethod
    def _requests(graph):
        from repro.service import QueryRequest

        vertices = list(graph.vertices())
        requests = []
        for source in vertices[:3]:
            requests.append(
                QueryRequest(
                    kind="expected_flow", source=source, n_samples=N_SAMPLES, seed=11
                )
            )
            for target in vertices[3:7]:
                requests.append(
                    QueryRequest(
                        kind="pair_reachability",
                        source=source,
                        target=target,
                        n_samples=N_SAMPLES,
                        seed=11,
                    )
                )
        return requests

    @staticmethod
    def _payloads(results):
        return [
            (result.flow, result.reachability, result.probabilities)
            for result in results
        ]

    def _serial_reference(self, graph, requests):
        from repro.service import BatchEvaluator

        with sharded(SerialExecutor()):
            return self._payloads(BatchEvaluator(cache=0).evaluate(graph, requests))

    def test_threaded_shared_cache_and_executor_match_serial(self, graph):
        import threading

        from repro.service import BatchEvaluator, WorldCache

        requests = self._requests(graph)
        reference = self._serial_reference(graph, requests)
        cache = WorldCache(max_entries=32)
        outcomes = [None] * self.N_THREADS
        start = threading.Barrier(self.N_THREADS)
        with ProcessExecutor(2) as pool:

            def run(slot):
                evaluator = BatchEvaluator(cache=cache)
                start.wait(timeout=10)  # all threads hit the cold pool together
                try:
                    with sharded(pool):
                        outcomes[slot] = self._payloads(evaluator.evaluate(graph, requests))
                except Exception as error:  # pragma: no cover - fails below
                    outcomes[slot] = error

            threads = [
                threading.Thread(target=run, args=(slot,))
                for slot in range(self.N_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        for outcome in outcomes:
            assert not isinstance(outcome, Exception), outcome
            assert outcome == reference
        # contention bookkeeping stayed consistent: every lookup was
        # either a hit or a miss, and the rate reflects one snapshot
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] >= len(reference) * 1.0
        assert 0.0 <= stats["hit_rate"] <= 1.0

    def test_asyncio_tasks_over_shared_session_match_serial(self, graph):
        import asyncio

        requests = self._requests(graph)
        reference = self._serial_reference(graph, requests)

        async def hammer():
            with repro.session(
                workers=SerialExecutor(), shard_size=SHARD_SIZE, world_cache=32
            ) as shared:
                async def one():
                    return self._payloads(
                        await asyncio.to_thread(shared.batch, graph, requests)
                    )

                return await asyncio.gather(*(one() for _ in range(4)))

        for outcome in asyncio.run(hammer()):
            assert outcome == reference


class TestAdaptiveStopping:
    def test_adaptive_pair_reachability_is_worker_invariant(self, graph, pools):
        settings = AdaptiveSettings(
            target_width=0.15, alpha=0.05, max_samples=2000, min_samples=50
        )
        estimates = []
        for executor in pools.values():
            with sharded(executor):
                estimates.append(
                    SamplingEngine().pair_reachability(
                        graph, 0, 1, n_samples="auto", seed=13, adaptive=settings
                    )
                )
        assert len({e.n_samples for e in estimates}) == 1
        assert len({e.probability for e in estimates}) == 1

    def test_adaptive_stops_before_the_cap_on_easy_instances(self, graph):
        settings = AdaptiveSettings(
            target_width=0.5, alpha=0.05, max_samples=4000, min_samples=32
        )
        with repro.session(shard_size=32):
            estimate = SamplingEngine().pair_reachability(
                graph, 0, 1, n_samples="auto", seed=13, adaptive=settings
            )
        assert estimate.n_samples < settings.max_samples
        assert estimate.n_samples >= settings.min_samples

    def test_adaptive_hits_the_cap_when_the_target_is_unreachable(self, graph):
        settings = AdaptiveSettings(
            target_width=1e-6, alpha=0.05, max_samples=256, min_samples=32
        )
        with repro.session(shard_size=32):
            estimate = SamplingEngine().pair_reachability(
                graph, 0, 1, n_samples="auto", seed=13, adaptive=settings
            )
        assert estimate.n_samples == settings.max_samples

    def test_adaptive_flow_estimate(self, graph):
        settings = AdaptiveSettings(
            target_width=20.0, alpha=0.05, max_samples=2000, min_samples=64
        )
        with repro.session(shard_size=32):
            estimate = SamplingEngine().expected_flow(
                graph, 0, n_samples="auto", seed=13, adaptive=settings
            )
        assert estimate.n_samples >= settings.min_samples
        assert estimate.n_samples <= settings.max_samples
        assert estimate.expected_flow > 0.0

    def test_adaptive_is_deterministic_per_seed(self, graph):
        settings = AdaptiveSettings(target_width=0.2, alpha=0.05, max_samples=1000)
        first = SamplingEngine().pair_reachability(
            graph, 0, 1, n_samples="auto", seed=17, adaptive=settings
        )
        second = SamplingEngine().pair_reachability(
            graph, 0, 1, n_samples="auto", seed=17, adaptive=settings
        )
        assert first.probability == second.probability
        assert first.n_samples == second.n_samples

    def test_adaptive_source_equals_target_honours_settings(self, graph):
        settings = AdaptiveSettings(min_samples=500, max_samples=5000)
        estimate = SamplingEngine().pair_reachability(
            graph, 0, 0, n_samples="auto", adaptive=settings
        )
        assert estimate.probability == 1.0
        assert estimate.n_samples == settings.min_samples

    def test_bad_sample_spec_rejected(self, graph):
        with pytest.raises(ValueError):
            SamplingEngine().expected_flow(graph, 0, n_samples="adaptive")
        with pytest.raises(ValueError):
            SamplingEngine().pair_reachability(graph, 0, 1, n_samples="all")
