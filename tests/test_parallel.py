"""Unit tests for the repro.parallel subsystem (plan, executors)."""

import numpy as np
import pytest

import repro
from repro.parallel import (
    DEFAULT_SHARD_SIZE,
    ProcessExecutor,
    SerialExecutor,
    ShardPlan,
    ShardTask,
    get_default_executor,
    get_default_shard_size,
    make_executor,
    plan_shards,
)
from repro.reachability.backends import make_backend
from repro.reachability.backends.base import SamplingProblem
from repro.rng import split_seed_sequences
from repro.types import Edge


def _problem(n_edges: int = 3) -> SamplingProblem:
    edges = [(Edge(i, i + 1), 0.5) for i in range(n_edges)]
    return SamplingProblem.from_edges(edges, source=0)


class TestShardPlan:
    def test_exact_division(self):
        plan = plan_shards(12, 4)
        assert plan.n_shards == 3
        assert plan.shard_sizes == (4, 4, 4)

    def test_remainder_goes_to_last_shard(self):
        plan = plan_shards(10, 4)
        assert plan.n_shards == 3
        assert plan.shard_sizes == (4, 4, 2)
        assert sum(plan.shard_sizes) == 10

    def test_single_shard_when_request_fits(self):
        plan = plan_shards(5, 100)
        assert plan.n_shards == 1
        assert plan.shard_sizes == (5,)

    def test_zero_samples_means_zero_shards(self):
        plan = plan_shards(0, 8)
        assert plan.n_shards == 0
        assert plan.shard_sizes == ()
        assert list(plan.offsets()) == []

    def test_offsets_cover_the_request_contiguously(self):
        plan = plan_shards(10, 4)
        assert list(plan.offsets()) == [(0, 4), (4, 8), (8, 10)]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(10, 0)
        with pytest.raises(ValueError):
            plan_shards(-1, 4)

    def test_non_integral_shard_sizes_are_refused_not_truncated(self):
        # truncating 2.9 to 2 would misreport the (seed, n_samples, shard_size) key
        for bad in (2.9, 2.0, True, "4"):
            with pytest.raises(TypeError, match="shard_size"):
                plan_shards(10, bad)
            with pytest.raises(TypeError, match="shard_size"):
                ShardPlan(n_samples=10, shard_size=bad)
            # the session is the one place a shard size is set
            with pytest.raises(TypeError, match="shard_size"):
                repro.session(workers=SerialExecutor(), shard_size=bad)


class TestExecutors:
    def test_serial_runs_tasks_in_order(self):
        problem = _problem()
        children = split_seed_sequences(3, 2)
        tasks = [
            ShardTask(problem=problem, n_samples=4, seed=children[0], backend=None),
            ShardTask(problem=problem, n_samples=2, seed=children[1], backend=None),
        ]
        parts = SerialExecutor().map_shards(tasks)
        assert [part.shape for part in parts] == [(4, 3), (2, 3)]

    def test_empty_task_list(self):
        assert SerialExecutor().map_shards([]) == []
        with ProcessExecutor(2) as pool:
            assert pool.map_shards([]) == []

    def test_process_pool_matches_serial_bit_for_bit(self):
        problem = _problem(5)
        children = split_seed_sequences(11, 4)
        backend = make_backend("naive")
        tasks = [
            ShardTask(problem=problem, n_samples=8, seed=child, backend=backend)
            for child in children
        ]
        reference = SerialExecutor().map_shards(tasks)
        with ProcessExecutor(2) as pool:
            parallel = pool.map_shards(tasks)
        assert len(reference) == len(parallel)
        for ours, theirs in zip(reference, parallel):
            assert np.array_equal(ours, theirs)

    def test_make_executor_resolution(self):
        assert make_executor(None) is None
        assert isinstance(make_executor(1), SerialExecutor)
        pool = make_executor(3)
        assert isinstance(pool, ProcessExecutor)
        assert pool.workers == 3
        serial = SerialExecutor()
        assert make_executor(serial) is serial

    def test_make_executor_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            make_executor(0)
        with pytest.raises(TypeError):
            make_executor(True)
        # a spec is a worker count or an instance; strings are neither
        with pytest.raises(TypeError):
            make_executor("four")
        with pytest.raises(TypeError):
            make_executor("remote:nope")
        with pytest.raises(TypeError):
            make_executor(3.5)

    def test_process_executor_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ProcessExecutor(0)

    def test_process_executor_refuses_what_make_executor_refuses(self):
        # truncating 2.5 to 2 workers, or parsing "2", would accept a spec
        # that make_executor and RuntimeConfig reject
        for bad in (True, False, 2.5, 2.0, "2", "four"):
            with pytest.raises(TypeError, match="workers"):
                ProcessExecutor(bad)
        with pytest.raises(ValueError):
            ProcessExecutor(-1)
        assert ProcessExecutor(3).workers == 3
        assert ProcessExecutor().workers >= 1


class TestDefaults:
    def test_session_scope_pins_executor_and_shard_size(self):
        with repro.session(workers=1, shard_size=64) as session:
            assert get_default_executor() is session.executor
            assert get_default_shard_size() == 64
        assert get_default_executor() is None
        assert get_default_shard_size() == DEFAULT_SHARD_SIZE
