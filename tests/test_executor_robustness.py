"""Robustness regressions for :class:`repro.parallel.ProcessExecutor`.

Three latent concurrency/lifecycle bugs surfaced while standing a
long-lived server on the executor; each test here pins its fix:

* two threads sharing one executor could each build a process pool in
  ``_ensure_pool`` (one pool's workers leaked forever, ``closed``
  desynced) — creation now happens under a lock;
* a worker killed mid-batch (OOM/SIGKILL) surfaced as an opaque
  ``BrokenProcessPool`` and permanently poisoned the executor — it is
  now discarded and re-raised as the typed, actionable
  :class:`~repro.exceptions.WorkerCrashedError`, and the next call
  rebuilds a fresh pool;
* the ``__del__`` finalizer called ``shutdown(wait=True)`` and could
  hang interpreter exit behind wedged workers — the finalizer path now
  abandons outstanding work (``wait=False, cancel_futures=True``).

``TestShardsRunInWorkers`` pins the mechanism all of this serves: the
shards of one call run in the pool's worker processes, more than one of
them, and never in the calling process.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ExecutorError, ReproError, WorkerCrashedError
from repro.parallel import ProcessExecutor, SerialExecutor, ShardTask
from repro.reachability.backends.base import SamplingProblem
from repro.rng import split_seed_sequences
from repro.types import Edge


def _problem(n_edges: int = 3) -> SamplingProblem:
    edges = [(Edge(i, i + 1), 0.5) for i in range(n_edges)]
    return SamplingProblem.from_edges(edges, source=0)


def _tasks(n_shards: int = 2, backend=None):
    problem = _problem()
    children = split_seed_sequences(3, n_shards)
    return [
        ShardTask(problem=problem, n_samples=4, seed=child, backend=backend)
        for child in children
    ]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor; records construction and shutdown."""

    instances = []

    def __init__(self, max_workers=None, mp_context=None):
        self.max_workers = max_workers
        self.shutdown_calls = []
        _RecordingPool.instances.append(self)
        # widen the historical race window: the first thread parks inside
        # pool construction while the others reach the None check
        barrier = _RecordingPool.construction_barrier
        if barrier is not None:
            try:
                barrier.wait(timeout=5)
            except threading.BrokenBarrierError:
                pass

    construction_barrier = None

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_calls.append({"wait": wait, "cancel_futures": cancel_futures})

    def map(self, fn, tasks, chunksize=1):
        return [fn(task) for task in tasks]


@pytest.fixture
def recording_pools(monkeypatch):
    _RecordingPool.instances = []
    _RecordingPool.construction_barrier = None
    monkeypatch.setattr(
        "concurrent.futures.ProcessPoolExecutor", _RecordingPool
    )
    yield _RecordingPool
    _RecordingPool.instances = []
    _RecordingPool.construction_barrier = None


class TestEnsurePoolRace:
    def test_concurrent_first_use_builds_exactly_one_pool(self, recording_pools):
        """N threads racing into a cold executor must share one pool."""
        n_threads = 8
        executor = ProcessExecutor(2)
        start = threading.Barrier(n_threads)
        seen = []
        errors = []

        def use():
            try:
                start.wait(timeout=5)
                seen.append(executor._ensure_pool())
            except Exception as error:  # pragma: no cover - fails the assert below
                errors.append(error)

        threads = [threading.Thread(target=use) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert len(recording_pools.instances) == 1
        assert len(seen) == n_threads
        assert all(pool is seen[0] for pool in seen)
        assert executor.closed is False

    def test_race_window_inside_construction_still_single_pool(self, recording_pools):
        """Even a thread parked *inside* pool construction admits no second build."""
        executor = ProcessExecutor(2)
        # the barrier is released by the second participant: the main
        # thread, after it has had every chance to race in
        recording_pools.construction_barrier = threading.Barrier(2)
        first_pool = []
        builder = threading.Thread(
            target=lambda: first_pool.append(executor._ensure_pool())
        )
        builder.start()
        # while the builder is parked mid-construction, racing in must
        # block on the lock rather than start a second construction
        racer = threading.Thread(target=executor._ensure_pool)
        racer.start()
        recording_pools.construction_barrier.wait(timeout=5)
        builder.join(timeout=10)
        racer.join(timeout=10)
        assert len(recording_pools.instances) == 1

    def test_close_use_close_keeps_flag_in_sync(self, recording_pools):
        executor = ProcessExecutor(2)
        executor._ensure_pool()
        assert executor.closed is False
        executor.close()
        assert executor.closed is True
        executor._ensure_pool()  # reuse after close rebuilds
        assert executor.closed is False
        executor.close()
        assert executor.closed is True
        assert len(recording_pools.instances) == 2


class _SuicideBackend:
    """A 'backend' whose sampling kills its own worker process (OOM stand-in)."""

    def sample_reachability(self, problem, n_samples, rng):
        os.kill(os.getpid(), signal.SIGKILL)


class _PidBackend:
    """A 'backend' that reports which process ran its shard."""

    def sample_reachability(self, problem, n_samples, rng):
        # long enough that one worker cannot drain every shard alone
        time.sleep(0.2)
        return np.array([os.getpid()])


class TestShardsRunInWorkers:
    def test_shards_spread_over_worker_processes(self):
        with ProcessExecutor(2) as executor:
            results = executor.map_shards(_tasks(n_shards=4, backend=_PidBackend()))
        pids = {int(result[0]) for result in results}
        assert len(results) == 4
        assert os.getpid() not in pids
        assert len(pids) > 1


class TestWorkerDeath:
    def test_killed_worker_raises_typed_error_and_recovers(self):
        executor = ProcessExecutor(2)
        try:
            with pytest.raises(WorkerCrashedError) as excinfo:
                executor.map_shards(_tasks(backend=_SuicideBackend()))
            # typed: catchable as the library's base error and as the
            # executor-failure family
            assert isinstance(excinfo.value, ReproError)
            assert isinstance(excinfo.value, ExecutorError)
            # actionable: the message explains the likely cause and the fix
            message = str(excinfo.value)
            assert "out-of-memory" in message
            assert "retrying" in message
            assert excinfo.value.workers == 2
            # the broken pool was discarded, not left poisoning the executor
            assert executor._pool is None
            # the next call transparently rebuilds and produces the same
            # bits as the serial reference
            good = _tasks(n_shards=3)
            recovered = executor.map_shards(good)
            reference = SerialExecutor().map_shards(good)
            assert len(recovered) == len(reference)
            for ours, theirs in zip(recovered, reference):
                assert np.array_equal(ours, theirs)
        finally:
            executor.close()
        assert executor.closed is True


class TestFinalizer:
    def test_del_abandons_workers_instead_of_waiting(self, recording_pools):
        executor = ProcessExecutor(2)
        pool = executor._ensure_pool()
        executor.__del__()
        assert pool.shutdown_calls == [{"wait": False, "cancel_futures": True}]
        assert executor._pool is None
        assert executor.closed is True

    def test_close_still_waits_for_clean_shutdown(self, recording_pools):
        executor = ProcessExecutor(2)
        pool = executor._ensure_pool()
        executor.close()
        assert pool.shutdown_calls == [{"wait": True, "cancel_futures": False}]

    def test_del_before_first_use_is_harmless(self):
        executor = ProcessExecutor(2)
        executor.__del__()
        assert executor.closed is True
