"""Sampling executors: serial reference and process-pool fan-out.

An executor runs the shards of one :class:`~repro.parallel.plan.ShardPlan`
and returns the partial results **in shard order**.  Every shard is a
self-contained :class:`ShardTask` — the indexed sampling problem, the
shard's world count, its own pre-split child seed and the backend to run
— so a shard computes the same ``(n_samples, …)`` block no matter which
worker executes it or when.  Collecting in shard order is what turns
that into the subsystem's hard guarantee: the reduced result is
bit-for-bit identical for any worker count.

:class:`SerialExecutor` is the executable specification (shards run
in-process, in order); :class:`ProcessExecutor` fans the same tasks out
over a :class:`concurrent.futures.ProcessPoolExecutor` and is pinned
against the serial reference by the worker-count invariance tests.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._runtime_state import resolve_field
from repro.exceptions import WorkerCrashedError
from repro.reachability.backends.base import SamplingProblem, sample_flips
from repro.telemetry import current_telemetry

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ShardTask:
    """One shard of a sampling request, ready to run on any worker.

    Attributes
    ----------
    problem:
        The indexed sampling problem (shared by all shards of a request).
    n_samples:
        Worlds this shard draws.
    seed:
        The shard's pre-split child seed sequence (see
        :func:`repro.rng.split_seed_sequences`); owning its own seed is
        what makes the shard relocatable across workers.
    backend:
        Backend whose ``sample_reachability`` the shard runs, or ``None``
        to draw the raw edge-flip matrix instead (the
        :class:`~repro.reachability.engine.FlipBatch` path).
    """

    problem: SamplingProblem
    n_samples: int
    seed: np.random.SeedSequence
    backend: Optional[object] = None


def run_shard(task: ShardTask) -> np.ndarray:
    """Execute one shard; the single entry point every executor dispatches.

    Module-level (and operating only on the picklable task) so process
    pools can ship it to workers unchanged.
    """
    rng = np.random.default_rng(task.seed)
    if task.backend is None:
        return sample_flips(task.problem, task.n_samples, rng)
    return task.backend.sample_reachability(task.problem, task.n_samples, rng)


def _timed_run_shard(task: ShardTask) -> Tuple[float, np.ndarray]:
    """:func:`run_shard` plus its in-worker runtime (what process pools run).

    The duration is measured inside the worker process, so the parent
    can split a shard's round-trip into true runtime versus queue wait +
    transfer.  The array is byte-identical to :func:`run_shard`'s.
    """
    started = time.perf_counter()
    result = run_shard(task)
    return time.perf_counter() - started, result


def _note_done_time(future) -> None:
    """Done-callback stamping a future's completion time (collector thread)."""
    future._repro_done_at = time.perf_counter()


class SamplingExecutor(ABC):
    """Runs shard tasks and returns their results in shard order."""

    #: worker count the executor fans out over (1 for the serial reference)
    workers: int = 1

    @abstractmethod
    def map_shards(self, tasks: Sequence[ShardTask]) -> List[np.ndarray]:
        """Run every task and return the per-shard arrays in task order."""

    def close(self) -> None:
        """Release any worker resources (idempotent; a no-op by default)."""

    def __enter__(self) -> "SamplingExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(SamplingExecutor):
    """The reference executor: shards run in-process, in shard order.

    Produces exactly the output every parallel executor is pinned
    against — same shards, same child seeds, same reduction order — so
    ``SerialExecutor`` versus ``ProcessExecutor(n)`` is purely a
    wall-clock choice.
    """

    workers = 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<SerialExecutor>"

    def map_shards(self, tasks: Sequence[ShardTask]) -> List[np.ndarray]:
        tel = current_telemetry()
        results: List[np.ndarray] = []
        with tel.span("executor.map_shards", executor="serial", n_shards=len(tasks)):
            for task in tasks:
                started = time.perf_counter()
                results.append(run_shard(task))
                tel.observe("executor.shard_seconds", time.perf_counter() - started)
        tel.count("executor.shards_run", len(tasks))
        return results


class ProcessExecutor(SamplingExecutor):
    """Fans shards out over a lazily created process pool.

    Parameters
    ----------
    workers:
        Worker process count (defaults to the machine's CPU count).

    The pool is created on first use and reused across calls; call
    :meth:`close` (or use the executor as a context manager) to release
    the worker processes.  Results are collected in submission order, so
    the reduction is independent of which worker finishes first.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        elif isinstance(workers, bool) or not isinstance(workers, int):
            raise TypeError(f"workers must be a positive int, got {workers!r}")
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers!r}")
        self.workers = workers
        self._pool = None
        # guards pool creation/teardown: two threads sharing one executor
        # (e.g. one session used from several request threads) must never each
        # build a ProcessPoolExecutor — the loser's worker processes would
        # leak forever and the closed flag would desync
        self._pool_lock = threading.Lock()
        #: True after :meth:`close` until the pool is next used; lets
        #: lifecycle owners (harness, CLI, tests) assert that no worker
        #: processes outlive their run even on error paths
        self.closed = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ProcessExecutor workers={self.workers}>"

    def _ensure_pool(self):
        with self._pool_lock:
            if self._pool is None:
                import concurrent.futures
                import multiprocessing

                # fork (where available) avoids re-importing NumPy per worker;
                # the result is identical either way because every shard
                # carries its own seed
                methods = multiprocessing.get_all_start_methods()
                context = multiprocessing.get_context("fork" if "fork" in methods else None)
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context
                )
                self.closed = False
                logger.debug("built process pool with %d workers", self.workers)
                current_telemetry().count("executor.pool_builds")
            return self._pool

    def map_shards(self, tasks: Sequence[ShardTask]) -> List[np.ndarray]:
        """Submit every shard and collect the results in task order.

        Collecting in submission order is exactly the reduction of
        ``pool.map``, and so is cancelling the shards not yet started when
        one fails.  Each shard runs through :func:`_timed_run_shard`,
        so its in-worker runtime comes back with the result; the
        difference between a future's submit→done interval and that
        runtime is the shard's queue wait (+ transfer).
        """
        tasks = list(tasks)
        if not tasks:
            return []
        from concurrent.futures.process import BrokenProcessPool

        tel = current_telemetry()
        pool = self._ensure_pool()
        try:
            with tel.span(
                "executor.map_shards",
                executor="process",
                workers=self.workers,
                n_shards=len(tasks),
            ):
                submits = []
                futures = []
                for task in tasks:
                    submits.append(time.perf_counter())
                    future = pool.submit(_timed_run_shard, task)
                    future.add_done_callback(_note_done_time)
                    futures.append(future)
                results: List[np.ndarray] = []
                try:
                    for submitted, future in zip(submits, futures):
                        runtime, part = future.result()
                        tel.observe("executor.shard_seconds", runtime)
                        done_at = getattr(future, "_repro_done_at", None)
                        if done_at is not None:
                            tel.observe(
                                "executor.queue_wait_seconds",
                                max(0.0, (done_at - submitted) - runtime),
                            )
                        results.append(part)
                finally:
                    # like pool.map: a failed shard cancels the ones not yet started
                    for future in futures[len(results):]:
                        future.cancel()
        except BrokenProcessPool as error:
            # a worker died mid-batch (OOM kill, SIGKILL, hard crash);
            # the pool is permanently unusable — discard it so the next
            # call rebuilds instead of failing forever, and surface a
            # typed, actionable error instead of the opaque stdlib one
            self._discard_pool(pool)
            tel.count("executor.worker_crashes")
            logger.warning(
                "worker process crashed mid-batch (pool of %d workers): %s — "
                "pool discarded, the next call rebuilds it",
                self.workers,
                str(error) or "no detail",
            )
            raise WorkerCrashedError(self.workers, detail=str(error) or "") from error
        tel.count("executor.shards_run", len(tasks))
        return results

    def _discard_pool(self, pool) -> None:
        """Drop a broken pool without blocking on its wedged workers."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self.closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown timing
        # The finalizer must never block interpreter exit behind wedged
        # workers, so unlike close() it abandons outstanding work:
        # shutdown(wait=False, cancel_futures=True).
        try:
            pool = self.__dict__.get("_pool")
            self._pool = None
            self.closed = True
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


#: Accepted forms of a session's ``workers`` spec (see
#: :class:`repro.runtime.RuntimeConfig`): ``None`` (unsharded), a worker
#: count (1 -> serial, > 1 -> process pool) or an executor instance.
ExecutorLike = Union[None, int, SamplingExecutor]


def make_executor(executor: ExecutorLike) -> Optional[SamplingExecutor]:
    """Resolve an executor spec into an instance (or ``None`` for unsharded).

    Integer specs mean a worker count: ``1`` builds the serial reference
    executor (sharded seed-splitting, no processes), anything larger a
    :class:`ProcessExecutor`.  Instances pass through unchanged so one
    pool can be shared across sessions.
    """
    if executor is None:
        return None
    if isinstance(executor, SamplingExecutor):
        return executor
    if isinstance(executor, bool):
        raise TypeError("executor must be a worker count or SamplingExecutor, not bool")
    if isinstance(executor, int):
        if executor <= 0:
            raise ValueError(f"worker count must be positive, got {executor!r}")
        return SerialExecutor() if executor == 1 else ProcessExecutor(executor)
    raise TypeError(f"cannot interpret {executor!r} as a sampling executor")


def get_default_executor() -> Optional[SamplingExecutor]:
    """Return the executor sampling runs on: the active session's.

    The innermost active :func:`repro.session` that pins workers names
    it; ``None`` — no session pins one — means sampling stays unsharded
    single-process, i.e. exactly the pre-subsystem behaviour.  Sessions
    hold resolved executors, never raw specs.
    """
    return resolve_field("executor", None)
