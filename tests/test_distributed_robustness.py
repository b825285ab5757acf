"""Fault injection for the distributed executor.

The acceptance bar of the whole tier: a worker SIGKILLed mid-shard (or a
whole fleet dying and rejoining) must change *nothing* about the
answer — the retry/reassignment path re-runs the stranded shards from
their own pre-split seeds and the reduction stays in shard order, so
estimates and greedy selections are asserted bit-for-bit against
:class:`~repro.parallel.SerialExecutor`.
"""

import threading
import time

import numpy as np
import pytest

import repro
from repro.distributed import RemoteExecutor, local_fleet
from repro.exceptions import ShardRetryExceededError
from repro.experiments.harness import pick_query_vertex
from repro.parallel import SerialExecutor, ShardTask
from repro.reachability.backends import make_backend
from repro.reachability.backends.base import SamplingProblem
from repro.rng import split_seed_sequences
from repro.types import Edge


def _problem(n_edges: int = 6) -> SamplingProblem:
    edges = [(Edge(i, i + 1), 0.25 + 0.5 * (i % 2)) for i in range(n_edges)]
    return SamplingProblem.from_edges(edges, source=0)


def _tasks(n_shards: int, seed: int = 11, n_samples: int = 24):
    problem = _problem()
    backend = make_backend("csr")
    return [
        ShardTask(problem=problem, n_samples=n_samples, seed=child, backend=backend)
        for child in split_seed_sequences(seed, n_shards)
    ]


class TestWorkerKillMidRun:
    def test_sigkill_mid_shard_reproduces_serial_bits(self):
        """Kill one of two workers while shards are in flight."""
        tasks = _tasks(24)
        reference = SerialExecutor().map_shards(tasks)
        with local_fleet(
            2, shard_delay_ms=40, task_timeout=30.0, worker_wait_timeout=60.0
        ) as fleet:
            killer = threading.Timer(0.3, fleet.processes[0].kill)
            killer.start()
            try:
                results = fleet.executor.map_shards(tasks)
            finally:
                killer.cancel()
            assert fleet.executor.worker_deaths >= 1
            assert fleet.executor.retries >= 1
        assert len(results) == len(reference)
        for ours, theirs in zip(results, reference):
            assert np.array_equal(ours, theirs)

    def test_whole_fleet_dies_and_a_replacement_rejoins(self):
        """Every worker dead mid-run: the coordinator holds the pending
        shards and finishes identically once a replacement registers."""
        tasks = _tasks(16, seed=13)
        reference = SerialExecutor().map_shards(tasks)
        with local_fleet(
            2, shard_delay_ms=40, task_timeout=30.0, worker_wait_timeout=60.0
        ) as fleet:

            def kill_all_then_rejoin():
                time.sleep(0.25)
                for process in list(fleet.processes):
                    process.kill()
                time.sleep(0.4)
                fleet.spawn_worker()

            chaos = threading.Thread(target=kill_all_then_rejoin)
            chaos.start()
            try:
                results = fleet.executor.map_shards(tasks)
            finally:
                chaos.join(timeout=30)
            assert fleet.executor.worker_deaths >= 2
        for ours, theirs in zip(results, reference):
            assert np.array_equal(ours, theirs)

    def test_estimates_and_selection_survive_a_kill_bit_for_bit(self):
        """The end-to-end invariance gate under fault injection: the
        session-level flow estimate AND the greedy edge selection match
        the single-process run exactly, kill or no kill."""
        graph = repro.erdos_renyi_graph(40, average_degree=5.0, seed=21)
        query = pick_query_vertex(graph)
        with repro.session(workers=1, shard_size=16, n_samples=96, seed=9) as s:
            serial_flow = s.expected_flow(graph, query)
            serial_selection = s.select(graph, query, 3, algorithm="FT+M")
        with local_fleet(
            2, shard_delay_ms=10, task_timeout=30.0, worker_wait_timeout=60.0
        ) as fleet:
            with repro.session(
                workers=fleet.executor, shard_size=16, n_samples=96, seed=9
            ) as s:
                remote_flow = s.expected_flow(graph, query)
                # kill a worker between the estimate and the selection:
                # the selection's shards hit a half-dead fleet and must
                # reassign without moving a bit
                fleet.processes[1].kill()
                deadline = time.monotonic() + 10.0
                while (
                    fleet.executor.worker_deaths < 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.02)
                remote_selection = s.select(graph, query, 3, algorithm="FT+M")
            deaths = fleet.executor.worker_deaths
        assert deaths >= 1
        assert remote_flow.expected_flow == serial_flow.expected_flow
        assert remote_flow.reachability == serial_flow.reachability
        assert remote_selection.selected_edges == serial_selection.selected_edges
        assert remote_selection.expected_flow == serial_selection.expected_flow


class TestRetryBudget:
    def test_systematic_timeouts_exhaust_the_budget(self):
        """A shard that times out on every worker it is assigned to must
        surface the typed budget error, not hang or loop forever."""
        with local_fleet(
            2,
            shard_delay_ms=3000,  # every shard blows the 0.4s deadline
            task_timeout=0.4,
            max_task_retries=1,
            worker_wait_timeout=8.0,
            heartbeat_interval=0.2,
            heartbeat_timeout=60.0,
        ) as fleet:
            with pytest.raises(ShardRetryExceededError) as excinfo:
                fleet.executor.map_shards(_tasks(2, n_samples=4))
            assert excinfo.value.attempts == 2
            assert "systematic" in str(excinfo.value)

    def test_retry_counters_are_exposed(self):
        executor = RemoteExecutor(port=0)
        try:
            assert executor.retries == 0
            assert executor.worker_deaths == 0
            assert executor.tasks_dispatched == 0
        finally:
            executor.close()
