"""The benchmark's workloads.

Every workload follows the same shape:

* ``__init__(seed)`` makes the inputs from the seed, plus the reference
  answers the outputs are checked against;
* ``setup()`` turns the inputs into ready library objects — this is the
  measured set-up, repeated a few times per run;
* ``run(state, rounds, count, seconds)`` runs operations: exactly
  ``count`` of them, or else at least one pass over the workload's fixed
  input list and until ``seconds`` have passed;
* ``e2e(seconds)`` is set-up, ``run`` and the output checks, with
  tracing off.

Every output is checked against an independent reference; each check
that fails counts as a failed operation.
"""

from __future__ import annotations

import asyncio
import gc
import json
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import inputs
from hostspeed import HostSpeed
from repro.experiments.harness import evaluate_flow, pick_query_vertex
from repro.graph.uncertain_graph import UncertainGraph
from repro.runtime import RuntimeConfig, Session
from repro.selection.registry import make_selector
from repro.server import ReproServer, ServerClient, ServerConfig
from repro.service import BatchEvaluator, QueryRequest, request_to_dict, result_to_dict
from repro.service.cache import WorldCache
from repro.types import Edge

#: Set-up repetitions per run; the reported ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Paper default sample count for selections and queries.
N_SAMPLES = 1000

#: Largest relative gap allowed between a selector's own flow estimate and
#: the ``evaluate_flow`` yardstick.  Exact components agree to rounding;
#: on sampled ones the greedy choice favours edges whose estimate came out
#: high, so the selector reads slightly above the yardstick (gap over ~1000
#: selections at HEAD: mean 0.2%, s.d. 0.9%, largest 5.6%).
FLOW_TOLERANCE = 0.15


def build_graph(spec: inputs.GraphSpec) -> UncertainGraph:
    """The program-side view of a generated input."""
    graph = UncertainGraph(name=spec.name)
    for vertex, weight in enumerate(spec.weights):
        graph.add_vertex(vertex, weight=weight)
    for (u, v), probability in zip(spec.edges, spec.probabilities):
        graph.add_edge(u, v, probability)
    return graph


def child_rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def more(index: int, count: Optional[int], minimum: int, started: float, seconds: float) -> bool:
    """Loop condition: ``count`` operations, else ``minimum`` and ``seconds``."""
    if count is not None:
        return index < count
    return index < minimum or time.perf_counter() - started < seconds


class Rounds:
    """Timed rounds of operations, scaled to reference host speed.

    A round is one blocking step of the client: a selection, an estimate,
    or a pair of in-flight queries.  Each round is scaled by the host
    speed measured right around it (:mod:`hostspeed`).
    """

    def __init__(self) -> None:
        self.speed = HostSpeed()
        #: per-operation latencies, seconds at reference speed
        self.latencies: List[float] = []
        #: the same latencies as measured
        self.raw: List[float] = []
        #: summed round durations, seconds at reference speed
        self.busy = 0.0

    def add(self, seconds: float, latencies: Sequence[float]) -> None:
        factor = self.speed.close_round()
        self.busy += seconds * factor
        self.raw.extend(latencies)
        self.latencies.extend(latency * factor for latency in latencies)


class Workload:
    """Shared base of the workloads: set-up timing and the e2e result record."""

    name = ""
    #: percentile reported as ``tail_ms``; at HEAD at least ten operations of a run lie beyond it
    tail_percentile = 95.0
    #: operations of the fixed list a traced run times
    trace_ops = 0

    def setup(self):
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Release what ``setup`` built (nothing by default)."""

    def timed_setup(self):
        """Run ``setup`` several times; keep the last state and the median time.

        Each repetition starts after a full garbage collection and is
        scaled to reference host speed like the operations.
        """
        speed = HostSpeed()
        times = []
        state = None
        for _ in range(SETUP_REPEATS):
            if state is not None:
                self.teardown(state)
            gc.collect()
            speed.open_round()
            started = time.perf_counter()
            state = self.setup()
            times.append((time.perf_counter() - started) * speed.close_round())
        return state, statistics.median(times)

    def summary(self, rounds: Rounds, flow: float, setup_s: float, failed: int) -> dict:
        ms = np.asarray(rounds.latencies) * 1000.0
        return {
            "attempted": len(rounds.latencies),
            "failed": failed,
            "metrics": {
                "p50_ms": float(np.percentile(ms, 50)),
                "tail_ms": float(np.percentile(ms, self.tail_percentile)),
                "ops_per_s": len(rounds.latencies) / rounds.busy,
                "flow": flow,
                "setup_s": setup_s,
            },
            "measured_p50_ms": float(np.percentile(rounds.raw, 50) * 1000.0),
            "host_speed": rounds.speed.median_factor(),
        }


# ----------------------------------------------------------------------
# selection workloads
# ----------------------------------------------------------------------
class SelectionWorkload(Workload):
    """Greedy edge selections over a fixed pool of (graph, query vertex) inputs.

    The pool is cycled until the run's time is up; a repeated input must
    reproduce its first selection exactly.
    """

    algorithm = ""
    budget = 0
    n_graphs = 0
    #: query vertices per graph; ``None`` asks from the highest-degree vertex only
    queries_per_graph: Optional[int] = None
    tail_percentile = 75.0

    def generate(self, rng: np.random.Generator) -> inputs.GraphSpec:
        raise NotImplementedError

    def __init__(self, seed: int) -> None:
        self.specs = [self.generate(child_rng(seed, 0, index)) for index in range(self.n_graphs)]
        #: (graph index, query vertex or None for the highest-degree vertex)
        self.inputs: List[Tuple[int, Optional[int]]] = []
        for index, spec in enumerate(self.specs):
            if self.queries_per_graph is None:
                self.inputs.append((index, None))
                continue
            component = inputs.largest_component(spec)
            picks = child_rng(seed, 1, index).choice(
                len(component), size=self.queries_per_graph, replace=False
            )
            self.inputs.extend((index, component[pick]) for pick in sorted(picks.tolist()))
        self.pool = len(self.inputs)
        self.selector_seeds = child_rng(seed, 2).integers(0, 2**31, size=self.pool).tolist()

    def setup(self):
        graphs = [build_graph(spec) for spec in self.specs]
        highest = [pick_query_vertex(graph) for graph in graphs]
        queries = [highest[g] if q is None else q for g, q in self.inputs]
        selectors = [
            make_selector(self.algorithm, n_samples=N_SAMPLES, seed=seed)
            for seed in self.selector_seeds
        ]
        return graphs, queries, selectors

    def run(self, state, rounds: Rounds, count: Optional[int] = None, seconds: float = 0.0):
        """Run selections; returns (first-pass results, failed repeats)."""
        graphs, queries, selectors = state
        results = []
        failed = 0
        started = time.perf_counter()
        index = 0
        while more(index, count, self.pool, started, seconds):
            slot = index % self.pool
            op_started = time.perf_counter()
            result = selectors[slot].select(graphs[self.inputs[slot][0]], queries[slot], self.budget)
            elapsed = time.perf_counter() - op_started
            rounds.add(elapsed, (elapsed,))
            if index < self.pool:
                results.append(result)
            elif not same_selection(result, results[slot]):
                failed += 1  # a repeated input must give the identical selection
            index += 1
        return results, failed

    def e2e(self, seconds: float) -> dict:
        state, setup_s = self.timed_setup()
        rounds = Rounds()
        results, failed = self.run(state, rounds, seconds=seconds)
        flows = [self.check(state, slot, result) for slot, result in enumerate(results)]
        failed += sum(flow is None for flow in flows)
        valid = [flow for flow in flows if flow is not None]
        flow = statistics.fmean(valid) if valid else 0.0
        return self.summary(rounds, flow, setup_s, failed)

    def check(self, state, slot: int, result) -> Optional[float]:
        """Yardstick flow of a valid selection, ``None`` for an invalid one.

        Valid: exactly ``budget`` distinct graph edges, all connected to
        the query through selected edges, and a reported flow within
        :data:`FLOW_TOLERANCE` of the ``evaluate_flow`` yardstick.
        """
        graphs, queries, _ = state
        graph, query = graphs[self.inputs[slot][0]], queries[slot]
        edges = list(result.selected_edges)
        if len(edges) != self.budget or len(set(edges)) != self.budget:
            return None
        if not all(graph.has_edge(edge.u, edge.v) for edge in edges):
            return None
        if not connected_to(query, edges):
            return None
        yardstick = evaluate_flow(graph, edges, query)
        if abs(result.expected_flow - yardstick) > FLOW_TOLERANCE * max(1.0, yardstick):
            return None
        return yardstick

    def layer_extras(self, results: list) -> Dict[str, float]:
        iterations = [iteration for result in results for iteration in result.iterations]
        return {
            "selection.probes": float(sum(i.candidates_probed for i in iterations)),
            "selection.round_s": float(sum(i.elapsed_seconds for i in iterations)),
        }


def same_selection(a, b) -> bool:
    return a.selected_edges == b.selected_edges and a.expected_flow == b.expected_flow


def connected_to(query, edges: Sequence[Edge]) -> bool:
    adjacency: Dict[object, List[object]] = {}
    for edge in edges:
        adjacency.setdefault(edge.u, []).append(edge.v)
        adjacency.setdefault(edge.v, []).append(edge.u)
    seen = {query}
    frontier = [query]
    while frontier:
        vertex = frontier.pop()
        for neighbor in adjacency.get(vertex, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return all(vertex in seen for vertex in adjacency)


class FtmProbe(SelectionWorkload):
    """FT+M on Erdős graphs: time goes to F-tree candidate probes."""

    name = "ftm-probe"
    algorithm = "FT+M"
    n_vertices = 1000
    budget = 40
    n_graphs = 32
    trace_ops = 10

    def generate(self, rng):
        return inputs.erdos(rng, self.n_vertices, degree=6.0)


class FtWsn(SelectionWorkload):
    """FT without memoization on WSN graphs: time goes to component evaluation."""

    name = "ft-wsn"
    algorithm = "FT"
    n_vertices = 600
    eps = 0.085
    budget = 8
    n_graphs = 40
    queries_per_graph = 20
    trace_ops = 200
    tail_percentile = 95.0

    def generate(self, rng):
        return inputs.wsn(rng, self.n_vertices, self.eps)


# ----------------------------------------------------------------------
# served queries
# ----------------------------------------------------------------------
def comparable(payload: dict) -> dict:
    """A served answer reduced to its deterministic evaluation fields."""
    return {
        key: value
        for key, value in payload.items()
        if key not in ("id", "ok", "latency_ms", "from_cache")
    }


class QueryServe(Workload):
    """A closed loop over loopback TCP against an in-process ``ReproServer``.

    One client connection keeps two requests in flight: it sends them
    back to back and sends the next pair once both are answered.  One
    connection gives the server a fixed arrival order, so cache hits and
    misses are the same in every run of a seed.
    """

    name = "query-serve"
    n_vertices = 1000
    n_keys = 48
    cache_entries = 32
    flow_share = 0.3
    n_requests = 500
    trace_ops = 200

    def __init__(self, seed: int) -> None:
        rng = child_rng(seed, 0)
        self.spec = inputs.erdos(rng, self.n_vertices, degree=6.0)
        # sources are drawn from the best-connected quarter of the vertices
        degree = np.bincount(np.asarray(self.spec.edges).ravel(), minlength=self.n_vertices)
        hubs = np.flatnonzero(degree >= np.percentile(degree, 75))
        sources = rng.choice(hubs, size=self.n_keys, replace=False).tolist()
        seeds = rng.integers(0, 2**31, size=self.n_keys).tolist()
        self.requests: List[QueryRequest] = []
        previous_key = None
        while len(self.requests) < self.n_requests:
            key = int(rng.integers(self.n_keys))
            # the two requests of a pair never share a key: whether the
            # server coalesces a pair or not then cannot change the cache
            # hit and miss counts
            if len(self.requests) % 2 == 1 and key == previous_key:
                continue
            previous_key = key
            source, world_seed = sources[key], seeds[key]
            if rng.random() < self.flow_share:
                request = QueryRequest(
                    kind="expected_flow", source=source, n_samples=N_SAMPLES, seed=world_seed
                )
            else:
                target = int(rng.integers(self.n_vertices - 1))
                target += target >= source
                request = QueryRequest(
                    kind="pair_reachability", source=source, target=target,
                    n_samples=N_SAMPLES, seed=world_seed,
                )
            self.requests.append(request)
        self.payloads = [request_to_dict(request) for request in self.requests]
        with BatchEvaluator(cache=0) as evaluator:
            results = evaluator.evaluate(build_graph(self.spec), self.requests)
        self.reference = [comparable(json.loads(json.dumps(result_to_dict(r)))) for r in results]
        flows = {r.request: r.value for r in results if r.request.kind == "expected_flow"}
        self.flow = statistics.fmean(flows.values())

    async def setup_async(self):
        graph = build_graph(self.spec)
        cache = WorldCache(max_entries=self.cache_entries)
        server = ReproServer(
            graph, ServerConfig(port=0, runtime=RuntimeConfig(world_cache=cache))
        )
        await server.start()
        client = await ServerClient.connect(*server.address, connect_timeout=30, read_timeout=60)
        return graph, cache, server, client

    async def teardown_async(self, state) -> None:
        _, _, server, client = state
        await client.close()
        await server.stop()

    async def timed_setup_async(self):
        """:meth:`Workload.timed_setup` for the asynchronous set-up."""
        speed = HostSpeed()
        times = []
        state = None
        for _ in range(SETUP_REPEATS):
            if state is not None:
                await self.teardown_async(state)
            gc.collect()
            speed.open_round()
            started = time.perf_counter()
            state = await self.setup_async()
            times.append((time.perf_counter() - started) * speed.close_round())
        return state, statistics.median(times)

    async def run(self, state, rounds: Rounds, count: Optional[int] = None,
                  seconds: float = 0.0) -> int:
        """Send request pairs; returns the number of wrong or failed answers."""
        client = state[3]
        failed = 0

        async def one(slot: int):
            sent = time.perf_counter()
            response = await client.query(self.payloads[slot])
            return time.perf_counter() - sent, response, slot

        started = time.perf_counter()
        index = 0
        while more(index, count, self.n_requests, started, seconds):
            slots = [(index + offset) % self.n_requests for offset in (0, 1)]
            pair_started = time.perf_counter()
            answers = await asyncio.gather(*(one(slot) for slot in slots))
            rounds.add(time.perf_counter() - pair_started, [latency for latency, _, _ in answers])
            for _, response, slot in answers:
                if not response.get("ok") or comparable(response) != self.reference[slot]:
                    failed += 1
            index += 2
        return failed

    def e2e(self, seconds: float) -> dict:
        async def main():
            state, setup_s = await self.timed_setup_async()
            rounds = Rounds()
            try:
                failed = await self.run(state, rounds, seconds=seconds)
            finally:
                await self.teardown_async(state)
            return self.summary(rounds, self.flow, setup_s, failed)

        return asyncio.run(main())


# ----------------------------------------------------------------------
# sharded estimation
# ----------------------------------------------------------------------
class ShardedFlow(Workload):
    """Whole-graph expected-flow estimates fanned out over two worker processes."""

    name = "sharded-flow"
    n_vertices = 2000
    n_samples = 8192
    shard_size = 1024
    workers = 2
    n_seeds = 2
    trace_ops = 4
    tail_percentile = 60.0

    def __init__(self, seed: int) -> None:
        rng = child_rng(seed, 0)
        self.spec = inputs.erdos(rng, self.n_vertices, degree=6.0)
        self.seeds = rng.integers(0, 2**31, size=self.n_seeds).tolist()
        graph = build_graph(self.spec)
        self.query = pick_query_vertex(graph)
        with Session(workers=1, shard_size=self.shard_size) as serial:
            self.reference = [self.estimate(serial, graph, s) for s in self.seeds]
        self.flow = statistics.fmean(r.expected_flow for r in self.reference)

    def estimate(self, session: Session, graph, seed: int):
        return session.expected_flow(graph, self.query, n_samples=self.n_samples, seed=seed)

    def setup(self, workers: Optional[int] = None):
        graph = build_graph(self.spec)
        session = Session(workers=workers or self.workers, shard_size=self.shard_size)
        # the first estimate starts the worker pool; users pay that once
        session.expected_flow(graph, self.query, n_samples=self.shard_size, seed=0)
        return graph, session

    def teardown(self, state) -> None:
        state[1].close()

    def run(self, state, rounds: Rounds, count: Optional[int] = None, seconds: float = 0.0) -> int:
        """Run estimates; returns how many differ from the serial reference."""
        graph, session = state
        failed = 0
        started = time.perf_counter()
        index = 0
        while more(index, count, self.n_seeds, started, seconds):
            slot = index % self.n_seeds
            op_started = time.perf_counter()
            result = self.estimate(session, graph, self.seeds[slot])
            elapsed = time.perf_counter() - op_started
            rounds.add(elapsed, (elapsed,))
            failed += result != self.reference[slot]
            index += 1
        return failed

    def e2e(self, seconds: float) -> dict:
        state, setup_s = self.timed_setup()
        rounds = Rounds()
        try:
            failed = self.run(state, rounds, seconds=seconds)
        finally:
            self.teardown(state)
        return self.summary(rounds, self.flow, setup_s, failed)


WORKLOADS = {cls.name: cls for cls in (FtmProbe, FtWsn, QueryServe, ShardedFlow)}
