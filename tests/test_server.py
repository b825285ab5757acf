"""The async serving tier: protocol, coalescing, admission, determinism.

The load-bearing test is :class:`TestServedBitsMatchDirectEvaluation`:
eight concurrent clients hammering one server over TCP must receive
answers bit-for-bit identical to direct ``BatchEvaluator`` calls for the
same ``(seed, backend, shard plan)`` — the serving tier may change when
worlds are sampled, never which.

Everything runs on the real stack — ``asyncio.start_server`` on an
ephemeral loopback port, real sockets, the real coalescing dispatcher —
wrapped in ``asyncio.run`` (no async test plugin needed).
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.graph.generators import erdos_renyi_graph
from repro.parallel import SerialExecutor
from repro.runtime import RuntimeConfig
from repro.server import (
    ReproServer,
    ServerClient,
    ServerConfig,
    protocol,
)
from repro.server.metrics import ServerMetrics
from repro.service import (
    BatchEvaluator,
    QueryRequest,
    request_to_dict,
    result_to_dict,
)

N_SAMPLES = 160
SEED = 11


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(50, 5.0, seed=4)


def workload(graph=None):
    """A mixed request workload sharing a handful of world batches."""
    requests = [
        QueryRequest(kind="expected_flow", source=0, n_samples=N_SAMPLES, seed=SEED),
        QueryRequest(kind="expected_flow", source=7, n_samples=N_SAMPLES, seed=SEED + 1),
    ]
    if graph is not None:
        edges = list(graph.incident_edges(0))[:3]
        requests.append(
            QueryRequest(
                kind="component_reachability",
                source=0,
                targets=tuple(sorted({v for e in edges for v in (e.u, e.v)} - {0})),
                edges=tuple(edges),
                n_samples=N_SAMPLES,
                seed=SEED,
            )
        )
    for target in range(1, 12):
        requests.append(
            QueryRequest(
                kind="pair_reachability",
                source=0,
                target=target,
                n_samples=N_SAMPLES,
                seed=SEED,
            )
        )
    return requests


def direct_reference(graph, requests):
    """What a direct, uncached BatchEvaluator answers — the bit oracle."""
    with BatchEvaluator(cache=0) as evaluator:
        results = evaluator.evaluate(graph, requests)
    return [comparable(json.loads(json.dumps(result_to_dict(r)))) for r in results]


def comparable(payload):
    """A response payload stripped to its deterministic evaluation bits."""
    return {
        key: value
        for key, value in payload.items()
        if key not in ("id", "ok", "latency_ms", "from_cache")
    }


def run(coro):
    return asyncio.run(coro)


async def start_server(graph, **overrides):
    server = ReproServer(graph, ServerConfig(port=0, **overrides))
    await server.start()
    return server


class TestProtocol:
    def test_lines_round_trip(self):
        payload = {"kind": "health", "id": 3, "nested": {"a": [1, 2.5]}}
        assert protocol.decode_line(protocol.encode_line(payload)) == payload

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ValueError):
            protocol.decode_line(b"[1, 2, 3]\n")

    def test_envelopes(self):
        ok = protocol.ok_response(9, {"kind": "health", "status": "ok"})
        assert ok == {"id": 9, "ok": True, "kind": "health", "status": "ok"}
        error = protocol.error_response(9, protocol.ERR_OVER_CAPACITY, "full")
        assert error["ok"] is False
        assert error["error"]["type"] == "over_capacity"

    def test_request_line_attaches_transport_fields(self):
        line = protocol.request_line({"kind": "health"}, request_id=4, tenant="t")
        assert protocol.decode_line(line) == {"kind": "health", "id": 4, "tenant": "t"}


class TestServerMetrics:
    def test_snapshot_shape(self):
        metrics = ServerMetrics()
        metrics.observe_admitted()
        metrics.observe_answered("expected_flow", 0.002)
        metrics.observe_answered("pair_reachability", 0.004)
        metrics.observe_rejected(protocol.ERR_OVER_CAPACITY)
        metrics.observe_batch(2)
        snap = metrics.snapshot()
        assert snap["requests"]["answered"] == 2
        assert snap["requests"]["answered_by_kind"] == {
            "expected_flow": 1,
            "pair_reachability": 1,
        }
        assert snap["requests"]["rejected"] == {"over_capacity": 1}
        assert snap["coalescing"] == {
            "batches": 1,
            "batched_requests": 2,
            "largest_batch": 2,
            "mean_batch_size": 2.0,
        }
        assert snap["latency_ms"]["count"] == 2
        # percentiles are interpolated from the histogram buckets and
        # clamped to the exactly tracked [min, max]: 2ms lands in the
        # (1ms, 2.5ms] bucket (p50 -> 2.5ms), p99 clamps to the 4ms max
        assert snap["latency_ms"]["p50"] == pytest.approx(2.5)
        assert snap["latency_ms"]["p99"] == pytest.approx(4.0)
        assert snap["latency_ms"]["max"] == pytest.approx(4.0)

    def test_percentiles_interpolate_and_clamp_to_observed_range(self):
        metrics = ServerMetrics()
        for latency in (0.001, 0.002, 0.009):
            metrics.observe_answered("expected_flow", latency)
        snap = metrics.snapshot()
        assert snap["latency_ms"]["count"] == 3
        # rank 1.5 of 3 falls halfway into the (1ms, 2.5ms] bucket
        assert snap["latency_ms"]["p50"] == pytest.approx(1.75)
        # no estimate may leave the observed range
        assert snap["latency_ms"]["p99"] <= snap["latency_ms"]["max"]
        assert snap["latency_ms"]["max"] == pytest.approx(9.0)
        # constant memory: no sliding window is retained anymore
        assert "window" not in snap["latency_ms"]


class TestServerConfigValidation:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            ServerConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServerConfig(batch_window_ms=-1.0)
        with pytest.raises(ValueError):
            ServerConfig(max_inflight=0)
        with pytest.raises(ValueError):
            ServerConfig(default_n_samples=0)
        with pytest.raises(TypeError):
            ServerConfig(runtime="naive")


class TestServedBitsMatchDirectEvaluation:
    """The tier's hard guarantee, under real concurrency."""

    N_CLIENTS = 8

    def test_eight_concurrent_clients_get_direct_evaluator_bits(self, graph):
        requests = workload(graph)
        reference = direct_reference(graph, requests)
        payloads = [request_to_dict(r) for r in requests]

        async def one_client(host, port):
            client = await ServerClient.connect(host, port)
            try:
                responses = await asyncio.gather(
                    *(client.query(payload) for payload in payloads)
                )
            finally:
                await client.close()
            return responses

        async def scenario():
            server = await start_server(
                graph, runtime=RuntimeConfig(world_cache=32), batch_window_ms=5.0
            )
            host, port = server.address
            try:
                per_client = await asyncio.gather(
                    *(one_client(host, port) for _ in range(self.N_CLIENTS))
                )
            finally:
                await server.stop()
            return per_client, server.metrics.snapshot()

        per_client, metrics = run(scenario())
        assert len(per_client) == self.N_CLIENTS
        for responses in per_client:
            assert all(response["ok"] for response in responses)
            assert [comparable(response) for response in responses] == reference
        served = metrics["requests"]["answered"]
        assert served == self.N_CLIENTS * len(requests)
        # concurrently arriving requests actually coalesced
        assert metrics["coalescing"]["largest_batch"] >= 2
        assert metrics["coalescing"]["batches"] < served

    def test_sharded_server_matches_sharded_direct_evaluation(self, graph):
        requests = workload(graph)[:6]
        with repro.session(workers=SerialExecutor(), shard_size=32), \
                BatchEvaluator(cache=0) as ev:
            reference = [
                comparable(json.loads(json.dumps(result_to_dict(r))))
                for r in ev.evaluate(graph, requests)
            ]

        async def scenario():
            server = await start_server(
                graph,
                runtime=RuntimeConfig(
                    workers=SerialExecutor(), shard_size=32, world_cache=8
                ),
            )
            host, port = server.address
            client = await ServerClient.connect(host, port)
            try:
                return await asyncio.gather(
                    *(client.query(request_to_dict(r)) for r in requests)
                )
            finally:
                await client.close()
                await server.stop()

        responses = run(scenario())
        assert [comparable(r) for r in responses] == reference

    def test_unsharded_and_sharded_servers_disagree_only_on_world_stream(self, graph):
        # sanity guard for the comparisons above: the shard signature is
        # part of the world key, so the two configurations legitimately
        # produce different (but each internally deterministic) streams
        request = workload()[0]
        direct_unsharded = direct_reference(graph, [request])[0]
        with repro.session(workers=SerialExecutor(), shard_size=32), \
                BatchEvaluator(cache=0) as ev:
            direct_sharded = comparable(
                json.loads(json.dumps(result_to_dict(ev.evaluate(graph, [request])[0])))
            )
        assert direct_unsharded != direct_sharded


class TestControlKinds:
    def test_health_reports_graph_and_status(self, graph):
        async def scenario():
            server = await start_server(graph)
            host, port = server.address
            client = await ServerClient.connect(host, port)
            try:
                return await client.health()
            finally:
                await client.close()
                await server.stop()

        health = run(scenario())
        assert health["ok"] is True
        assert health["status"] == "ok"
        assert health["graph"]["n_vertices"] == graph.n_vertices
        assert health["graph"]["n_edges"] == graph.n_edges
        assert health["uptime_s"] >= 0

    def test_metrics_exposes_cache_executor_and_latency_surface(self, graph):
        async def scenario():
            server = await start_server(
                graph,
                runtime=RuntimeConfig(
                    workers=SerialExecutor(), shard_size=32, world_cache=8
                ),
            )
            host, port = server.address
            client = await ServerClient.connect(host, port)
            try:
                await client.query(request_to_dict(workload()[0]))
                await client.query(request_to_dict(workload()[0]))
                return await client.metrics()
            finally:
                await client.close()
                await server.stop()

        metrics = run(scenario())
        assert metrics["cache"]["hits"] == 1.0
        assert metrics["cache"]["misses"] == 1.0
        assert metrics["cache"]["hit_rate"] == 0.5
        assert metrics["executor"] == {"workers": 1, "shard_size": 32, "sharded": True}
        assert metrics["requests"]["answered"] == 2
        assert metrics["latency_ms"]["p50"] is not None
        assert metrics["latency_ms"]["p99"] >= metrics["latency_ms"]["p50"]
        assert metrics["max_inflight"] == 256


class TestAdmissionControl:
    def test_over_capacity_requests_get_explicit_rejection_not_a_hang(self, graph):
        flood = 12
        max_inflight = 3

        async def scenario():
            # a wide-open coalescing window keeps admitted requests
            # in-flight while the flood arrives
            server = await start_server(
                graph,
                max_inflight=max_inflight,
                max_batch=64,
                batch_window_ms=300.0,
                runtime=RuntimeConfig(world_cache=8),
            )
            host, port = server.address
            client = await ServerClient.connect(host, port)
            try:
                responses = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            client.query(request_to_dict(r))
                            for r in [workload()[0]] * flood
                        )
                    ),
                    timeout=30.0,
                )
            finally:
                await client.close()
                await server.stop()
            return responses, server.metrics.snapshot()

        responses, metrics = run(scenario())
        answered = [r for r in responses if r["ok"]]
        rejected = [r for r in responses if not r["ok"]]
        assert len(responses) == flood  # nothing hung or was dropped
        assert len(answered) == max_inflight
        assert len(rejected) == flood - max_inflight
        for rejection in rejected:
            assert rejection["error"]["type"] == protocol.ERR_OVER_CAPACITY
            assert "retry" in rejection["error"]["message"]
        assert metrics["requests"]["rejected"][protocol.ERR_OVER_CAPACITY] == len(
            rejected
        )

    def test_draining_server_rejects_new_queries_explicitly(self, graph):
        async def scenario():
            server = await start_server(graph)
            host, port = server.address
            client = await ServerClient.connect(host, port)
            try:
                server._draining = True  # the drain window of stop()
                rejection = await client.query(request_to_dict(workload()[0]))
                health = await client.health()  # control kinds still answer
            finally:
                await client.close()
                await server.stop()
            return rejection, health

        rejection, health = run(scenario())
        assert rejection["ok"] is False
        assert rejection["error"]["type"] == protocol.ERR_SHUTTING_DOWN
        assert health["status"] == "draining"

    def test_malformed_json_gets_bad_request_response(self, graph):
        async def scenario():
            server = await start_server(graph)
            host, port = server.address
            client = await ServerClient.connect(host, port)
            try:
                await client.send_raw(b"this is not json\n")
                await client.send_raw(b"[1,2,3]\n")
                first = await asyncio.wait_for(client.unmatched.get(), timeout=5.0)
                second = await asyncio.wait_for(client.unmatched.get(), timeout=5.0)
            finally:
                await client.close()
                await server.stop()
            return first, second

        first, second = run(scenario())
        for response in (first, second):
            assert response["ok"] is False
            assert response["error"]["type"] == protocol.ERR_BAD_REQUEST

    def test_deeply_nested_json_is_a_bad_request_and_the_connection_survives(
        self, graph
    ):
        async def scenario():
            server = await start_server(graph)
            host, port = server.address
            client = await ServerClient.connect(host, port)
            try:
                await client.send_raw(b"[" * 5000 + b"\n")
                rejected = await asyncio.wait_for(client.unmatched.get(), timeout=5.0)
                health = await asyncio.wait_for(client.health(), timeout=5.0)
                metrics = await client.metrics()
            finally:
                await client.close()
                await server.stop()
            return rejected, health, metrics

        rejected, health, metrics = run(scenario())
        assert rejected["ok"] is False
        assert rejected["error"]["type"] == protocol.ERR_BAD_REQUEST
        assert "nested too deeply" in rejected["error"]["message"]
        assert health["ok"] is True
        assert metrics["requests"]["bad_requests"] == 1

    def test_oversized_line_is_answered_then_its_connection_closed(self, graph):
        async def scenario():
            server = await start_server(graph)
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            other = await ServerClient.connect(host, port)
            try:
                # a pipelined follow-up after the overlong line is not served:
                # the connection is closed once the error is written
                writer.write(b"x" * 1_000_000 + b"\n")
                writer.write(protocol.request_line({"kind": "health"}, request_id=2))
                await writer.drain()
                lines = []
                while True:
                    line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                    if not line:
                        break
                    lines.append(protocol.decode_line(line))
                health = await asyncio.wait_for(other.health(), timeout=5.0)
                metrics = await other.metrics()
            finally:
                writer.close()
                await other.close()
                await server.stop()
            return lines, health, metrics

        lines, health, metrics = run(scenario())
        assert len(lines) == 1
        assert lines[0]["ok"] is False
        assert lines[0]["error"]["type"] == protocol.ERR_BAD_REQUEST
        assert "exceeds" in lines[0]["error"]["message"]
        # other connections are unaffected
        assert health["ok"] is True
        assert metrics["requests"]["bad_requests"] == 1

    def test_unknown_vertex_rejected_before_the_queue(self, graph):
        async def scenario():
            server = await start_server(graph)
            host, port = server.address
            client = await ServerClient.connect(host, port)
            try:
                bad = await client.query(
                    {"kind": "expected_flow", "query": 999_999, "n_samples": 10}
                )
                metrics = await client.metrics()
            finally:
                await client.close()
                await server.stop()
            return bad, metrics

        bad, metrics = run(scenario())
        assert bad["ok"] is False
        assert bad["error"]["type"] == protocol.ERR_BAD_REQUEST
        assert "999999" in bad["error"]["message"]
        assert metrics["requests"]["admitted"] == 0
        assert metrics["requests"]["bad_requests"] == 1

    @pytest.mark.parametrize(
        "hostile",
        [
            "backend_field",
            "non_edge",
            "repeated_edge",
            "string_include_query",
            "ghost_component_vertex",
        ],
    )
    def test_hostile_line_does_not_fail_a_co_batched_request(self, graph, hostile):
        # a request from another client in the same coalescing window
        # gets its usual answer; only the hostile line is refused
        valid = workload()[0]
        edge = next(iter(graph.incident_edges(0)))
        non_neighbour = next(
            v for v in graph.vertices() if v != 0 and not graph.has_edge(0, v)
        )
        line = {
            "backend_field": {"kind": "expected_flow", "query": 0, "backend": "bogus"},
            "non_edge": {
                "kind": "expected_flow", "query": 0, "edges": [[0, non_neighbour]]
            },
            "repeated_edge": {
                "kind": "pair_reachability", "source": edge.u, "target": edge.v,
                "edges": [[edge.u, edge.v], [edge.v, edge.u]],
            },
            "string_include_query": {
                "kind": "expected_flow", "query": 0, "include_query": "false"
            },
            "ghost_component_vertex": {
                "kind": "component", "anchor": edge.u, "vertices": ["ghost", edge.v],
                "edges": [[edge.u, edge.v]],
            },
        }[hostile]
        line.update(n_samples=N_SAMPLES, seed=SEED)

        async def scenario():
            server = await start_server(graph, batch_window_ms=50.0)
            host, port = server.address
            clients = [await ServerClient.connect(host, port) for _ in range(2)]
            try:
                return await asyncio.gather(
                    clients[0].query(line), clients[1].query(request_to_dict(valid))
                )
            finally:
                for client in clients:
                    await client.close()
                await server.stop()

        refused, answered = run(scenario())
        assert refused["ok"] is False
        assert refused["error"]["type"] == protocol.ERR_BAD_REQUEST
        assert answered["ok"] is True
        assert comparable(answered) == direct_reference(graph, [valid])[0]


class TestTenants:
    def test_tenant_names_keep_no_server_state(self, graph, monkeypatch):
        """Untrusted tenant names cannot grow the server: one session serves all."""
        import repro.server.app as app

        built = []

        class CountingSession(app.Session):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(app, "Session", CountingSession)
        request = workload()[0]
        names = [f"tenant-{index}" for index in range(40)]

        async def scenario():
            server = await start_server(graph, runtime=RuntimeConfig(world_cache=8))
            host, port = server.address
            client = await ServerClient.connect(host, port)
            try:
                default = await client.query(request_to_dict(request))
                named = await asyncio.gather(
                    *(client.query(request_to_dict(request), tenant=name) for name in names)
                )
                health = await client.health()
                metrics = await client.metrics()
            finally:
                await client.close()
                await server.stop()
            return default, named, health, metrics

        default, named, health, metrics = run(scenario())
        assert len(built) == 1  # the server's own session, whatever the names
        # identical bits for every tenant, served from the one shared cache
        assert default["from_cache"] is False
        for response in named:
            assert comparable(response) == comparable(default)
            assert response["from_cache"] is True
        assert "tenants" not in health
        assert "tenants" not in metrics

    def test_non_string_tenant_is_a_bad_request(self, graph):
        async def scenario():
            server = await start_server(graph)
            host, port = server.address
            client = await ServerClient.connect(host, port)
            try:
                payload = request_to_dict(workload()[0])
                payload["tenant"] = 7
                payload["id"] = 1
                await client.send_raw(protocol.encode_line(payload))
                return await asyncio.wait_for(client.unmatched.get(), timeout=5.0)
            finally:
                await client.close()
                await server.stop()

        response = run(scenario())
        assert response["ok"] is False
        assert response["error"]["type"] == protocol.ERR_BAD_REQUEST
        assert "tenant" in response["error"]["message"]


class TestWarmupAndDrain:
    def test_warm_requests_fill_the_cache_before_serving(self, graph):
        request = workload()[0]

        async def scenario():
            server = await start_server(
                graph,
                runtime=RuntimeConfig(world_cache=8),
                warm_requests=(request,),
            )
            host, port = server.address
            client = await ServerClient.connect(host, port)
            try:
                return await client.query(request_to_dict(request))
            finally:
                await client.close()
                await server.stop()

        response = run(scenario())
        assert response["ok"] is True
        assert response["from_cache"] is True  # served without sampling

    def test_stop_drains_admitted_work_before_closing(self, graph):
        requests = workload(graph)[:5]
        reference = direct_reference(graph, requests)

        async def scenario():
            server = await start_server(
                graph, batch_window_ms=100.0, runtime=RuntimeConfig(world_cache=8)
            )
            host, port = server.address
            client = await ServerClient.connect(host, port)
            tasks = [
                asyncio.create_task(client.query(request_to_dict(r)))
                for r in requests
            ]
            # let admission happen, then begin the drain while the batch
            # window is still open
            await asyncio.sleep(0.02)
            stop_task = asyncio.create_task(server.stop())
            responses = await asyncio.wait_for(asyncio.gather(*tasks), timeout=30.0)
            await stop_task
            await client.close()
            # the listener is gone: new connections are refused
            with pytest.raises(OSError):
                await ServerClient.connect(host, port)
            return responses

        responses = run(scenario())
        assert [comparable(r) for r in responses] == reference

    def test_stop_is_idempotent(self, graph):
        async def scenario():
            server = await start_server(graph)
            await server.stop()
            await server.stop()

        run(scenario())

    def test_client_disconnect_does_not_wedge_the_server(self, graph):
        async def scenario():
            server = await start_server(
                graph, batch_window_ms=100.0, runtime=RuntimeConfig(world_cache=8)
            )
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                protocol.request_line(request_to_dict(workload()[0]), request_id=1)
            )
            await writer.drain()
            writer.close()  # vanish before the answer exists
            await writer.wait_closed()
            # the server still drains the admitted request and shuts down
            await asyncio.wait_for(server.stop(), timeout=30.0)
            return server.metrics.snapshot()

        metrics = run(scenario())
        assert metrics["requests"]["admitted"] == 1


class TestServeCLI:
    """End-to-end: the `repro-flow serve` subcommand over a real socket."""

    def test_serve_subcommand_serves_and_drains_on_sigint(self, graph, tmp_path):
        from repro.graph.io import write_json

        graph_path = tmp_path / "graph.json"
        write_json(graph, graph_path)
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--graph",
                str(graph_path),
                "--port",
                "0",
                "--cache-size",
                "8",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            startup = process.stdout.readline().strip()
            assert "serving" in startup
            port = int(startup.rsplit(":", 1)[1])

            request = workload()[0]
            reference = direct_reference(graph, [request])[0]

            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall(
                    protocol.request_line(request_to_dict(request), request_id=1)
                )
                sock.sendall(protocol.request_line({"kind": "health"}, request_id=2))
                stream = sock.makefile("rb")
                responses = [
                    protocol.decode_line(stream.readline()) for _ in range(2)
                ]
            by_id = {response["id"]: response for response in responses}
            assert comparable(by_id[1]) == reference
            assert by_id[2]["status"] == "ok"

            process.send_signal(signal.SIGINT)
            stdout, stderr = process.communicate(timeout=30)
            assert process.returncode == 0
            assert "draining" in stderr
            assert "served 1 requests" in stderr
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
                process.communicate()

    def test_serve_parser_accepts_the_new_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--graph",
                "g.json",
                "--port",
                "0",
                "--max-batch",
                "16",
                "--batch-window-ms",
                "1.5",
                "--max-inflight",
                "32",
                "--workers",
                "2",
                "--cache-size",
                "8",
            ]
        )
        assert args.command == "serve"
        assert args.max_batch == 16
        assert args.batch_window_ms == 1.5
        assert args.max_inflight == 32


class TestCoalescing:
    def test_pipelined_requests_land_in_shared_batches(self, graph):
        requests = workload(graph)

        async def scenario():
            server = await start_server(
                graph,
                batch_window_ms=50.0,
                runtime=RuntimeConfig(world_cache=8),
            )
            host, port = server.address
            client = await ServerClient.connect(host, port)
            try:
                responses = await asyncio.gather(
                    *(client.query(request_to_dict(r)) for r in requests)
                )
            finally:
                await client.close()
                await server.stop()
            return responses, server.metrics.snapshot()

        responses, metrics = run(scenario())
        assert all(response["ok"] for response in responses)
        assert metrics["coalescing"]["largest_batch"] >= 2
        assert metrics["coalescing"]["batches"] < len(requests)

    def test_max_batch_bounds_a_dispatch(self, graph):
        requests = [workload()[0]] * 9

        async def scenario():
            server = await start_server(
                graph,
                max_batch=3,
                batch_window_ms=100.0,
                runtime=RuntimeConfig(world_cache=8),
            )
            host, port = server.address
            client = await ServerClient.connect(host, port)
            try:
                await asyncio.gather(
                    *(client.query(request_to_dict(r)) for r in requests)
                )
            finally:
                await client.close()
                await server.stop()
            return server.metrics.snapshot()

        metrics = run(scenario())
        assert metrics["coalescing"]["largest_batch"] <= 3
        assert metrics["coalescing"]["batched_requests"] == len(requests)


class TestServeHelper:
    def test_serve_builds_and_starts(self, graph):
        from repro.server import serve

        async def scenario():
            server = await serve(graph, port=0)
            try:
                return server.address
            finally:
                await server.stop()

        host, port = run(scenario())
        assert host == "127.0.0.1"
        assert port > 0

    def test_double_start_is_an_error(self, graph):
        async def scenario():
            server = await start_server(graph)
            try:
                with pytest.raises(RuntimeError):
                    await server.start()
            finally:
                await server.stop()

        run(scenario())


class TestClientTimeouts:
    """A dead or wedged peer raises the typed timeout, never hangs."""

    def test_wedged_server_read_timeout_raises_typed_error(self):
        from repro.exceptions import TransportTimeoutError

        async def scenario():
            async def accept_and_stall(reader, writer):
                await reader.readline()  # swallow the request, never answer

            silent = await asyncio.start_server(
                accept_and_stall, "127.0.0.1", 0
            )
            host, port = silent.sockets[0].getsockname()[:2]
            client = await ServerClient.connect(host, port)
            try:
                with pytest.raises(TransportTimeoutError) as excinfo:
                    await client.request({"kind": "health"}, timeout=0.1)
                assert excinfo.value.timeout == 0.1
                assert isinstance(excinfo.value, TimeoutError)
                # the withdrawn waiter must not leak: a second request on
                # the same connection still times out cleanly
                with pytest.raises(TransportTimeoutError):
                    await client.request({"kind": "health"}, timeout=0.1)
            finally:
                await client.close()
                silent.close()
                await silent.wait_closed()

        run(scenario())

    def test_client_default_read_timeout_applies_to_every_request(self):
        from repro.exceptions import TransportTimeoutError

        async def scenario():
            async def accept_and_stall(reader, writer):
                await reader.readline()

            silent = await asyncio.start_server(
                accept_and_stall, "127.0.0.1", 0
            )
            host, port = silent.sockets[0].getsockname()[:2]
            client = await ServerClient.connect(host, port, read_timeout=0.1)
            try:
                with pytest.raises(TransportTimeoutError):
                    await client.health()
            finally:
                await client.close()
                silent.close()
                await silent.wait_closed()

        run(scenario())

    def test_timeout_none_keeps_the_historical_wait(self, graph):
        async def scenario():
            server = await start_server(graph)
            host, port = server.address
            client = await ServerClient.connect(
                host, port, read_timeout=0.0001  # would expire instantly...
            )
            try:
                # ...but an explicit None overrides the default and waits
                response = await client.request({"kind": "health"}, timeout=None)
            finally:
                await client.close()
                await server.stop()
            return response

        response = run(scenario())
        assert response["status"] == "ok"

    def test_connect_timeout_raises_typed_error(self):
        from repro.exceptions import TransportTimeoutError

        async def scenario():
            # a bound-but-unaccepted socket: SYN backlog fills and the
            # connect attempt can only resolve via the deadline
            blocker = socket.socket()
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(0)
            host, port = blocker.getsockname()
            saturate = [socket.socket() for _ in range(4)]
            try:
                for s in saturate:
                    s.setblocking(False)
                    try:
                        s.connect((host, port))
                    except BlockingIOError:
                        pass
                with pytest.raises(TransportTimeoutError) as excinfo:
                    await ServerClient.connect(host, port, connect_timeout=0.2)
                assert "connecting to" in str(excinfo.value)
            finally:
                for s in saturate:
                    s.close()
                blocker.close()

        run(scenario())
