"""Resource profiling and Prometheus exposition.

Four contracts are load-bearing:

* **Attribution exactness** — a span's CPU delta is sandwiched by
  per-thread ``time.thread_time`` measurements taken around it, even
  with 8 threads burning CPU concurrently (CPU time is per-thread;
  allocation deltas, being process-wide tracemalloc readings, are pinned
  single-threaded).
* **Self vs. cumulative** — ``self >= 0`` everywhere, parents' cumulative
  totals dominate their children's, and self times sum exactly to the
  root cumulative total.
* **Collapsed-stack round-trip** — ``format → parse →
  totals_from_collapsed`` reconstructs every cumulative total exactly.
* **Bit-identical results** — a profiled run returns the same bits as an
  unprofiled one, and the Prometheus text served by the scrape endpoint
  and the ``metrics_text`` control kind agrees with the ``metrics``
  snapshot.
"""

import asyncio
import threading
import time
import urllib.request

import pytest

from repro.exceptions import ReproError
from repro.graph.generators import erdos_renyi_graph
from repro.runtime import RuntimeConfig, Session
from repro.service import BatchEvaluator, QueryRequest, request_to_dict
from repro.telemetry import InMemoryExporter, Telemetry, current_telemetry
from repro.telemetry.expo import (
    MetricsHTTPServer,
    WindowRates,
    render_server_text,
    sanitize_metric_name,
)
from repro.telemetry.profile import (
    ProfileSpanRecord,
    ProfilingTelemetry,
    collapsed_stacks,
    format_collapsed,
    format_hot_spans,
    hot_spans,
    parse_collapsed,
    span_totals,
    totals_from_collapsed,
)
from repro.telemetry.registry import Histogram, MetricsRegistry
from repro.telemetry.spans import SpanRecord

N_THREADS = 8


@pytest.fixture(autouse=True)
def _no_ambient_telemetry(monkeypatch):
    """Pin the ambient default off so tests see only their own pipelines."""
    import repro.telemetry.core as telemetry_core

    monkeypatch.setattr(telemetry_core, "_ENV_TELEMETRY", None)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(30, average_degree=4.0, seed=3)


def _spin(iterations: int = 200_000) -> int:
    total = 0
    for i in range(iterations):
        total += i
    return total


# ----------------------------------------------------------------------
# per-span resource deltas
# ----------------------------------------------------------------------
class TestResourceDeltas:
    def test_cpu_delta_is_exact_per_thread_under_8_threads(self):
        """Each span's CPU delta is sandwiched by its own thread's clock.

        ``time.thread_time`` is per-thread, so even with 8 threads
        burning CPU concurrently, a span can only account for CPU its
        own thread spent between enter and exit.
        """
        tel = ProfilingTelemetry()
        results = [None] * N_THREADS

        def worker(index: int) -> None:
            before = time.thread_time()
            with tel.span(f"work-{index}") as handle:
                _spin()
            after = time.thread_time()
            results[index] = (handle.record.cpu_s, after - before)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tel.close()
        for cpu_s, envelope in results:
            assert cpu_s > 0.0
            # the span interval is strictly inside the measured envelope
            assert cpu_s <= envelope + 1e-9

    def test_waiting_span_does_not_absorb_other_threads_cpu(self):
        tel = ProfilingTelemetry()
        stop = threading.Event()

        def burner() -> None:
            while not stop.is_set():
                _spin(50_000)

        burners = [threading.Thread(target=burner) for _ in range(3)]
        for thread in burners:
            thread.start()
        try:
            with tel.span("sleeper") as handle:
                time.sleep(0.15)
        finally:
            stop.set()
            for thread in burners:
                thread.join()
        tel.close()
        record = handle.record
        # wall time saw the sleep; per-thread CPU saw (almost) none of it
        assert record.duration_s >= 0.14
        assert record.cpu_s < 0.05

    def test_allocation_delta_tracks_a_known_allocation(self):
        tel = ProfilingTelemetry()
        with tel.span("alloc") as handle:
            block = bytearray(512 * 1024)
        tel.close()
        assert handle.record.alloc_bytes >= 512 * 1024
        assert len(block) == 512 * 1024  # keep it alive through the span

    def test_gc_collections_are_counted(self):
        import gc

        tel = ProfilingTelemetry()
        with tel.span("collected") as handle:
            gc.collect()
        tel.close()
        assert handle.record.gc_collections >= 1

    def test_profiled_spans_nest_and_serialize(self):
        tel = ProfilingTelemetry(exporters=[memory := InMemoryExporter()])
        with tel.span("outer"):
            with tel.span("inner"):
                _spin(10_000)
        tel.close()
        [root] = memory.spans
        assert isinstance(root, ProfileSpanRecord)
        assert [child.name for child in root.children] == ["inner"]
        payload = root.to_dict()
        assert {"cpu_s", "alloc_bytes", "gc_collections"} <= set(payload)
        assert payload["children"][0]["name"] == "inner"

    def test_tracemalloc_lifecycle_is_owned(self):
        import tracemalloc

        assert not tracemalloc.is_tracing()
        tel = ProfilingTelemetry()
        assert not tracemalloc.is_tracing()  # nothing traced before a root span
        with tel.span("root"):
            assert tracemalloc.is_tracing()
            with tel.span("child"):
                assert tracemalloc.is_tracing()
            assert tracemalloc.is_tracing()  # a closing child keeps it on
        assert not tracemalloc.is_tracing()
        # tracing started by someone else is left running
        tracemalloc.start()
        try:
            with tel.span("root"):
                pass
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        tel.close()
        # trace_allocations=False never starts it
        untraced = ProfilingTelemetry(trace_allocations=False)
        with untraced.span("root") as handle:
            assert not tracemalloc.is_tracing()
        untraced.close()
        assert handle.record.alloc_bytes == 0

    def test_unclosed_profiled_session_leaves_tracing_off(self):
        import tracemalloc

        import repro

        assert not tracemalloc.is_tracing()
        tel = ProfilingTelemetry()  # never closed
        with repro.session(telemetry=tel):
            with tel.span("alloc") as handle:
                block = bytearray(512 * 1024)
        assert not tracemalloc.is_tracing()
        assert handle.record.alloc_bytes >= 512 * 1024
        assert len(block) == 512 * 1024  # keep it alive through the span


# ----------------------------------------------------------------------
# self-vs-cumulative attribution and the collapsed-stack export
# ----------------------------------------------------------------------
def _synthetic_tree() -> SpanRecord:
    """root(10ms) -> a(4ms) -> [a1(1ms), a2(2ms)], b(3ms)."""

    def span(name: str, ms: float, children=()) -> SpanRecord:
        record = SpanRecord(name)
        record.duration_s = ms / 1000.0
        record.children = list(children)
        return record

    return span(
        "root",
        10.0,
        [span("a", 4.0, [span("a1", 1.0), span("a2", 2.0)]), span("b", 3.0)],
    )


class TestAttribution:
    def test_self_vs_cumulative_invariants_on_synthetic_tree(self):
        totals = span_totals([_synthetic_tree()])
        assert totals["root"]["cum_us"] == 10_000
        assert totals["root"]["self_us"] == 10_000 - 4_000 - 3_000
        assert totals["a"]["cum_us"] == 4_000
        assert totals["a"]["self_us"] == 4_000 - 1_000 - 2_000
        assert totals["a1"]["self_us"] == totals["a1"]["cum_us"] == 1_000
        # self times across the tree sum exactly to the root cumulative
        assert sum(entry["self_us"] for entry in totals.values()) == 10_000

    def test_self_never_negative_even_when_children_overrun(self):
        # float jitter: children measured longer than their parent
        parent = SpanRecord("p")
        parent.duration_s = 0.0009999
        child = SpanRecord("c")
        child.duration_s = 0.0010001
        parent.children = [child]
        totals = span_totals([parent])
        assert totals["p"]["self_us"] == 0
        assert totals["p"]["cum_us"] == totals["c"]["cum_us"]

    def test_invariants_on_a_real_profiled_run(self, graph):
        tel = ProfilingTelemetry(exporters=[memory := InMemoryExporter()])
        with Session(RuntimeConfig(telemetry=tel)) as session:
            session.expected_flow(graph, 0, n_samples=200, seed=5)
        tel.close()
        assert memory.spans
        totals = span_totals(memory.spans)
        for name, entry in totals.items():
            assert entry["self_us"] >= 0, name
            assert entry["cum_us"] >= entry["self_us"], name

    def test_collapsed_stack_round_trip_reconstructs_totals_exactly(self):
        roots = [_synthetic_tree()]
        text = format_collapsed(roots)
        reconstructed = totals_from_collapsed(parse_collapsed(text))
        assert reconstructed == {
            "root": 10_000,
            "root;a": 4_000,
            "root;a;a1": 1_000,
            "root;a;a2": 2_000,
            "root;b": 3_000,
        }

    def test_collapsed_round_trip_on_a_real_profiled_run(self, graph):
        tel = ProfilingTelemetry(exporters=[memory := InMemoryExporter()])
        with Session(RuntimeConfig(telemetry=tel)):
            BatchEvaluator().evaluate(
                graph,
                [QueryRequest(kind="expected_flow", source=0, n_samples=150, seed=2)],
            )
        tel.close()
        stacks = collapsed_stacks(memory.spans)
        assert stacks  # something was profiled
        reconstructed = totals_from_collapsed(parse_collapsed(format_collapsed(memory.spans)))

        def expected(span, prefix, out):
            path = f"{prefix};{span.name}" if prefix else span.name
            child_total = sum(expected(c, path, out) for c in span.children)
            cum = max(round(span.duration_s * 1e6), child_total)
            out[path] = out.get(path, 0) + cum
            return cum

        want = {}
        for root in memory.spans:
            expected(root, "", want)
        for path, cum in want.items():
            if cum > 0:
                assert reconstructed[path] == cum

    def test_parse_collapsed_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_collapsed("justoneword\n")

    def test_hot_spans_rank_by_self_time(self):
        ranked = hot_spans([_synthetic_tree()], limit=2)
        # root and b tie at 3000us self; the name breaks the tie
        assert [name for name, _ in ranked] == ["b", "root"]
        table = format_hot_spans([_synthetic_tree()])
        assert "span" in table and "root" in table and "self ms" in table


# ----------------------------------------------------------------------
# resolution chain and bit-identical results
# ----------------------------------------------------------------------
class TestProfileResolution:
    def test_profile_config_validation(self):
        # profiling is chosen by the pipeline, not by a config flag
        with pytest.raises(TypeError):
            RuntimeConfig(profile=True)
        assert "profile" not in RuntimeConfig().as_dict()
        assert ProfilingTelemetry.profiling and not Telemetry.profiling

    def test_profile_shares_a_passed_profiling_instance(self):
        tel = ProfilingTelemetry()
        session = Session(RuntimeConfig(telemetry=tel))
        assert session.telemetry is tel
        session.close()
        assert tel.enabled  # shared instances are left alone
        tel.close()

    def test_profiled_run_is_bit_identical_to_unprofiled(self, graph):
        with Session() as session:
            plain = session.expected_flow(graph, 0, n_samples=400, seed=9)
        tel = ProfilingTelemetry()
        with Session(RuntimeConfig(telemetry=tel)) as session:
            profiled = session.expected_flow(graph, 0, n_samples=400, seed=9)
        tel.close()
        with Session(RuntimeConfig(telemetry=True)) as session:
            traced = session.expected_flow(graph, 0, n_samples=400, seed=9)
        assert profiled.expected_flow == plain.expected_flow
        assert profiled.variance == plain.variance
        assert profiled.reachability == plain.reachability
        assert traced.expected_flow == plain.expected_flow

    def test_profiled_batch_is_bit_identical(self, graph):
        requests = [
            QueryRequest(kind="expected_flow", source=0, n_samples=120, seed=1),
            QueryRequest(kind="pair_reachability", source=0, target=3, n_samples=120, seed=1),
        ]
        with Session():
            plain = [request_to_dict(r) for r in requests]  # keep requests fixed
            baseline = BatchEvaluator().evaluate(graph, requests)
        tel = ProfilingTelemetry()
        with Session(RuntimeConfig(telemetry=tel)):
            profiled = BatchEvaluator().evaluate(graph, requests)
        tel.close()
        assert plain == [request_to_dict(r) for r in requests]
        assert [r.value for r in profiled] == [r.value for r in baseline]


# ----------------------------------------------------------------------
# Histogram.quantile
# ----------------------------------------------------------------------
class TestHistogramQuantile:
    def test_interpolates_within_the_target_bucket(self):
        hist = Histogram("h")
        hist.observe(0.002)
        hist.observe(0.004)
        # rank 1 of 2 lands at the top of the (0.001, 0.0025] bucket
        assert hist.quantile(0.5) == pytest.approx(0.0025)
        # estimate past the max clamps to the exactly tracked max
        assert hist.quantile(0.99) == pytest.approx(0.004)

    def test_bounds_cases(self):
        hist = Histogram("h")
        assert hist.quantile(0.5) is None
        hist.observe(0.007)
        assert hist.quantile(0.0) == pytest.approx(0.007)
        assert hist.quantile(1.0) == pytest.approx(0.007)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_overflow_bucket_reports_the_exact_max(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(95.0)  # overflow bucket
        assert hist.quantile(0.99) == pytest.approx(95.0)

    def test_estimates_never_leave_the_observed_range(self):
        hist = Histogram("h")
        for value in (0.0003, 0.0004, 0.0009, 0.012):
            hist.observe(value)
        for q in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
            estimate = hist.quantile(q)
            assert 0.0003 <= estimate <= 0.012


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def _parse_samples(text: str):
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples


class TestExposition:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("engine.worlds_sampled") == "repro_engine_worlds_sampled"
        assert sanitize_metric_name("cache.world.hit-rate") == "repro_cache_world_hit_rate"
        assert sanitize_metric_name("9lives", prefix="") == "_9lives"

    def test_render_registry_counters_gauges_and_cumulative_buckets(self):
        registry = MetricsRegistry()
        registry.counter("engine.worlds_sampled").add(7)
        registry.gauge("executor.workers").set(4)
        hist = registry.histogram("service.latency", bounds=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 5.0):
            hist.observe(value)
        text = render_server_text({"telemetry": registry.snapshot()})
        assert "# TYPE repro_engine_worlds_sampled_total counter" in text
        assert "# TYPE repro_service_latency histogram" in text
        samples = _parse_samples(text)
        assert samples["repro_engine_worlds_sampled_total"] == 7
        assert samples["repro_executor_workers"] == 4
        # bucket series are cumulative and end in the +Inf total
        assert samples['repro_service_latency_bucket{le="0.001"}'] == 1
        assert samples['repro_service_latency_bucket{le="0.01"}'] == 2
        assert samples['repro_service_latency_bucket{le="0.1"}'] == 3
        assert samples['repro_service_latency_bucket{le="+Inf"}'] == 4
        assert samples["repro_service_latency_count"] == 4
        assert samples["repro_service_latency_sum"] == pytest.approx(5.0555)
        # quantile gauges match the histogram's own estimator
        assert samples['repro_service_latency_quantile{quantile="0.5"}'] == pytest.approx(
            hist.quantile(0.5)
        )
        assert samples['repro_service_latency_quantile{quantile="0.99"}'] == pytest.approx(
            hist.quantile(0.99)
        )

    def test_render_server_text_flattens_the_metrics_payload(self):
        payload = {
            "requests": {
                "admitted": 5,
                "answered": 4,
                "answered_by_kind": {"expected_flow": 4},
                "failed": 1,
                "rejected": {"over_capacity": 2},
                "bad_requests": 0,
                "control": 3,
            },
            "coalescing": {
                "batches": 2,
                "batched_requests": 4,
                "largest_batch": 3,
                "mean_batch_size": 2.0,
            },
            "latency_ms": {"count": 4, "mean": 2.0, "p50": 1.5, "p95": 3.0, "p99": 3.5, "max": 4.0},
            "cache": {"hits": 10.0, "misses": 2.0, "hit_rate": 10 / 12},
            "executor": {"workers": 2, "shard_size": 256, "sharded": True},
            "inflight": 1,
            "max_inflight": 256,
            "rates": {"qps": 1.5, "hit_rate": 0.8, "rejection_rate": 0.0, "window_s": 5.0},
            "telemetry": None,
        }
        samples = _parse_samples(render_server_text(payload))
        assert samples["repro_server_admitted_total"] == 5
        assert samples["repro_server_answered_total"] == 4
        assert samples['repro_server_rejected_total{error_type="over_capacity"}'] == 2
        assert samples['repro_server_answered_by_kind_total{kind="expected_flow"}'] == 4
        assert samples["repro_server_batches_total"] == 2
        assert samples["repro_server_latency_ms_p99"] == 3.5
        assert samples["repro_server_cache_hits"] == 10
        assert samples["repro_server_executor_workers"] == 2
        assert samples["repro_server_rate_qps"] == 1.5
        assert samples["repro_server_inflight"] == 1

    def test_window_rates_from_snapshot_deltas(self):
        rates = WindowRates()
        first = {
            "requests": {"admitted": 10, "answered": 10, "rejected": {}},
            "cache": {"hits": 4.0, "misses": 4.0},
        }
        assert rates.update(100.0, first) is None  # baseline only
        second = {
            "requests": {"admitted": 30, "answered": 25, "rejected": {"over_capacity": 5}},
            "cache": {"hits": 16.0, "misses": 8.0},
        }
        window = rates.update(110.0, second)
        assert window["qps"] == pytest.approx(1.5)  # 15 answered / 10 s
        assert window["hit_rate"] == pytest.approx(12 / 16)
        assert window["rejection_rate"] == pytest.approx(5 / 25)
        assert window["window_s"] == pytest.approx(10.0)
        # an idle window reports no traffic-dependent rates
        idle = rates.update(120.0, second)
        assert idle["qps"] == 0.0
        assert idle["hit_rate"] is None
        assert idle["rejection_rate"] is None

    def test_metrics_http_server_serves_and_404s(self):
        registry = MetricsRegistry()
        registry.counter("demo.hits").add(3)
        server = MetricsHTTPServer(
            lambda: render_server_text({"telemetry": registry.snapshot()})
        ).start()
        try:
            host, port = server.address
            body = urllib.request.urlopen(f"http://{host}:{port}/metrics").read().decode()
            assert _parse_samples(body)["repro_demo_hits_total"] == 3
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"http://{host}:{port}/nope")
        finally:
            server.stop()


# ----------------------------------------------------------------------
# the two serving transports agree with the snapshot
# ----------------------------------------------------------------------
class TestServedExposition:
    def test_scrape_and_metrics_text_round_trip_against_snapshot(self, graph):
        from repro.server import ReproServer, ServerClient, protocol

        async def scenario():
            server = ReproServer(
                graph,
                port=0,
                metrics_port=0,
                rate_interval_s=0.05,
                runtime=RuntimeConfig(telemetry=Telemetry(), world_cache=16),
            )
            await server.start()
            host, port = server.address
            client = await ServerClient.connect(host, port)
            try:
                for i in range(3):
                    response = await client.query(
                        {"kind": "expected_flow", "query": 0, "n_samples": 80, "seed": i}
                    )
                    assert response["ok"]
                await asyncio.sleep(0.12)  # let the rate task tick
                snapshot = await client.request({"kind": protocol.KIND_METRICS})
                text_response = await client.request(
                    {"kind": protocol.KIND_METRICS_TEXT}
                )
                metrics_host, metrics_port = server.metrics_address
                loop = asyncio.get_running_loop()
                scraped = await loop.run_in_executor(
                    None,
                    lambda: urllib.request.urlopen(
                        f"http://{metrics_host}:{metrics_port}/metrics", timeout=10
                    ).read().decode(),
                )
            finally:
                await client.close()
                await server.stop()
            return snapshot, text_response, scraped

        snapshot, text_response, scraped = asyncio.run(scenario())
        assert text_response["ok"] and text_response["kind"] == "metrics_text"
        for text in (scraped, text_response["text"]):
            samples = _parse_samples(text)
            # counter values match the metrics control-kind snapshot
            assert samples["repro_server_answered_total"] == snapshot["requests"]["answered"]
            assert samples["repro_server_admitted_total"] == snapshot["requests"]["admitted"]
            assert samples["repro_server_batches_total"] == snapshot["coalescing"]["batches"]
            # every name{labels} sample appears once, although the shared
            # telemetry registry (which also counts server.*) rides along
            names = [
                line.rpartition(" ")[0]
                for line in text.splitlines()
                if line and not line.startswith("#")
            ]
            assert len(names) == len(set(names)), sorted(
                name for name in set(names) if names.count(name) > 1
            )
            assert "repro_server_latency_seconds_bucket" in text
            # the periodic snapshot-delta task published windowed rates
            assert "repro_server_rate_qps" in samples

    def test_metrics_endpoint_disabled_by_default(self, graph):
        from repro.server import ReproServer

        async def scenario():
            server = ReproServer(graph, port=0, rate_interval_s=0.0)
            await server.start()
            try:
                with pytest.raises(RuntimeError):
                    server.metrics_address
            finally:
                await server.stop()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# CLI: --profile wiring and the --trace-out lifecycle fix
# ----------------------------------------------------------------------
class TestProfilingCLI:
    @pytest.fixture
    def graph_file(self, tmp_path, graph):
        from repro.graph.io import write_json

        path = tmp_path / "graph.json"
        write_json(graph, path)
        return path

    @pytest.fixture
    def requests_file(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            '{"kind": "expected_flow", "query": 0}\n'
            '{"kind": "pair_reachability", "source": 0, "target": 3}\n'
            '{"kind": "expected_flow", "query": 5, "seed": 1}\n',
            encoding="utf-8",
        )
        return path

    def test_batch_profile_reconstructs_totals(
        self, graph_file, requests_file, tmp_path, capsys
    ):
        from repro.cli import main

        flame = tmp_path / "profile.folded"
        assert (
            main(
                [
                    "batch",
                    "--graph",
                    str(graph_file),
                    "--requests",
                    str(requests_file),
                    "--samples",
                    "100",
                    "--warm",
                    "--profile",
                    "--flame-out",
                    str(flame),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        reconstructed = totals_from_collapsed(
            parse_collapsed(flame.read_text(encoding="utf-8"))
        )
        # the collapsed export carries the batch's root spans' totals
        assert {path.split(";")[0] for path in reconstructed} == {
            "service.warm",
            "service.evaluate",
        }
        assert all(cum > 0 for cum in reconstructed.values())
        # the hot-span table is printed, hottest (self time) first
        lines = err.splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("span "))
        rows = []
        for line in lines[header + 2 :]:
            fields = line.split()
            if len(fields) != 7:
                break
            rows.append(float(fields[2]))
        assert rows and all(value >= 0 for value in rows)
        assert rows == sorted(rows, reverse=True)

    def test_flame_out_writes_collapsed_stacks(
        self, graph_file, requests_file, tmp_path, capsys
    ):
        from repro.cli import main

        flame = tmp_path / "profile.folded"
        assert (
            main(
                [
                    "batch",
                    "--graph",
                    str(graph_file),
                    "--requests",
                    str(requests_file),
                    "--samples",
                    "100",
                    "--flame-out",
                    str(flame),
                ]
            )
            == 0
        )
        stacks = parse_collapsed(flame.read_text(encoding="utf-8"))
        assert stacks
        assert all(weight > 0 for weight in stacks.values())

    def test_trace_out_flushed_and_closed_when_batch_fails(
        self, graph_file, tmp_path, monkeypatch
    ):
        """Satellite regression: the JSONL exporter must not lose its file
        handle when a workload subcommand raises mid-run."""
        from repro.cli import main
        from repro.telemetry import JSONLExporter

        closed = []
        original_close = JSONLExporter.close

        def recording_close(self):
            closed.append(self.path)
            original_close(self)

        monkeypatch.setattr(JSONLExporter, "close", recording_close)

        def failing_evaluate(self, graph, requests):
            with current_telemetry().span("doomed.work"):
                pass
            raise ReproError("injected mid-batch failure")

        monkeypatch.setattr(BatchEvaluator, "evaluate", failing_evaluate)
        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text(
            '{"kind": "expected_flow", "query": 0}\n', encoding="utf-8"
        )
        trace_path = tmp_path / "trace.jsonl"
        with pytest.raises(SystemExit, match="injected mid-batch failure"):
            main(
                [
                    "batch",
                    "--graph",
                    str(graph_file),
                    "--requests",
                    str(requests_file),
                    "--trace-out",
                    str(trace_path),
                ]
            )
        # the span exported before the failure reached the file, and the
        # handle was closed on the error path
        assert trace_path in closed
        lines = trace_path.read_text(encoding="utf-8").strip().splitlines()
        assert any("doomed.work" in line for line in lines)
