"""Tests for the unified telemetry layer (:mod:`repro.telemetry`).

Pins the three contracts the instrumentation relies on:

* the :class:`MetricsRegistry` is exact under concurrent updates from
  threads *and* asyncio tasks (no lost increments, no torn reads);
* the disabled path is a true no-op (``NULL_TELEMETRY`` allocates
  nothing, records nothing) and — critically — switching telemetry on
  never changes a sampling result bit-for-bit;
* spans nest correctly per pipeline and round-trip through every
  exporter.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading

import pytest

import repro
from repro.reachability.engine import SamplingEngine
import repro.telemetry.core as telemetry_core
from repro.server.metrics import ServerMetrics
from repro.telemetry import (
    NULL_TELEMETRY,
    InMemoryExporter,
    JSONLExporter,
    LoggingExporter,
    MetricsRegistry,
    NullTelemetry,
    Telemetry,
    current_telemetry,
    format_span_tree,
    install_env_telemetry,
    iter_spans,
    telemetry_from_spec,
    traced,
)
from repro.telemetry.registry import Histogram
from repro.telemetry.spans import NULL_SPAN

N_SAMPLES = 200
SEED = 7


@pytest.fixture(autouse=True)
def _clean_ambient_telemetry(monkeypatch):
    """Pin the ambient default to 'disabled' regardless of REPRO_TELEMETRY.

    The CI telemetry-smoke job runs the tier-1 suites with a process-wide
    pipeline installed; this file tests the resolution chain itself, so
    it needs a known-clean starting point.
    """
    monkeypatch.setattr(telemetry_core, "_ENV_TELEMETRY", None)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_get_or_create_and_add(self):
        registry = MetricsRegistry()
        counter = registry.counter("engine.worlds_sampled")
        assert registry.counter("engine.worlds_sampled") is counter
        counter.add()
        counter.add(41)
        assert counter.value == 42
        assert registry.snapshot()["counters"]["engine.worlds_sampled"] == 42

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("cache.world.entries")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5
        assert registry.snapshot()["gauges"]["cache.world.entries"] == 1.5

    def test_histogram_bucketing(self):
        registry = MetricsRegistry()
        hist = registry.histogram("server.batch_size", bounds=(1, 2, 4))
        for value in (0.5, 1.0, 1.5, 100.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(103.0)
        assert summary["min"] == 0.5
        assert summary["max"] == 100.0
        assert summary["mean"] == pytest.approx(103.0 / 4)
        # bounds are inclusive upper bounds; the last bucket is overflow
        by_bound = {bucket["le"]: bucket["count"] for bucket in summary["buckets"]}
        assert by_bound == {1: 2, 2: 1, 4: 0, None: 1}

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2, 1))

    def test_empty_histogram_summary(self):
        summary = Histogram("h", bounds=(1,)).summary()
        assert summary["count"] == 0
        assert summary["mean"] is None
        assert summary["min"] is None and summary["max"] is None

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("engine.sample_calls")
        with pytest.raises(TypeError):
            registry.gauge("engine.sample_calls")
        with pytest.raises(TypeError):
            registry.histogram("engine.sample_calls")

    def test_snapshot_groups_and_sorts(self):
        registry = MetricsRegistry()
        registry.counter("b.counter").add(1)
        registry.counter("a.counter").add(2)
        registry.gauge("a.gauge").set(3.0)
        registry.histogram("a.hist").observe(0.01)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["counters", "gauges", "histograms"]
        assert list(snapshot["counters"]) == ["a.counter", "b.counter"]
        assert snapshot["histograms"]["a.hist"]["count"] == 1

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("x").add(5)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        # names are reusable, including as a different kind
        registry.gauge("x").set(1.0)
        assert registry.snapshot()["gauges"]["x"] == 1.0


class TestRegistryConcurrency:
    def test_threaded_updates_are_exact(self):
        registry = MetricsRegistry()
        n_threads, n_iterations = 8, 2000

        def hammer():
            for _ in range(n_iterations):
                # get-or-create races against every other thread on purpose
                registry.counter("hammered").add()
                registry.histogram("observed", bounds=(0.5,)).observe(1.0)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = n_threads * n_iterations
        snapshot = registry.snapshot()
        assert snapshot["counters"]["hammered"] == expected
        assert snapshot["histograms"]["observed"]["count"] == expected
        assert snapshot["histograms"]["observed"]["sum"] == pytest.approx(float(expected))

    def test_asyncio_updates_are_exact(self):
        registry = MetricsRegistry()
        n_tasks, n_iterations = 50, 100

        async def hammer():
            for _ in range(n_iterations):
                registry.counter("async.hammered").add()
                await asyncio.sleep(0)  # force interleaving between tasks

        async def main():
            await asyncio.gather(*(hammer() for _ in range(n_tasks)))

        asyncio.run(main())
        assert registry.snapshot()["counters"]["async.hammered"] == n_tasks * n_iterations


# ----------------------------------------------------------------------
# spans and exporters
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_builds_one_tree(self):
        memory = InMemoryExporter()
        tel = Telemetry(exporters=[memory])
        with tel.span("outer", layer="test"):
            with tel.span("inner.first"):
                pass
            with tel.span("inner.second") as span:
                span.set(n=3)
        assert len(memory.spans) == 1
        root = memory.spans[0]
        assert root.name == "outer"
        assert root.attributes == {"layer": "test"}
        assert [child.name for child in root.children] == ["inner.first", "inner.second"]
        assert root.children[1].attributes == {"n": 3}
        # nested intervals: the parent's wall time covers its children
        assert root.duration_s > 0.0
        assert root.duration_s >= sum(child.duration_s for child in root.children)

    def test_current_span_tracks_innermost(self):
        tel = Telemetry()
        assert tel.current_span() is None
        with tel.span("outer"):
            assert tel.current_span().name == "outer"
            with tel.span("inner"):
                assert tel.current_span().name == "inner"
            assert tel.current_span().name == "outer"
        assert tel.current_span() is None

    def test_spans_never_attach_across_pipelines(self):
        memory_a, memory_b = InMemoryExporter(), InMemoryExporter()
        tel_a = Telemetry(exporters=[memory_a])
        tel_b = Telemetry(exporters=[memory_b])
        with tel_a.span("a.outer"):
            with tel_b.span("b.inner"):
                # b's span must not see a's as its parent
                assert tel_b.current_span().name == "b.inner"
        assert [span.name for span in memory_a.spans] == ["a.outer"]
        assert memory_a.spans[0].children == []
        assert [span.name for span in memory_b.spans] == ["b.inner"]

    def test_root_exports_even_when_body_raises(self):
        memory = InMemoryExporter()
        tel = Telemetry(exporters=[memory])
        with pytest.raises(RuntimeError):
            with tel.span("doomed"):
                raise RuntimeError("boom")
        assert [span.name for span in memory.spans] == ["doomed"]

    def test_iter_spans_depth_first(self):
        memory = InMemoryExporter()
        tel = Telemetry(exporters=[memory])
        with tel.span("root"):
            with tel.span("left"):
                with tel.span("left.leaf"):
                    pass
            with tel.span("right"):
                pass
        walk = [(span.name, depth) for span, depth, _ in iter_spans(memory.spans[0])]
        assert walk == [("root", 0), ("left", 1), ("left.leaf", 2), ("right", 1)]

    def test_format_span_tree(self):
        memory = InMemoryExporter()
        tel = Telemetry(exporters=[memory])
        with tel.span("service.evaluate", n_requests=2):
            with tel.span("engine.sample_worlds"):
                pass
        rendered = format_span_tree(memory.spans[0])
        lines = rendered.splitlines()
        assert "service.evaluate" in lines[0]
        assert "n_requests=2" in lines[0]
        assert "engine.sample_worlds" in lines[1]
        assert "ms" in lines[0] and "%" in lines[0]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tel = Telemetry(exporters=[JSONLExporter(path)])
        with tel.span("outer", graph=object()):  # non-JSON attr gets repr()d
            with tel.span("inner"):
                pass
        tel.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["name"] for record in records] == ["outer", "inner"]
        outer, inner = records
        assert outer["parent_id"] is None
        assert inner["parent_id"] == outer["span_id"]
        assert isinstance(outer["attributes"]["graph"], str)
        assert inner["duration_s"] >= 0.0

    def test_logging_exporter(self, caplog):
        tel = Telemetry(exporters=[LoggingExporter(logging.getLogger("repro.trace.test"))])
        with caplog.at_level(logging.INFO, logger="repro.trace.test"):
            with tel.span("outer"):
                with tel.span("inner"):
                    pass
        messages = [record.getMessage() for record in caplog.records]
        assert any("outer" in message for message in messages)
        assert any("inner" in message for message in messages)

    def test_in_memory_exporter_clear(self):
        memory = InMemoryExporter()
        tel = Telemetry(exporters=[memory])
        with tel.span("x"):
            pass
        memory.clear()
        assert memory.spans == []

    def test_to_dict_is_json_safe(self):
        memory = InMemoryExporter()
        tel = Telemetry(exporters=[memory])
        with tel.span("root", k=1):
            with tel.span("child"):
                pass
        document = memory.spans[0].to_dict()
        json.dumps(document)  # must not raise
        assert document["name"] == "root"
        assert document["children"][0]["name"] == "child"


# ----------------------------------------------------------------------
# the disabled path
# ----------------------------------------------------------------------
class TestNullTelemetry:
    def test_ambient_default_is_disabled(self):
        tel = current_telemetry()
        assert tel is NULL_TELEMETRY
        assert not tel.enabled

    def test_span_is_the_shared_null_handle(self):
        handle = NULL_TELEMETRY.span("anything", key="value")
        assert handle is NULL_SPAN
        with handle as entered:
            assert entered.set(more="attrs") is NULL_SPAN
        assert NULL_TELEMETRY.current_span() is None

    def test_metric_methods_record_nothing(self):
        NULL_TELEMETRY.count("x", 10)
        NULL_TELEMETRY.gauge("y", 1.0)
        NULL_TELEMETRY.observe("z", 0.5)
        assert NULL_TELEMETRY.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_null_is_a_telemetry_instance(self):
        # RuntimeConfig validation and shared-pipeline plumbing rely on it
        assert isinstance(NULL_TELEMETRY, Telemetry)
        assert isinstance(NULL_TELEMETRY, NullTelemetry)

    def test_disabled_workload_stays_silent(self, random_graph):
        # no call site guards on `enabled`: these no-ops must keep every
        # layer (engine, csr, executor, LRU, planner, evaluator, server
        # metrics) from recording anything
        SamplingEngine().expected_flow(random_graph, 0, n_samples=50, seed=SEED)
        requests = [
            repro.QueryRequest(kind="expected_flow", source=0, n_samples=100, seed=SEED),
            repro.QueryRequest(
                kind="pair_reachability", source=0, target=3, n_samples=100, seed=SEED
            ),
            repro.QueryRequest(
                kind="expected_flow", source=0, n_samples=100, seed=SEED + 1
            ),
        ]
        # two world batches through a one-entry cache: a hit, misses, evictions
        with repro.session(workers=repro.SerialExecutor(), shard_size=50, world_cache=1):
            evaluator = repro.BatchEvaluator()
            evaluator.warm(random_graph, requests[:1])
            evaluator.evaluate(random_graph, requests)
        assert (evaluator.batches_reused, evaluator.batches_sampled) == (1, 2)
        metrics = ServerMetrics()
        metrics.observe_answered("expected_flow", 0.01)
        metrics.observe_batch(2)
        assert NULL_TELEMETRY.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


# ----------------------------------------------------------------------
# resolution chain
# ----------------------------------------------------------------------
class TestResolutionChain:
    def test_session_shares_an_explicit_instance(self):
        tel = Telemetry()
        with repro.session(telemetry=tel) as active:
            assert current_telemetry() is tel
            assert active.telemetry is tel
        assert current_telemetry() is NULL_TELEMETRY

    def test_session_true_owns_a_fresh_pipeline(self):
        with repro.session(telemetry=True) as active:
            tel = current_telemetry()
            assert tel.enabled and tel is not NULL_TELEMETRY
            assert active.telemetry is tel
        assert current_telemetry() is NULL_TELEMETRY

    def test_session_false_pins_off_inside_enabled_scope(self):
        tel = Telemetry()
        with repro.session(telemetry=tel):
            with repro.session(telemetry=False):
                assert current_telemetry() is NULL_TELEMETRY
            assert current_telemetry() is tel

    def test_session_none_inherits(self):
        tel = Telemetry()
        with repro.session(telemetry=tel):
            with repro.session(backend="naive"):  # telemetry unspecified → inherit
                assert current_telemetry() is tel

    def test_defaults_spec_normalized_once(self):
        install_env_telemetry({"REPRO_TELEMETRY": "true"})
        first = current_telemetry()
        assert first.enabled
        assert current_telemetry() is first  # built once at install, not per call

    def test_telemetry_from_spec(self, tmp_path):
        logged = telemetry_from_spec("log")
        assert any(isinstance(e, LoggingExporter) for e in logged.exporters)
        path = tmp_path / "trace.jsonl"
        filed = telemetry_from_spec(str(path))
        assert any(isinstance(e, JSONLExporter) for e in filed.exporters)
        for spec in (123, True, Telemetry()):
            with pytest.raises(TypeError):
                telemetry_from_spec(spec)

    def test_runtime_config_rejects_bad_telemetry(self):
        with pytest.raises(TypeError):
            repro.RuntimeConfig(telemetry="not-a-spec-here")

    def test_env_hook_installs_process_default(self):
        install_env_telemetry({"REPRO_TELEMETRY": "1"})
        installed = current_telemetry()
        assert isinstance(installed, Telemetry)
        assert installed.enabled
        # any session still wins over the installed pipeline
        with repro.session(telemetry=False):
            assert current_telemetry() is NULL_TELEMETRY

    def test_env_hook_never_overwrites(self):
        install_env_telemetry({"REPRO_TELEMETRY": "1"})
        pinned = current_telemetry()
        install_env_telemetry({"REPRO_TELEMETRY": "log"})
        assert current_telemetry() is pinned

    def test_env_hook_ignores_off_values(self):
        for value in ("", "0", "false", "off"):
            install_env_telemetry({"REPRO_TELEMETRY": value})
            assert current_telemetry() is NULL_TELEMETRY

    def test_env_hook_path_means_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        install_env_telemetry({"REPRO_TELEMETRY": str(path)})
        assert any(isinstance(e, JSONLExporter) for e in current_telemetry().exporters)


class TestTraced:
    def test_traced_opens_a_span_when_enabled(self):
        memory = InMemoryExporter()
        tel = Telemetry(exporters=[memory])

        @traced("test.decorated", flavor="unit")
        def work(x):
            return x * 2

        with repro.session(telemetry=tel):
            assert work(21) == 42
        assert [span.name for span in memory.spans] == ["test.decorated"]
        assert memory.spans[0].attributes == {"flavor": "unit"}

    def test_traced_is_transparent_when_disabled(self):
        @traced("test.decorated")
        def work(x):
            return x + 1

        assert work.__name__ == "work"
        assert work(1) == 2  # ambient disabled → straight through


# ----------------------------------------------------------------------
# end-to-end instrumentation
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_enabling_telemetry_never_changes_results(self, random_graph):
        baseline = SamplingEngine().expected_flow(
            random_graph, 0, n_samples=N_SAMPLES, seed=SEED
        )
        with repro.session(telemetry=True):
            traced_run = SamplingEngine().expected_flow(
                random_graph, 0, n_samples=N_SAMPLES, seed=SEED
            )
        assert traced_run.expected_flow == baseline.expected_flow
        assert traced_run.n_samples == baseline.n_samples

    def test_engine_emits_into_the_session_pipeline(self, random_graph):
        memory = InMemoryExporter()
        tel = Telemetry(exporters=[memory])
        with repro.session(telemetry=tel):
            SamplingEngine().expected_flow(random_graph, 0, n_samples=N_SAMPLES, seed=SEED)
        counters = tel.snapshot()["counters"]
        assert counters["engine.sample_calls"] == 1
        assert counters["engine.worlds_sampled"] == N_SAMPLES
        assert any(span.name.startswith("engine.") for span in memory.spans)

    def test_service_batch_merges_every_layer(self, random_graph):
        memory = InMemoryExporter()
        tel = Telemetry(exporters=[memory])
        requests = [
            repro.QueryRequest(
                kind="expected_flow", source=0, n_samples=N_SAMPLES, seed=SEED
            ),
            repro.QueryRequest(
                kind="expected_flow", source=1, n_samples=N_SAMPLES, seed=SEED
            ),
        ]
        with repro.session(telemetry=tel, world_cache=8):
            results = repro.BatchEvaluator().evaluate(random_graph, requests)
        assert len(results) == 2
        counters = tel.snapshot()["counters"]
        # one registry shows the whole stack: service planning, engine
        # sampling and the world cache all emitted into the same sink
        assert counters["service.requests"] == 2
        assert counters["service.plan_calls"] == 1
        assert counters["engine.worlds_sampled"] >= N_SAMPLES
        assert any(name.startswith("cache.world.") for name in counters)
        roots = [span.name for span in memory.spans]
        assert "service.evaluate" in roots
        evaluate = memory.spans[roots.index("service.evaluate")]
        assert any(child.name.startswith("engine.") for child in evaluate.children)

    def test_serial_executor_accounts_shards(self, random_graph):
        tel = Telemetry()
        with repro.session(telemetry=tel, workers=repro.SerialExecutor(), shard_size=50):
            SamplingEngine().expected_flow(random_graph, 0, n_samples=N_SAMPLES, seed=SEED)
        snapshot = tel.snapshot()
        assert snapshot["counters"]["executor.shards_run"] == N_SAMPLES // 50
        assert snapshot["histograms"]["executor.shard_seconds"]["count"] == N_SAMPLES // 50

    def test_process_executor_timed_fan_out(self, random_graph):
        # the timed fan-out is ProcessExecutor's only path: with a live
        # pipeline it must return the telemetry-off and serial bits
        def run(workers, telemetry=None):
            with repro.session(telemetry=telemetry, workers=workers, shard_size=50):
                return SamplingEngine().expected_flow(
                    random_graph, 0, n_samples=N_SAMPLES, seed=SEED
                )

        tel = Telemetry()
        with repro.ProcessExecutor(2) as executor:
            traced_run = run(executor, tel)
            untraced_run = run(executor)
        serial_run = run(repro.SerialExecutor())
        assert traced_run.expected_flow == untraced_run.expected_flow
        assert traced_run.expected_flow == serial_run.expected_flow
        assert traced_run.n_samples == serial_run.n_samples == N_SAMPLES
        snapshot = tel.snapshot()
        n_shards = N_SAMPLES // 50
        assert snapshot["counters"]["executor.shards_run"] == n_shards
        assert snapshot["histograms"]["executor.shard_seconds"]["count"] == n_shards

    def test_server_metrics_forward_into_registry(self):
        tel = Telemetry()
        metrics = ServerMetrics(telemetry=tel)
        metrics.observe_admitted()
        metrics.observe_answered("expected_flow", 0.012)
        metrics.observe_failed()
        metrics.observe_rejected("overloaded")
        metrics.observe_bad_request()
        metrics.observe_control()
        metrics.observe_batch(4)
        snapshot = tel.snapshot()
        assert snapshot["counters"] == {
            "server.admitted": 1,
            "server.answered": 1,
            "server.bad_requests": 1,
            "server.batched_requests": 4,
            "server.batches": 1,
            "server.control": 1,
            "server.failed": 1,
            "server.rejected": 1,
        }
        assert snapshot["histograms"]["server.latency_seconds"]["count"] == 1
        assert snapshot["histograms"]["server.batch_size"]["max"] == 4.0
        # the legacy percentile snapshot is still served
        legacy = metrics.snapshot()
        assert legacy["requests"]["answered"] == 1
        assert legacy["coalescing"]["batches"] == 1

    def test_server_metrics_default_to_disabled(self):
        metrics = ServerMetrics()
        metrics.observe_admitted()  # must not touch the shared null registry
        assert NULL_TELEMETRY.snapshot()["counters"] == {}
