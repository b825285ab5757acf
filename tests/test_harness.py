"""Tests for the experiment harness, configuration and reporting."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import DEFAULT_ALGORITHMS, ExperimentConfig, bench_scale
from repro.experiments.harness import (
    AlgorithmRun,
    evaluate_flow,
    pick_query_vertex,
    run_algorithms,
    run_sweep,
)
from repro.experiments.reporting import (
    compare_algorithms,
    format_table,
    rows_to_csv,
    summarize_sweep,
)
from repro.graph.generators import erdos_renyi_graph, path_graph
from repro.parallel.executor import SamplingExecutor, run_shard
from repro.reachability.exact import exact_expected_flow


class TestConfig:
    def test_defaults_are_valid(self):
        config = ExperimentConfig()
        assert config.budget > 0
        assert set(config.algorithms) == set(DEFAULT_ALGORITHMS)

    def test_invalid_values_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(n_vertices=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(budget=-1)
        with pytest.raises(ExperimentError):
            ExperimentConfig(n_samples=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(repetitions=0)

    def test_scaled_copy(self):
        config = ExperimentConfig(n_vertices=100, budget=10)
        scaled = config.scaled(2.0)
        assert scaled.n_vertices == 200
        assert scaled.budget == 20

    def test_paper_scale_and_quick(self):
        assert ExperimentConfig.paper_scale().n_vertices == 10_000
        assert ExperimentConfig.quick().n_vertices <= 100

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert bench_scale() == pytest.approx(2.5)
        monkeypatch.setenv("REPRO_BENCH_SCALE", "not-a-number")
        with pytest.raises(ExperimentError):
            bench_scale()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "-1")
        with pytest.raises(ExperimentError):
            bench_scale()


class TestHarness:
    def test_evaluate_flow_matches_exact_on_tree(self):
        graph = path_graph(5, probability=0.5)
        flow = evaluate_flow(graph, graph.edge_list(), 0)
        assert flow == pytest.approx(exact_expected_flow(graph, 0).expected_flow)

    def test_pick_query_vertex_is_max_degree(self):
        graph = path_graph(4, probability=0.5)
        assert pick_query_vertex(graph) in (1, 2)

    def test_pick_query_vertex_empty_graph(self):
        from repro.graph.uncertain_graph import UncertainGraph

        with pytest.raises(ValueError):
            pick_query_vertex(UncertainGraph())

    def test_run_algorithms_produces_one_run_per_algorithm(self):
        graph = erdos_renyi_graph(25, average_degree=3, seed=0)
        config = ExperimentConfig.quick()
        runs = run_algorithms(graph, 0, 4, ["Dijkstra", "FT"], config=config, seed=1)
        assert [run.algorithm for run in runs] == ["Dijkstra", "FT"]
        for run in runs:
            assert run.n_selected <= 4
            assert run.evaluated_flow >= 0.0
            assert run.elapsed_seconds >= 0.0

    def test_algorithm_run_as_row(self):
        run = AlgorithmRun(
            algorithm="FT",
            budget=3,
            n_selected=3,
            expected_flow=1.0,
            evaluated_flow=1.1,
            elapsed_seconds=0.01,
        )
        row = run.as_row(x=42)
        assert row["x"] == 42
        assert row["algorithm"] == "FT"

    def test_run_sweep_rows(self):
        config = ExperimentConfig.quick()
        graph_a = erdos_renyi_graph(20, average_degree=3, seed=0)
        graph_b = erdos_renyi_graph(30, average_degree=3, seed=1)
        points = [(20.0, graph_a, 0, 3), (30.0, graph_b, 0, 3)]
        rows = run_sweep(points, ["Dijkstra", "FT"], config=config, seed=0, x_name="n")
        assert len(rows) == 4
        assert {row["n"] for row in rows} == {20.0, 30.0}


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 23, "b": "z"}]
        table = format_table(rows, title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_rows_to_csv(self):
        rows = [{"a": 1.5, "b": "x,y"}, {"a": 2.0, "b": "plain"}]
        csv_text = rows_to_csv(rows)
        lines = csv_text.splitlines()
        assert lines[0] == "a,b"
        assert '"x,y"' in lines[1]

    def test_rows_to_csv_empty(self):
        assert rows_to_csv([]) == ""

    def test_summarize_sweep_groups_by_algorithm(self):
        rows = [
            {"algorithm": "FT", "k": 1, "evaluated_flow": 1.0},
            {"algorithm": "FT", "k": 2, "evaluated_flow": 2.0},
            {"algorithm": "Dijkstra", "k": 1, "evaluated_flow": 0.5},
        ]
        series = summarize_sweep(rows, "k")
        assert series["FT"] == [(1, 1.0), (2, 2.0)]
        assert series["Dijkstra"] == [(1, 0.5)]

    def test_compare_algorithms_averages(self):
        rows = [
            {"algorithm": "FT", "evaluated_flow": 1.0},
            {"algorithm": "FT", "evaluated_flow": 3.0},
            {"algorithm": "Dijkstra", "evaluated_flow": 1.0},
        ]
        averages = compare_algorithms(rows)
        assert averages["FT"] == pytest.approx(2.0)
        assert averages["Dijkstra"] == pytest.approx(1.0)


class TestExecutorLifecycle:
    """A failing selector run must never leak worker processes."""

    class _RecordingExecutor(SamplingExecutor):
        def __init__(self):
            self.closed = False

        def map_shards(self, tasks):
            return [run_shard(task) for task in tasks]

        def close(self):
            self.closed = True

    def test_failing_selector_closes_the_shared_executor(self, monkeypatch):
        # run_algorithms now builds its executor through the Session it
        # opens for the run, so the leak guard lives in repro.runtime
        import repro.runtime as runtime_module

        created = []

        def recording_make_executor(spec):
            assert spec == 2
            executor = self._RecordingExecutor()
            created.append(executor)
            return executor

        monkeypatch.setattr(runtime_module, "make_executor", recording_make_executor)
        graph = erdos_renyi_graph(20, average_degree=3, seed=0)
        config = ExperimentConfig(workers=2, n_samples=20, naive_samples=20)
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_algorithms(graph, 0, 2, ["NoSuchAlgorithm"], config=config)
        assert created, "run_algorithms never built the shared executor"
        assert all(executor.closed for executor in created)

    def test_failing_selector_closes_a_real_process_pool(self):
        from repro.parallel.executor import ProcessExecutor

        captured = []
        original_init = ProcessExecutor.__init__

        def capturing_init(executor, workers=None):
            original_init(executor, workers)
            captured.append(executor)

        graph = erdos_renyi_graph(20, average_degree=3, seed=0)
        config = ExperimentConfig(workers=2, n_samples=20, naive_samples=20)
        ProcessExecutor.__init__ = capturing_init
        try:
            with pytest.raises(ValueError, match="unknown algorithm"):
                run_algorithms(graph, 0, 2, ["NoSuchAlgorithm"], config=config)
        finally:
            ProcessExecutor.__init__ = original_init
        assert len(captured) == 1
        assert captured[0].closed

    def test_successful_run_closes_the_executor_too(self, monkeypatch):
        import repro.runtime as runtime_module

        created = []

        def recording_make_executor(spec):
            executor = self._RecordingExecutor()
            created.append(executor)
            return executor

        monkeypatch.setattr(runtime_module, "make_executor", recording_make_executor)
        graph = erdos_renyi_graph(20, average_degree=3, seed=0)
        config = ExperimentConfig(workers=1, n_samples=20, naive_samples=20)
        runs = run_algorithms(graph, 0, 2, ["Dijkstra"], config=config)
        assert len(runs) == 1
        assert created and all(executor.closed for executor in created)


class TestRunQueryBatch:
    def test_answers_match_single_query_estimators(self):
        from repro.experiments.harness import run_query_batch
        from repro.reachability.engine import SamplingEngine
        from repro.service import QueryRequest

        graph = erdos_renyi_graph(30, average_degree=3, seed=1)
        requests = [
            QueryRequest(kind="expected_flow", source=0, n_samples=80, seed=5),
            QueryRequest(kind="pair_reachability", source=0, target=4,
                         n_samples=80, seed=5),
        ]
        config = ExperimentConfig(world_cache_size=8)
        results = run_query_batch(graph, requests, config=config)
        assert results[0].flow == SamplingEngine().expected_flow(graph, 0, n_samples=80, seed=5)
        assert results[1].reachability.n_samples == 80

    def test_shared_evaluator_reuses_its_cache(self):
        from repro.experiments.harness import run_query_batch
        from repro.service import BatchEvaluator, QueryRequest, WorldCache

        graph = erdos_renyi_graph(30, average_degree=3, seed=1)
        requests = [QueryRequest(kind="expected_flow", source=0, n_samples=80, seed=5)]
        evaluator = BatchEvaluator(cache=WorldCache())
        first = run_query_batch(graph, requests, evaluator=evaluator)
        second = run_query_batch(graph, requests, evaluator=evaluator)
        assert not first[0].from_cache
        assert second[0].from_cache
        assert first[0].flow == second[0].flow
