"""Tests for the experiment harness, configuration and reporting."""

import pytest

import repro
from repro.exceptions import ExperimentError
from repro.experiments.config import DEFAULT_ALGORITHMS, ExperimentConfig
from repro.experiments.harness import (
    AlgorithmRun,
    evaluate_flow,
    pick_query_vertex,
    run_algorithms,
    run_sweep,
)
from repro.experiments.reporting import compare_algorithms, format_table, rows_to_csv
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
        # the session built around the run owns the executor, so its exit
        # releases the pool even when a selector raises
        import repro.runtime as runtime_module

        created = []

        def recording_make_executor(spec):
            assert spec == 2
            executor = self._RecordingExecutor()
            created.append(executor)
            return executor

        monkeypatch.setattr(runtime_module, "make_executor", recording_make_executor)
        graph = erdos_renyi_graph(20, average_degree=3, seed=0)
        config = ExperimentConfig(n_samples=20, naive_samples=20)
        with pytest.raises(ValueError, match="unknown algorithm"):
            with repro.session(workers=2):
                run_algorithms(graph, 0, 2, ["NoSuchAlgorithm"], config=config)
        assert created, "the session never built the shared executor"
        assert all(executor.closed for executor in created)

    def test_failing_selector_closes_a_real_process_pool(self):
        from repro.parallel.executor import ProcessExecutor

        captured = []
        original_init = ProcessExecutor.__init__

        def capturing_init(executor, workers=None):
            original_init(executor, workers)
            captured.append(executor)

        graph = erdos_renyi_graph(20, average_degree=3, seed=0)
        config = ExperimentConfig(n_samples=20, naive_samples=20)
        ProcessExecutor.__init__ = capturing_init
        try:
            with pytest.raises(ValueError, match="unknown algorithm"):
                with repro.session(workers=2):
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
        config = ExperimentConfig(n_samples=20, naive_samples=20)
        with repro.session(workers=1):
            runs = run_algorithms(graph, 0, 2, ["Dijkstra"], config=config)
        assert len(runs) == 1
        assert created and all(executor.closed for executor in created)


class TestRunQueryBatch:
    """Service batches run through one ``BatchEvaluator`` under one session."""

    def test_answers_match_single_query_estimators(self):
        from repro.reachability.engine import SamplingEngine
        from repro.service import BatchEvaluator, QueryRequest

        graph = erdos_renyi_graph(30, average_degree=3, seed=1)
        requests = [
            QueryRequest(kind="expected_flow", source=0, n_samples=80, seed=5),
            QueryRequest(kind="pair_reachability", source=0, target=4,
                         n_samples=80, seed=5),
        ]
        with repro.session(world_cache=8):
            results = BatchEvaluator().evaluate(graph, requests)
        assert results[0].flow == SamplingEngine().expected_flow(graph, 0, n_samples=80, seed=5)
        assert results[1].reachability.n_samples == 80

    def test_shared_evaluator_reuses_its_cache(self):
        from repro.service import BatchEvaluator, QueryRequest, WorldCache

        graph = erdos_renyi_graph(30, average_degree=3, seed=1)
        requests = [QueryRequest(kind="expected_flow", source=0, n_samples=80, seed=5)]
        evaluator = BatchEvaluator()
        with repro.session(world_cache=WorldCache()):
            first = evaluator.evaluate(graph, requests)
            second = evaluator.evaluate(graph, requests)
        assert not first[0].from_cache
        assert second[0].from_cache
        assert first[0].flow == second[0].flow


def _count_backend_calls(monkeypatch):
    """Count sampling calls per backend class (in-process shards only)."""
    from repro.reachability.backends.csr import CSRSamplingBackend
    from repro.reachability.backends.naive import NaiveSamplingBackend

    calls = {"naive": 0, "csr": 0}
    for name, cls in (("naive", NaiveSamplingBackend), ("csr", CSRSamplingBackend)):
        for method in ("sample_reachability", "propagate_reachability"):
            original = getattr(cls, method)

            def counting(self, *args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, counting)
    return calls


#: the reference runtime of the session tests below: the naive backend
#: and 32-world shards on the serial executor
REFERENCE_RUNTIME = dict(backend="naive", workers=1, shard_size=32)

SESSION_CONFIG = ExperimentConfig(
    n_vertices=40, degree=6, budget=8, n_samples=40, naive_samples=20,
    exact_threshold=0, algorithms=("Naive", "FT+M"), seed=2,
)


class TestSessionReachesEveryEntryPoint:
    """One session configures every experiment path; none falls back to csr."""

    def test_run_algorithms(self, monkeypatch):
        calls = _count_backend_calls(monkeypatch)
        graph = erdos_renyi_graph(30, average_degree=4.0, seed=3)
        with repro.session(**REFERENCE_RUNTIME):
            run_algorithms(graph, pick_query_vertex(graph), 4, ["Naive", "FT+M"],
                           config=SESSION_CONFIG)
        assert calls["naive"] > 0
        assert calls["csr"] == 0

    def test_session_run_figure(self, monkeypatch):
        calls = _count_backend_calls(monkeypatch)
        from repro.experiments.figures import run_figure

        with repro.session(**REFERENCE_RUNTIME):
            run_figure("7a", SESSION_CONFIG)
        assert calls["naive"] > 0
        assert calls["csr"] == 0


#: ``run_algorithms`` rows (without ``elapsed_seconds``) and extras under
#: :data:`REFERENCE_RUNTIME`; the session path must reproduce them bit for
#: bit.  ``exact_threshold=2`` puts the yardstick at its floor of 12
#: uncertain edges, so every ``evaluated_flow`` here is exact enumeration
GOLDEN_ROWS = [
    (
        {"algorithm": "Dijkstra", "budget": 10, "n_selected": 10,
         "expected_flow": 30.8654786679824, "evaluated_flow": 30.8654786679824},
        {"tree_depth": 2.0},
    ),
    (
        {"algorithm": "Naive", "budget": 10, "n_selected": 10,
         "expected_flow": 59.5, "evaluated_flow": 54.357179534791634},
        {"n_samples": 20.0, "fast_evaluations": 323.0, "delta_evaluations": 10.0},
    ),
    (
        {"algorithm": "FT", "budget": 10, "n_selected": 10,
         "expected_flow": 54.20143454766912, "evaluated_flow": 55.097131055784494},
        {"sampled_components": 5.0, "exact_components": 0.0, "reused_plans": 1.0,
         "fresh_plans": 3.0, "sampled_edges": 23.0, "pruned_candidates": 0.0,
         "delayed_candidates": 0.0},
    ),
    (
        {"algorithm": "FT+M", "budget": 10, "n_selected": 10,
         "expected_flow": 55.262224378437764, "evaluated_flow": 55.097131055784494},
        {"sampled_components": 3.0, "exact_components": 0.0, "reused_plans": 1.0,
         "fresh_plans": 3.0, "sampled_edges": 15.0, "pruned_candidates": 0.0,
         "delayed_candidates": 0.0, "memo_hits": 2.0, "memo_hit_rate": 0.4},
    ),
]


def test_run_algorithms_under_a_session_matches_the_recorded_rows():
    graph = erdos_renyi_graph(40, average_degree=6.0, seed=11)
    config = ExperimentConfig(n_samples=40, naive_samples=20, exact_threshold=2)
    with repro.session(**REFERENCE_RUNTIME):
        runs = run_algorithms(graph, pick_query_vertex(graph), 10,
                              ("Dijkstra", "Naive", "FT", "FT+M"), config=config, seed=7)
    observed = []
    for run in runs:
        row = run.as_row()
        del row["elapsed_seconds"]
        observed.append((row, run.extras))
    assert observed == GOLDEN_ROWS
