"""End-to-end integration tests across the whole pipeline."""

import pytest

from repro.datasets.registry import load_dataset
from repro.experiments.harness import evaluate_flow, pick_query_vertex
from repro.graph.io import read_json, write_json
from repro.reachability.engine import SamplingEngine
from repro.reachability.exact import exact_expected_flow
from repro.selection.registry import make_selector
from repro.selection.exact_optimal import exhaustive_optimal_selection
from repro.graph.generators import erdos_renyi_graph, partitioned_graph


class TestEndToEndSelection:
    """Generate -> select -> evaluate pipelines across algorithm variants."""

    @pytest.mark.parametrize("dataset", ["erdos", "partitioned", "san-joaquin"])
    def test_dataset_to_selection_pipeline(self, dataset):
        graph = load_dataset(dataset, n_vertices=80, seed=1)
        query = pick_query_vertex(graph)
        selector = make_selector("FT+M", n_samples=60, seed=2)
        result = selector.select(graph, query, 8)
        assert 0 < result.n_selected <= 8
        evaluated = evaluate_flow(graph, result.selected_edges, query, n_samples=300, seed=3)
        # the selector's own estimate and the independent evaluation must agree reasonably
        assert evaluated == pytest.approx(result.expected_flow, rel=0.25, abs=0.5)

    def test_ft_variants_agree_with_exact_sampling(self):
        """With exact component evaluation every FT variant returns the same edge set."""
        graph = erdos_renyi_graph(30, average_degree=4, seed=5)
        names = ["FT", "FT+M", "FT+M+CI"]
        selections = []
        for name in names:
            selector = make_selector(name, n_samples=50, exact_threshold=16, seed=9)
            selections.append(selector.select(graph, 0, 6).selected_edges)
        assert selections[0] == selections[1] == selections[2]

    def test_greedy_close_to_optimal_small_instance(self):
        graph = erdos_renyi_graph(8, average_degree=2.5, seed=3)
        budget = 4
        optimal = exhaustive_optimal_selection(graph, 0, budget)
        greedy = make_selector("FT+M", n_samples=50, exact_threshold=18, seed=0).select(
            graph, 0, budget
        )
        greedy_flow = exact_expected_flow(graph, 0, edges=greedy.selected_edges).expected_flow
        assert greedy_flow >= 0.75 * optimal.expected_flow

    def test_monte_carlo_validates_ftree_selection(self):
        """Independent whole-graph Monte-Carlo agrees with the F-tree flow estimate."""
        graph = partitioned_graph(60, degree=4, seed=4)
        query = pick_query_vertex(graph)
        result = make_selector("FT+M", n_samples=80, seed=1).select(graph, query, 10)
        mc = SamplingEngine().expected_flow(
            graph, query, n_samples=3000, seed=11, edges=result.selected_edges
        )
        assert mc.expected_flow == pytest.approx(result.expected_flow, rel=0.15, abs=0.5)

    def test_round_trip_through_serialisation(self, tmp_path):
        graph = load_dataset("dblp", n_vertices=60, seed=2)
        path = tmp_path / "dblp.json"
        write_json(graph, path)
        restored = read_json(path)
        assert restored == graph
        query = pick_query_vertex(restored)
        result = make_selector("Dijkstra").select(restored, query, 5)
        assert result.n_selected == 5


class TestPaperQualitativeClaims:
    """The headline qualitative results of the evaluation section."""

    def test_ft_beats_dijkstra_at_larger_budgets(self):
        """Section 7.4: Dijkstra's information flow falls behind as k grows."""
        graph = load_dataset("facebook", n_vertices=100, seed=0)
        query = pick_query_vertex(graph)
        budget = 18
        ft = make_selector("FT+M", n_samples=80, seed=1).select(graph, query, budget)
        dijkstra = make_selector("Dijkstra").select(graph, query, budget)
        ft_eval = evaluate_flow(graph, ft.selected_edges, query, n_samples=400, seed=5)
        dijkstra_eval = evaluate_flow(graph, dijkstra.selected_edges, query, n_samples=400, seed=5)
        assert ft_eval >= dijkstra_eval - 1e-6

    def test_memoization_reduces_sampling_work(self):
        """Section 6.2 / 7.5: FT+M performs no more component estimations than FT."""
        graph = load_dataset("erdos", n_vertices=60, seed=3)
        query = pick_query_vertex(graph)
        ft = make_selector("FT", n_samples=40, exact_threshold=0, seed=2).select(graph, query, 8)
        ftm = make_selector("FT+M", n_samples=40, exact_threshold=0, seed=2).select(graph, query, 8)
        assert ftm.extras["sampled_components"] <= ft.extras["sampled_components"]
        assert ftm.extras.get("memo_hits", 0) >= 0

    def test_dijkstra_is_fastest(self):
        graph = load_dataset("erdos", n_vertices=80, seed=6)
        query = pick_query_vertex(graph)
        dijkstra = make_selector("Dijkstra").select(graph, query, 10)
        naive = make_selector("Naive", n_samples=30, seed=0).select(graph, query, 10)
        assert dijkstra.elapsed_seconds <= naive.elapsed_seconds
