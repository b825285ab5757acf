"""Tests for the F-tree greedy selector and its heuristics (FT, FT+M, FT+M+CI, FT+M+DS)."""

import pytest

from repro.graph.generators import erdos_renyi_graph, partitioned_graph, path_graph, star_graph
from repro.reachability.exact import exact_expected_flow
from repro.selection.dijkstra_tree import DijkstraSelector
from repro.selection.exact_optimal import exhaustive_optimal_selection
from repro.selection.ftree_greedy import FTreeGreedySelector
from repro.selection.registry import ALGORITHM_NAMES, make_selector
from repro.types import Edge


def _selector(**kwargs) -> FTreeGreedySelector:
    defaults = dict(n_samples=80, exact_threshold=12, seed=0)
    defaults.update(kwargs)
    return FTreeGreedySelector(**defaults)


class TestBasicBehaviour:
    def test_respects_budget(self, random_graph):
        result = _selector().select(random_graph, 0, 9)
        assert result.n_selected == 9
        assert len(result.iterations) == 9

    def test_selected_edges_form_connected_subgraph(self, random_graph):
        result = _selector().select(random_graph, 0, 12)
        connected = {0}
        for edge in result.selected_edges:
            assert edge.u in connected or edge.v in connected
            connected.update(edge.endpoints())

    def test_stops_when_graph_is_exhausted(self):
        graph = path_graph(4, probability=0.5)
        result = _selector().select(graph, 0, 50)
        assert result.n_selected == 3

    def test_zero_budget(self, random_graph):
        result = _selector().select(random_graph, 0, 0)
        assert result.n_selected == 0
        assert result.expected_flow == 0.0

    def test_greedy_picks_clearly_best_edge_first(self):
        graph = star_graph(3, probability=0.2)
        graph.set_probability(0, 2, 0.95)
        result = _selector().select(graph, 0, 1)
        assert result.selected_edges == [Edge(0, 2)]

    def test_name_reflects_heuristics(self):
        assert _selector().name == "FT"
        assert _selector(memoize=True).name == "FT+M"
        assert _selector(memoize=True, confidence=True).name == "FT+M+CI"
        assert _selector(memoize=True, delayed=True).name == "FT+M+DS"
        assert _selector(memoize=True, confidence=True, delayed=True).name == "FT+M+CI+DS"

    def test_invalid_delay_base(self):
        with pytest.raises(ValueError):
            _selector(delayed=True, delay_base=1.0)


class TestQuality:
    def test_matches_optimum_on_tiny_graph(self):
        graph = erdos_renyi_graph(7, average_degree=2.5, seed=4)
        budget = 4
        optimal = exhaustive_optimal_selection(graph, 0, budget)
        greedy = _selector(exact_threshold=20).select(graph, 0, budget)
        greedy_exact_flow = exact_expected_flow(
            graph, 0, edges=greedy.selected_edges
        ).expected_flow
        # the greedy result must reach at least 80% of the optimum on tiny instances
        assert greedy_exact_flow >= 0.8 * optimal.expected_flow - 1e-9

    def test_beats_dijkstra_on_locality_graph(self):
        graph = partitioned_graph(120, degree=4, seed=3)
        budget = 15
        ft = _selector(memoize=True, n_samples=120).select(graph, 0, budget)
        dijkstra = DijkstraSelector().select(graph, 0, budget)
        # compare with each selector's own consistent estimate: FT must not be worse
        assert ft.expected_flow >= dijkstra.expected_flow - 1e-6
        # and on the exact flow of both selections (budget 15: 2^15 worlds each)
        ft_flow = exact_expected_flow(graph, 0, edges=ft.selected_edges).expected_flow
        dijkstra_flow = exact_expected_flow(graph, 0, edges=dijkstra.selected_edges).expected_flow
        assert ft_flow >= dijkstra_flow

    def test_flow_is_monotone_over_iterations(self, random_graph):
        result = _selector().select(random_graph, 0, 8)
        flows = [iteration.flow_after for iteration in result.iterations]
        assert all(b >= a - 1e-9 for a, b in zip(flows, flows[1:]))


class TestMemoization:
    def test_memo_statistics_reported(self, random_graph):
        result = _selector(memoize=True).select(random_graph, 0, 10)
        assert "memo_hits" in result.extras
        assert result.extras["memo_hit_rate"] >= 0.0

    def test_memoization_does_not_change_selected_edges(self):
        graph = erdos_renyi_graph(30, average_degree=4, seed=6)
        plain = _selector(exact_threshold=16, seed=1).select(graph, 0, 8)
        memoized = _selector(exact_threshold=16, memoize=True, seed=1).select(graph, 0, 8)
        # with exact component evaluation the two must agree exactly
        assert plain.selected_edges == memoized.selected_edges
        assert plain.expected_flow == pytest.approx(memoized.expected_flow)


class TestPlanReuse:
    def test_cycle_plans_are_reused_and_reported(self):
        graph = erdos_renyi_graph(25, average_degree=6.0, seed=4)
        plain = _selector().select(graph, 0, 12)
        memoized = _selector(memoize=True).select(graph, 0, 12)
        assert plain.extras["fresh_plans"] > 0 and plain.extras["reused_plans"] > 0
        # plans depend on the tree only, not on the memo
        for key in ("fresh_plans", "reused_plans"):
            assert memoized.extras[key] == plain.extras[key]

    def test_screening_reuses_the_plan_that_priced_it(self):
        graph = erdos_renyi_graph(25, average_degree=6.0, seed=4)
        result = _selector(memoize=True, confidence=True, exact_threshold=0, n_samples=60).select(
            graph, 0, 12
        )
        # probe_cost plans a cycle once; the screening and full probes reuse it
        assert result.extras["reused_plans"] > 2 * result.extras["fresh_plans"] > 0


class TestConfidencePruning:
    def test_ci_variant_runs_and_reports_pruning(self):
        graph = erdos_renyi_graph(30, average_degree=5, seed=7)
        result = _selector(memoize=True, confidence=True, exact_threshold=0, n_samples=60).select(
            graph, 0, 6
        )
        assert result.n_selected == 6
        assert "pruned_candidates" in result.extras

    def test_ci_with_exact_components_matches_plain_ft(self):
        graph = erdos_renyi_graph(25, average_degree=4, seed=8)
        plain = _selector(exact_threshold=16, seed=2).select(graph, 0, 6)
        with_ci = _selector(exact_threshold=16, confidence=True, memoize=True, seed=2).select(
            graph, 0, 6
        )
        # exact evaluation means the CI never prunes a better candidate
        assert with_ci.expected_flow == pytest.approx(plain.expected_flow, rel=1e-6)


class TestDelayedSampling:
    def test_ds_variant_respects_budget(self):
        graph = erdos_renyi_graph(40, average_degree=5, seed=9)
        result = _selector(memoize=True, delayed=True, exact_threshold=4, n_samples=50).select(
            graph, 0, 10
        )
        assert result.n_selected == 10
        assert result.extras["delayed_candidates"] >= 0.0

    def test_small_delay_base_still_terminates(self):
        graph = erdos_renyi_graph(25, average_degree=4, seed=10)
        result = _selector(
            memoize=True, delayed=True, delay_base=1.05, exact_threshold=2, n_samples=40
        ).select(graph, 0, 8)
        assert result.n_selected == 8


class TestRegistry:
    def test_all_names_build(self):
        for name in ALGORITHM_NAMES:
            selector = make_selector(name, n_samples=20, seed=0)
            assert selector.name == name or name == "Random"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_selector("definitely-not-an-algorithm")

    def test_all_algorithms_run_on_small_graph(self):
        graph = erdos_renyi_graph(20, average_degree=3, seed=11)
        for name in ALGORITHM_NAMES:
            samples = 20 if name == "Naive" else 40
            result = make_selector(name, n_samples=samples, seed=1).select(graph, 0, 4)
            assert result.n_selected <= 4
            assert result.expected_flow >= 0.0
