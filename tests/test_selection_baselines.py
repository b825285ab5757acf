"""Tests for the Dijkstra, Naive, Random and exhaustive-optimal selectors."""

import pytest

from repro.exceptions import BudgetError, ExactEnumerationError, VertexNotFoundError
from repro.graph.generators import erdos_renyi_graph, path_graph, star_graph
from repro.reachability.exact import exact_expected_flow
from repro.selection.dijkstra_tree import DijkstraSelector
from repro.selection.exact_optimal import exhaustive_optimal_selection
from repro.selection.greedy_naive import NaiveGreedySelector
from repro.selection.random_baseline import RandomSelector
from repro.selection.registry import make_selector
from repro.types import Edge


class TestDijkstraSelector:
    def test_selects_tree_edges_in_settle_order(self, random_graph):
        result = DijkstraSelector().select(random_graph, 0, 8)
        assert result.n_selected == 8
        assert result.algorithm == "Dijkstra"
        # the selected edges must form a connected tree containing the query
        connected = {0}
        for edge in result.selected_edges:
            assert edge.u in connected or edge.v in connected
            connected.update(edge.endpoints())

    def test_flow_is_exact_for_trees(self):
        graph = path_graph(5, probability=0.5)
        result = DijkstraSelector().select(graph, 0, 4)
        exact = exact_expected_flow(graph, 0).expected_flow
        assert result.expected_flow == pytest.approx(exact)

    def test_budget_larger_than_graph(self):
        graph = path_graph(4, probability=0.5)
        result = DijkstraSelector().select(graph, 0, 100)
        assert result.n_selected == 3

    def test_zero_budget(self, random_graph):
        result = DijkstraSelector().select(random_graph, 0, 0)
        assert result.n_selected == 0
        assert result.expected_flow == 0.0

    def test_invalid_budget(self, random_graph):
        with pytest.raises(BudgetError):
            DijkstraSelector().select(random_graph, 0, -1)

    def test_unknown_query(self, random_graph):
        with pytest.raises(VertexNotFoundError):
            DijkstraSelector().select(random_graph, 10_000, 3)

    def test_prefers_high_probability_edges(self):
        graph = star_graph(4, probability=0.2)
        graph.set_probability(0, 1, 0.9)
        graph.set_probability(0, 2, 0.8)
        result = DijkstraSelector().select(graph, 0, 2)
        assert set(result.selected_edges) == {Edge(0, 1), Edge(0, 2)}


class TestNaiveSelector:
    def test_selects_within_budget(self):
        graph = erdos_renyi_graph(20, average_degree=3, seed=1)
        result = NaiveGreedySelector(n_samples=40, seed=0).select(graph, 0, 4)
        assert result.n_selected == 4
        assert result.algorithm == "Naive"
        assert len(result.iterations) == 4

    def test_greedy_picks_clearly_best_edge_first(self):
        graph = star_graph(3, probability=0.2)
        graph.set_probability(0, 2, 0.95)
        result = NaiveGreedySelector(n_samples=300, seed=0).select(graph, 0, 1)
        assert result.selected_edges == [Edge(0, 2)]

    def test_stops_when_no_candidates_remain(self):
        graph = path_graph(3, probability=0.5)
        result = NaiveGreedySelector(n_samples=30, seed=0).select(graph, 0, 10)
        assert result.n_selected == 2

    def test_flow_is_nonnegative_and_monotone_per_iteration(self):
        graph = erdos_renyi_graph(15, average_degree=3, seed=2)
        result = NaiveGreedySelector(n_samples=60, seed=1).select(graph, 0, 5)
        flows = [iteration.flow_after for iteration in result.iterations]
        assert all(b >= a - 1e-6 for a, b in zip(flows, flows[1:]))


class TestRandomSelector:
    def test_respects_budget_and_connectivity(self, random_graph):
        result = RandomSelector(seed=0).select(random_graph, 0, 10)
        assert result.n_selected == 10
        connected = {0}
        for edge in result.selected_edges:
            assert edge.u in connected or edge.v in connected
            connected.update(edge.endpoints())

    def test_reproducible_with_seed(self, random_graph):
        a = RandomSelector(seed=5).select(random_graph, 0, 6)
        b = RandomSelector(seed=5).select(random_graph, 0, 6)
        assert a.selected_edges == b.selected_edges


class TestRepeatedSelect:
    """A selector re-seeds per ``select``, as the F-tree selectors do.

    The pinned flows are the first ``select`` of each selector before it
    re-seeded per call: re-seeding must not change that first answer.
    """

    FIRST_FLOW = {"Naive": "0x1.5ab851eb851ecp+4", "Random": "0x1.53a94ca14c38dp+2"}

    @pytest.mark.parametrize("name", sorted(FIRST_FLOW))
    def test_second_select_repeats_the_first(self, name):
        graph = erdos_renyi_graph(60, average_degree=4, seed=2)
        selector = make_selector(name, seed=5, n_samples=200)
        first = selector.select(graph, 0, 6)
        second = selector.select(graph, 0, 6)
        assert first.expected_flow == float.fromhex(self.FIRST_FLOW[name])
        assert second.selected_edges == first.selected_edges
        assert second.expected_flow == first.expected_flow


class TestExhaustiveOptimal:
    def test_optimal_on_star_picks_heaviest_leaves(self):
        graph = star_graph(4, probability=0.5)
        graph.set_weight(2, 10.0)
        graph.set_weight(4, 5.0)
        result = exhaustive_optimal_selection(graph, 0, budget=2)
        assert set(result.selected_edges) == {Edge(0, 2), Edge(0, 4)}
        assert result.expected_flow == pytest.approx(0.5 * 10.0 + 0.5 * 5.0)

    def test_optimal_at_least_as_good_as_dijkstra(self, triangle_graph):
        optimal = exhaustive_optimal_selection(triangle_graph, 0, budget=2)
        dijkstra = DijkstraSelector().select(triangle_graph, 0, 2)
        assert optimal.expected_flow >= dijkstra.expected_flow - 1e-9

    def test_budget_zero(self, triangle_graph):
        result = exhaustive_optimal_selection(triangle_graph, 0, budget=0)
        assert result.selected_edges == []
        assert result.expected_flow == 0.0

    def test_too_many_edges_rejected(self):
        graph = erdos_renyi_graph(30, average_degree=4, seed=0)
        with pytest.raises(ExactEnumerationError):
            exhaustive_optimal_selection(graph, 0, budget=3)

    def test_invalid_budget(self, triangle_graph):
        with pytest.raises(BudgetError):
            exhaustive_optimal_selection(triangle_graph, 0, budget=-2)
