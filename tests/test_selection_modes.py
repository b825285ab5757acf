"""Selector edge cases, and the one way every selector draws its worlds.

Every sampling-based selector scores the candidates of a selection round
on common random numbers; there is no per-candidate resampling mode to
switch to.  These tests pin the behaviours every selector must share:
exhausting a candidate pool smaller than the budget, a query vertex with
no incident uncertain edges, and per-seed determinism of the selection —
each with and without the query vertex's own weight in the flow.  They
also pin that the retired ``crn`` knob is refused wherever it used to be
accepted.
"""

from __future__ import annotations

import inspect
from dataclasses import fields

import pytest

import repro
from repro.ftree.sampler import ComponentSampler
from repro.graph.generators import erdos_renyi_graph, path_graph
from repro.graph.uncertain_graph import UncertainGraph
from repro.runtime import RuntimeConfig
from repro.selection.dijkstra_tree import DijkstraSelector
from repro.selection.ftree_greedy import FTreeGreedySelector
from repro.selection.greedy_naive import NaiveGreedySelector
from repro.selection.random_baseline import RandomSelector
from repro.selection import make_selector

INCLUDE_QUERY = (True, False)

SAMPLING_SELECTORS = (
    NaiveGreedySelector,
    FTreeGreedySelector,
    RandomSelector,
)


def _sampling_selectors(include_query: bool):
    """One instance of every sampling-based selector."""
    return [
        NaiveGreedySelector(n_samples=30, seed=0, include_query=include_query),
        FTreeGreedySelector(n_samples=30, seed=0, include_query=include_query),
        FTreeGreedySelector(n_samples=30, seed=0, memoize=True, include_query=include_query),
        RandomSelector(n_samples=30, seed=0, include_query=include_query),
    ]


@pytest.mark.parametrize("include_query", INCLUDE_QUERY)
class TestBudgetExceedsCandidatePool:
    def test_selectors_stop_at_pool_size(self, include_query):
        graph = path_graph(5, probability=0.6)
        for selector in _sampling_selectors(include_query):
            result = selector.select(graph, 0, 100)
            assert result.n_selected == 4, selector.name
            assert result.budget == 100

    def test_selected_edges_cover_the_whole_path(self, include_query):
        graph = path_graph(4, probability=0.6)
        selector = NaiveGreedySelector(n_samples=40, seed=1, include_query=include_query)
        result = selector.select(graph, 0, 50)
        assert sorted((min(e.u, e.v), max(e.u, e.v)) for e in result.selected_edges) == [
            (0, 1),
            (1, 2),
            (2, 3),
        ]


@pytest.mark.parametrize("include_query", INCLUDE_QUERY)
class TestIsolatedQueryVertex:
    ISLAND_WEIGHT = 2.0

    def _graph_with_isolated_query(self) -> UncertainGraph:
        graph = erdos_renyi_graph(12, average_degree=3.0, seed=7)
        graph.add_vertex("island", weight=self.ISLAND_WEIGHT)
        return graph

    def _flow_of_nothing(self, include_query: bool) -> float:
        return self.ISLAND_WEIGHT if include_query else 0.0

    def test_no_incident_uncertain_edges_selects_nothing(self, include_query):
        graph = self._graph_with_isolated_query()
        for selector in _sampling_selectors(include_query):
            result = selector.select(graph, "island", 5)
            assert result.selected_edges == [], selector.name
            assert result.expected_flow == self._flow_of_nothing(include_query), selector.name
            assert result.iterations == [], selector.name

    def test_dijkstra_also_selects_nothing(self, include_query):
        graph = self._graph_with_isolated_query()
        result = DijkstraSelector(include_query=include_query).select(graph, "island", 5)
        assert result.selected_edges == []
        assert result.expected_flow == self._flow_of_nothing(include_query)


class TestDeterministicSelectionPerSeed:
    @pytest.mark.parametrize("include_query", INCLUDE_QUERY)
    @pytest.mark.parametrize(
        "name", ("Naive", "FT", "FT+M", "FT+M+CI", "FT+M+DS", "Random")
    )
    def test_same_seed_same_selection(self, name, include_query):
        graph = erdos_renyi_graph(25, average_degree=4.0, seed=9)
        runs = [
            make_selector(name, n_samples=40, seed=5, include_query=include_query).select(
                graph, 0, 5
            )
            for _ in range(2)
        ]
        assert runs[0].selected_edges == runs[1].selected_edges
        assert runs[0].expected_flow == runs[1].expected_flow


class TestNoSamplingModeKnob:
    """``crn`` is gone from every layer that used to accept it."""

    def test_session_and_runtime_config_refuse_crn(self):
        with pytest.raises(TypeError):
            repro.session(crn=False)
        with pytest.raises(TypeError):
            RuntimeConfig(crn=True)
        assert len(fields(RuntimeConfig)) == 5

    def test_make_selector_refuses_crn(self):
        assert "crn" not in inspect.signature(make_selector).parameters
        with pytest.raises(TypeError):
            make_selector("Naive", n_samples=10, crn=True)

    @pytest.mark.parametrize("cls", SAMPLING_SELECTORS + (ComponentSampler,))
    def test_constructors_refuse_crn(self, cls):
        assert "crn" not in inspect.signature(cls).parameters
        with pytest.raises(TypeError):
            cls(n_samples=10, crn=True)

    def test_naive_extras_carry_no_mode(self):
        graph = erdos_renyi_graph(12, average_degree=3.0, seed=4)
        result = NaiveGreedySelector(n_samples=10, seed=0).select(graph, 0, 2)
        assert "crn" not in result.extras
        assert "fast_evaluations" in result.extras
