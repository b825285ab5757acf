"""Selector edge cases across the CRN / resample sampling modes.

The CRN refactor rewired every sampling-based selector's candidate
evaluation; these tests pin the behaviours that must not change with the
mode: exhausting a candidate pool smaller than the budget, a query
vertex with no incident uncertain edges, and per-seed determinism of
the selection in both modes.
"""

from __future__ import annotations

import pytest

from repro.graph.generators import erdos_renyi_graph, path_graph
from repro.graph.uncertain_graph import UncertainGraph
from repro.selection.dijkstra_tree import DijkstraSelector
from repro.selection.ftree_greedy import FTreeGreedySelector
from repro.selection.greedy_naive import NaiveGreedySelector
from repro.selection.lazy_greedy import LazyGreedySelector
from repro.selection.random_baseline import RandomSelector
from repro.selection import get_default_crn, make_selector

MODES = (True, False)


def _sampling_selectors(crn: bool):
    """One instance of every sampling-based selector in the given mode."""
    return [
        NaiveGreedySelector(n_samples=30, seed=0, crn=crn),
        FTreeGreedySelector(n_samples=30, seed=0, crn=crn),
        FTreeGreedySelector(n_samples=30, seed=0, memoize=True, crn=crn),
        LazyGreedySelector(n_samples=30, seed=0, crn=crn),
        RandomSelector(n_samples=30, seed=0, crn=crn),
    ]


@pytest.mark.parametrize("crn", MODES)
class TestBudgetExceedsCandidatePool:
    def test_selectors_stop_at_pool_size(self, crn):
        graph = path_graph(5, probability=0.6)
        for selector in _sampling_selectors(crn):
            result = selector.select(graph, 0, 100)
            assert result.n_selected == 4, selector.name
            assert result.budget == 100

    def test_selected_edges_cover_the_whole_path(self, crn):
        graph = path_graph(4, probability=0.6)
        result = NaiveGreedySelector(n_samples=40, seed=1, crn=crn).select(graph, 0, 50)
        assert sorted((min(e.u, e.v), max(e.u, e.v)) for e in result.selected_edges) == [
            (0, 1),
            (1, 2),
            (2, 3),
        ]


@pytest.mark.parametrize("crn", MODES)
class TestIsolatedQueryVertex:
    def _graph_with_isolated_query(self) -> UncertainGraph:
        graph = erdos_renyi_graph(12, average_degree=3.0, seed=7)
        graph.add_vertex("island", weight=2.0)
        return graph

    def test_no_incident_uncertain_edges_selects_nothing(self, crn):
        graph = self._graph_with_isolated_query()
        for selector in _sampling_selectors(crn):
            result = selector.select(graph, "island", 5)
            assert result.selected_edges == [], selector.name
            assert result.expected_flow == 0.0, selector.name
            assert result.iterations == [], selector.name

    def test_dijkstra_also_selects_nothing(self, crn):
        graph = self._graph_with_isolated_query()
        result = DijkstraSelector().select(graph, "island", 5)
        assert result.selected_edges == []


class TestDeterministicSelectionPerSeed:
    @pytest.mark.parametrize("crn", MODES)
    @pytest.mark.parametrize(
        "name", ("Naive", "FT", "FT+M", "FT+M+CI", "FT+M+DS", "Random")
    )
    def test_same_seed_same_selection(self, name, crn):
        graph = erdos_renyi_graph(25, average_degree=4.0, seed=9)
        runs = [
            make_selector(name, n_samples=40, seed=5, crn=crn).select(graph, 0, 5)
            for _ in range(2)
        ]
        assert runs[0].selected_edges == runs[1].selected_edges
        assert runs[0].expected_flow == runs[1].expected_flow

    @pytest.mark.parametrize("crn", MODES)
    def test_lazy_same_seed_same_selection(self, crn):
        graph = erdos_renyi_graph(25, average_degree=4.0, seed=9)
        runs = [
            LazyGreedySelector(n_samples=40, seed=5, crn=crn).select(graph, 0, 5)
            for _ in range(2)
        ]
        assert runs[0].selected_edges == runs[1].selected_edges

    def test_modes_are_actually_different_streams(self):
        """CRN and resample are distinct estimators: extras record the mode."""
        graph = erdos_renyi_graph(25, average_degree=4.0, seed=9)
        crn = NaiveGreedySelector(n_samples=40, seed=5, crn=True).select(graph, 0, 5)
        resample = NaiveGreedySelector(n_samples=40, seed=5, crn=False).select(graph, 0, 5)
        assert crn.extras["crn"] == 1.0
        assert resample.extras["crn"] == 0.0
        assert "fast_evaluations" in crn.extras
        assert "fast_evaluations" not in resample.extras


def _naive_mode(selector) -> float:
    """The mode a Naive selection actually ran in (its ``extras["crn"]``)."""
    graph = erdos_renyi_graph(12, average_degree=3.0, seed=4)
    return selector.select(graph, 0, 2).extras["crn"]


class TestDefaultCrnToggle:
    def test_default_is_crn(self):
        assert get_default_crn() is True
        selector = make_selector("Naive", n_samples=10)
        assert selector.crn is None  # read when select runs
        assert _naive_mode(selector) == 1.0

    def test_session_scope_redirects_none(self):
        import repro

        with repro.session(crn=False):
            assert _naive_mode(make_selector("Naive", n_samples=10)) == 0.0
            # an explicit argument still wins over the session
            assert _naive_mode(make_selector("Naive", n_samples=10, crn=True)) == 1.0
        assert get_default_crn() is True

    @pytest.mark.parametrize("build", ["make_selector", "constructor"])
    @pytest.mark.parametrize("algorithm", ["FT+M", "Naive"])
    def test_mode_is_read_when_select_runs(self, monkeypatch, algorithm, build):
        """Built outside ``session(crn=False)``, run inside: resampling."""
        import repro
        import repro.selection.ftree_greedy as ftree_greedy
        from repro.ftree.sampler import ComponentSampler

        sampler_modes = []

        class RecordingSampler(ComponentSampler):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sampler_modes.append(self.crn)

        monkeypatch.setattr(ftree_greedy, "ComponentSampler", RecordingSampler)
        if build == "make_selector":
            selector = make_selector(algorithm, n_samples=20, seed=1)
        elif algorithm == "Naive":
            selector = NaiveGreedySelector(n_samples=20, seed=1)
        else:
            selector = FTreeGreedySelector(n_samples=20, memoize=True, seed=1)
        graph = erdos_renyi_graph(15, average_degree=4.0, seed=2)
        with repro.session(crn=False):
            result = selector.select(graph, 0, 3)
        if algorithm == "Naive":
            assert result.extras["crn"] == 0.0
            assert "fast_evaluations" not in result.extras  # no shared worlds
        else:
            assert sampler_modes and not any(sampler_modes)
