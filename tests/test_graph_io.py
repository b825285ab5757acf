"""Tests for graph serialisation (JSON)."""

import pytest

from repro.graph.io import graph_from_dict, graph_to_dict, read_json, write_json
from repro.graph.uncertain_graph import UncertainGraph


@pytest.fixture
def sample_graph() -> UncertainGraph:
    graph = UncertainGraph(name="io-sample")
    graph.add_vertex(0, weight=1.0)
    graph.add_vertex(1, weight=2.5)
    graph.add_vertex(2, weight=1.0)
    graph.add_vertex(99, weight=7.0)  # isolated vertex
    graph.add_edge(0, 1, 0.5)
    graph.add_edge(1, 2, 0.125)
    return graph


class TestJson:
    def test_round_trip(self, tmp_path, sample_graph):
        path = tmp_path / "graph.json"
        write_json(sample_graph, path)
        loaded = read_json(path)
        assert loaded == sample_graph
        assert loaded.name == "io-sample"

    def test_dict_round_trip(self, sample_graph):
        assert graph_from_dict(graph_to_dict(sample_graph)) == sample_graph

    def test_dict_defaults(self):
        graph = graph_from_dict({"vertices": [{"id": 0}], "edges": []})
        assert graph.weight(0) == 1.0
        assert graph.name == ""
