"""Serialisation of uncertain graphs.

Graphs are stored as a JSON document that round-trips the full graph,
including vertex weights and the graph name.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.graph.uncertain_graph import UncertainGraph

PathLike = Union[str, Path]


def graph_to_dict(graph: UncertainGraph) -> dict:
    """Convert ``graph`` into a JSON-serialisable dictionary."""
    return {
        "name": graph.name,
        "vertices": [
            {"id": vertex, "weight": graph.weight(vertex)} for vertex in graph.vertices()
        ],
        "edges": [
            {"u": edge.u, "v": edge.v, "p": graph.probability(edge)}
            for edge in graph.edges()
        ],
    }


def graph_from_dict(payload: dict) -> UncertainGraph:
    """Rebuild a graph from the dictionary produced by :func:`graph_to_dict`."""
    graph = UncertainGraph(name=payload.get("name", ""))
    for vertex in payload.get("vertices", []):
        graph.add_vertex(vertex["id"], weight=float(vertex.get("weight", 1.0)))
    for edge in payload.get("edges", []):
        graph.add_edge(edge["u"], edge["v"], float(edge["p"]))
    return graph


def write_json(graph: UncertainGraph, path: PathLike) -> None:
    """Write ``graph`` as a JSON document."""
    path = Path(path)
    path.write_text(json.dumps(graph_to_dict(graph), indent=2), encoding="utf-8")


def read_json(path: PathLike) -> UncertainGraph:
    """Read a graph previously written with :func:`write_json`."""
    path = Path(path)
    return graph_from_dict(json.loads(path.read_text(encoding="utf-8")))
