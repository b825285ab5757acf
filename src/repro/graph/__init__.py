"""Uncertain (probabilistic) graph substrate.

This subpackage provides the probabilistic graph model of the paper
(Section 3): an undirected graph whose edges exist independently with a
known probability and whose vertices carry information weights, together
with possible-world semantics, synthetic generators and JSON
serialisation.
"""

from repro.graph.uncertain_graph import UncertainGraph
from repro.graph.possible_world import PossibleWorld, enumerate_worlds, world_probability
from repro.graph.generators import (
    erdos_renyi_graph,
    partitioned_graph,
    wsn_graph,
    grid_road_graph,
    social_circle_graph,
    collaboration_graph,
    preferential_attachment_graph,
    path_graph,
    cycle_graph,
    star_graph,
    complete_graph,
)
from repro.graph.io import (
    graph_to_dict,
    graph_from_dict,
    read_json,
    write_json,
)
from repro.graph.validation import validate_graph, GraphStats, graph_stats

__all__ = [
    "UncertainGraph",
    "PossibleWorld",
    "enumerate_worlds",
    "world_probability",
    "erdos_renyi_graph",
    "partitioned_graph",
    "wsn_graph",
    "grid_road_graph",
    "social_circle_graph",
    "collaboration_graph",
    "preferential_attachment_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "graph_to_dict",
    "graph_from_dict",
    "read_json",
    "write_json",
    "validate_graph",
    "GraphStats",
    "graph_stats",
]
