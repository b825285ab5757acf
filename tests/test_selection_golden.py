"""Golden selections: the F-tree selectors' picks and flows, pinned bit for bit.

The expected edges and flows below were recorded from the clone-based
probe implementation (every candidate scored by cloning the F-tree,
inserting the edge and re-evaluating the whole tree).  Scoring probes as
flow deltas must reproduce them exactly in the default CRN mode, both
with exact components only (``exact_threshold=10``) and with sampled
components in play (``exact_threshold=3``).

The FT+M+CI+DS rows, the ``include_query=True`` rows and the
frontier-heavy ``erdos-300`` rows were recorded later, from the
per-candidate probe loop that scored every frontier edge with its own
:meth:`FTree.probe` call.  Scoring the Case II frontier in one batch
must reproduce them exactly as well.

The two ``erdos-300`` rows at ``exact_threshold=10`` for FT+M and
FT+M+CI were re-recorded when simple-cycle components moved to the
closed form ``L + R - L*R``: their edges are unchanged and their flows
moved in the last bit (111.3989539750614 -> 111.39895397506137).

Five delayed-sampling rows were re-recorded when a component evaluated
exactly stopped counting as a sampling cost: ``erdos-40`` FT+M+DS and
FT+M+CI+DS and ``wsn-60`` FT+M+DS at ``exact_threshold=10``, where
every component is exact, now equal their FT+M rows (nothing is ever
delayed); ``wsn-60`` FT+M+DS and FT+M+CI+DS at ``exact_threshold=3``
no longer delay triangles and both pick ``(14, 15), (14, 47)`` last.
"""

import pytest

from repro.experiments.harness import pick_query_vertex
from repro.graph.generators import erdos_renyi_graph, wsn_graph
from repro.selection.registry import make_selector
from repro.types import Edge

GRAPHS = {
    "erdos-30": lambda: erdos_renyi_graph(30, average_degree=4.0, seed=3),
    "erdos-40": lambda: erdos_renyi_graph(40, average_degree=6.0, seed=11),
    "wsn-60": lambda: wsn_graph(60, eps=0.22, seed=5),
    "erdos-300": lambda: erdos_renyi_graph(300, average_degree=6.0, seed=13),
}

BUDGET = 10

#: graphs selected with a budget other than :data:`BUDGET`
BUDGETS = {"erdos-300": 25}

#: (graph, algorithm, exact_threshold) -> (selected edges, expected flow)
GOLDEN = {
    ("erdos-30", "FT", 10): (
        [(1, 8), (1, 27), (1, 16), (6, 8), (8, 17), (4, 6), (1, 25), (25, 26), (20, 26), (3, 26)],
        33.423568368008134,
    ),
    ("erdos-30", "FT+M", 10): (
        [(1, 8), (1, 27), (1, 16), (6, 8), (8, 17), (4, 6), (1, 25), (25, 26), (20, 26), (3, 26)],
        33.423568368008134,
    ),
    ("erdos-30", "FT+M+CI", 10): (
        [(1, 8), (1, 27), (1, 16), (6, 8), (8, 17), (4, 6), (1, 25), (25, 26), (20, 26), (3, 26)],
        33.423568368008134,
    ),
    ("erdos-30", "FT+M+DS", 10): (
        [(1, 8), (1, 27), (1, 16), (6, 8), (8, 17), (4, 6), (1, 25), (25, 26), (20, 26), (3, 26)],
        33.423568368008134,
    ),
    ("erdos-40", "FT", 10): (
        [(1, 2), (1, 6), (6, 16), (1, 3), (16, 18), (6, 20), (1, 22), (10, 22), (16, 22), (8, 22)],
        55.097131055784494,
    ),
    ("erdos-40", "FT+M", 10): (
        [(1, 2), (1, 6), (6, 16), (1, 3), (16, 18), (6, 20), (1, 22), (10, 22), (16, 22), (8, 22)],
        55.097131055784494,
    ),
    ("erdos-40", "FT+M+CI", 10): (
        [(1, 2), (1, 6), (6, 16), (1, 3), (16, 18), (6, 20), (1, 22), (10, 22), (16, 22), (8, 22)],
        55.097131055784494,
    ),
    ("erdos-40", "FT+M+DS", 10): (
        [(1, 2), (1, 6), (6, 16), (1, 3), (16, 18), (6, 20), (1, 22), (10, 22), (16, 22), (8, 22)],
        55.097131055784494,
    ),
    ("wsn-60", "FT", 10): (
        [
            (5, 34), (34, 48), (46, 48), (5, 53), (15, 53),
            (9, 34), (5, 9), (46, 58), (5, 48), (14, 15),
        ],
        42.37892598707756,
    ),
    ("wsn-60", "FT+M", 10): (
        [
            (5, 34), (34, 48), (46, 48), (5, 53), (15, 53),
            (9, 34), (5, 9), (46, 58), (5, 48), (14, 15),
        ],
        42.37892598707756,
    ),
    ("wsn-60", "FT+M+CI", 10): (
        [
            (5, 34), (34, 48), (46, 48), (5, 53), (15, 53),
            (9, 34), (5, 9), (46, 58), (5, 48), (14, 15),
        ],
        42.37892598707756,
    ),
    ("wsn-60", "FT+M+DS", 10): (
        [
            (5, 34), (34, 48), (46, 48), (5, 53), (15, 53),
            (9, 34), (5, 9), (46, 58), (5, 48), (14, 15),
        ],
        42.37892598707756,
    ),
    ("erdos-30", "FT", 3): (
        [(1, 8), (1, 27), (1, 16), (6, 8), (8, 17), (4, 6), (1, 25), (25, 26), (20, 26), (3, 26)],
        33.423568368008134,
    ),
    ("erdos-30", "FT+M", 3): (
        [(1, 8), (1, 27), (1, 16), (6, 8), (8, 17), (4, 6), (1, 25), (25, 26), (20, 26), (3, 26)],
        33.423568368008134,
    ),
    ("erdos-30", "FT+M+CI", 3): (
        [(1, 8), (1, 27), (1, 16), (6, 8), (8, 17), (4, 6), (1, 25), (25, 26), (20, 26), (3, 26)],
        33.423568368008134,
    ),
    ("erdos-30", "FT+M+DS", 3): (
        [(1, 8), (1, 27), (1, 16), (6, 8), (8, 17), (4, 6), (1, 25), (25, 26), (20, 26), (3, 26)],
        33.423568368008134,
    ),
    ("erdos-40", "FT", 3): (
        [(1, 2), (1, 6), (6, 16), (1, 3), (16, 18), (6, 20), (1, 22), (16, 22), (10, 22), (8, 22)],
        55.06876211111473,
    ),
    ("erdos-40", "FT+M", 3): (
        [(1, 2), (1, 6), (6, 16), (1, 3), (16, 18), (6, 20), (1, 22), (16, 22), (10, 22), (8, 22)],
        56.50963472063205,
    ),
    ("erdos-40", "FT+M+CI", 3): (
        [(1, 2), (1, 6), (6, 16), (1, 3), (16, 18), (6, 20), (1, 22), (16, 22), (10, 22), (8, 22)],
        56.50963472063205,
    ),
    ("erdos-40", "FT+M+DS", 3): (
        [(1, 2), (1, 6), (6, 16), (1, 3), (16, 18), (6, 20), (1, 22), (16, 22), (10, 22), (8, 22)],
        56.50963472063205,
    ),
    ("wsn-60", "FT", 3): (
        [
            (5, 34), (34, 48), (46, 48), (5, 53), (15, 53),
            (9, 34), (5, 9), (9, 15), (5, 48), (46, 58),
        ],
        40.7404487676183,
    ),
    ("wsn-60", "FT+M", 3): (
        [
            (5, 34), (34, 48), (46, 48), (5, 53), (15, 53),
            (9, 34), (5, 9), (9, 15), (46, 58), (14, 15),
        ],
        43.94173665122378,
    ),
    ("wsn-60", "FT+M+CI", 3): (
        [
            (5, 34), (34, 48), (46, 48), (5, 53), (15, 53),
            (9, 34), (5, 9), (9, 15), (46, 58), (14, 15),
        ],
        43.94173665122378,
    ),
    ("wsn-60", "FT+M+DS", 3): (
        [
            (5, 34), (34, 48), (46, 48), (5, 53), (15, 53),
            (9, 34), (5, 9), (46, 58), (14, 15), (14, 47),
        ],
        42.55411601994039,
    ),
    ("erdos-30", "FT+M+CI+DS", 10): (
        [(1, 8), (1, 27), (1, 16), (6, 8), (8, 17), (4, 6), (1, 25), (25, 26), (20, 26), (3, 26)],
        33.423568368008134,
    ),
    ("erdos-30", "FT+M+CI+DS", 3): (
        [(1, 8), (1, 27), (1, 16), (6, 8), (8, 17), (4, 6), (1, 25), (25, 26), (20, 26), (3, 26)],
        33.423568368008134,
    ),
    ("erdos-40", "FT+M+CI+DS", 10): (
        [(1, 2), (1, 6), (6, 16), (1, 3), (16, 18), (6, 20), (1, 22), (10, 22), (16, 22), (8, 22)],
        55.097131055784494,
    ),
    ("erdos-40", "FT+M+CI+DS", 3): (
        [(1, 2), (1, 6), (6, 16), (1, 3), (16, 18), (6, 20), (1, 22), (16, 22), (10, 22), (8, 22)],
        56.50963472063205,
    ),
    ("wsn-60", "FT+M+CI+DS", 10): (
        [
            (5, 34), (34, 48), (46, 48), (5, 53), (15, 53),
            (9, 34), (5, 9), (46, 58), (5, 48), (14, 15),
        ],
        42.37892598707756,
    ),
    ("wsn-60", "FT+M+CI+DS", 3): (
        [
            (5, 34), (34, 48), (46, 48), (5, 53), (15, 53),
            (9, 34), (5, 9), (46, 58), (14, 15), (14, 47),
        ],
        42.55411601994039,
    ),
    ("erdos-300", "FT+M", 10): (
        [
            (50, 262), (262, 296), (50, 267), (50, 276), (5, 262),
            (262, 276), (232, 262), (5, 88), (36, 50), (5, 84),
            (29, 50), (29, 115), (29, 83), (83, 222), (29, 228),
            (84, 298), (83, 192), (192, 237), (249, 298), (49, 222),
            (119, 222), (205, 296), (161, 205), (205, 298), (43, 88),
        ],
        111.39895397506137,
    ),
    ("erdos-300", "FT+M", 3): (
        [
            (50, 262), (262, 296), (50, 267), (50, 276), (5, 262),
            (262, 276), (232, 262), (5, 88), (36, 50), (5, 84),
            (29, 50), (29, 115), (29, 83), (83, 222), (29, 228),
            (115, 232), (83, 192), (192, 237), (84, 298), (49, 222),
            (249, 298), (119, 222), (205, 296), (161, 205), (205, 298),
        ],
        112.81182735502887,
    ),
    ("erdos-300", "FT+M+CI", 10): (
        [
            (50, 262), (262, 296), (50, 267), (50, 276), (5, 262),
            (262, 276), (232, 262), (5, 88), (36, 50), (5, 84),
            (29, 50), (29, 115), (29, 83), (83, 222), (29, 228),
            (84, 298), (83, 192), (192, 237), (249, 298), (49, 222),
            (119, 222), (205, 296), (161, 205), (205, 298), (43, 88),
        ],
        111.39895397506137,
    ),
    ("erdos-300", "FT+M+CI", 3): (
        [
            (50, 262), (262, 296), (50, 267), (50, 276), (5, 262),
            (262, 276), (232, 262), (5, 88), (36, 50), (5, 84),
            (29, 50), (29, 115), (29, 83), (83, 222), (29, 228),
            (115, 232), (83, 192), (192, 237), (84, 298), (49, 222),
            (249, 298), (119, 222), (205, 296), (161, 205), (205, 298),
        ],
        112.81182735502887,
    ),
}

#: include_query=True: (graph, algorithm, exact_threshold) -> (selected edges, expected flow)
GOLDEN_INCLUDE_QUERY = {
    ("erdos-40", "FT+M", 10): (
        [(1, 2), (1, 6), (6, 16), (1, 3), (16, 18), (6, 20), (1, 22), (10, 22), (16, 22), (8, 22)],
        58.097131055784494,
    ),
    ("wsn-60", "FT+M", 10): (
        [
            (5, 34), (34, 48), (46, 48), (5, 53), (15, 53),
            (9, 34), (5, 9), (46, 58), (5, 48), (14, 15),
        ],
        50.37892598707756,
    ),
    ("erdos-40", "FT+M", 3): (
        [(1, 2), (1, 6), (6, 16), (1, 3), (16, 18), (6, 20), (1, 22), (16, 22), (10, 22), (8, 22)],
        59.50963472063205,
    ),
    ("wsn-60", "FT+M", 3): (
        [
            (5, 34), (34, 48), (46, 48), (5, 53), (15, 53),
            (9, 34), (5, 9), (9, 15), (46, 58), (14, 15),
        ],
        51.94173665122378,
    ),
}


def _selector(algorithm: str, exact_threshold: int, include_query: bool = False):
    return make_selector(
        algorithm,
        n_samples=200,
        exact_threshold=exact_threshold,
        seed=7,
        include_query=include_query,
    )


def _check(key, expected, include_query=False):
    graph_name, algorithm, exact_threshold = key
    expected_edges, expected_flow = expected
    graph = GRAPHS[graph_name]()
    result = _selector(algorithm, exact_threshold, include_query).select(
        graph, pick_query_vertex(graph), BUDGETS.get(graph_name, BUDGET)
    )
    assert result.selected_edges == [Edge(u, v) for u, v in expected_edges]
    assert result.expected_flow == expected_flow


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda key: "/".join(map(str, key)))
def test_selection_matches_golden(key):
    _check(key, GOLDEN[key])


@pytest.mark.parametrize(
    "key", sorted(GOLDEN_INCLUDE_QUERY), ids=lambda key: "/".join(map(str, key))
)
def test_include_query_selection_matches_golden(key):
    _check(key, GOLDEN_INCLUDE_QUERY[key], include_query=True)
