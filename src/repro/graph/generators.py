"""Synthetic uncertain-graph generators.

These reproduce the data-generation schemes of the paper's evaluation
(Section 7.1):

* :func:`erdos_renyi_graph` — the *Erdős* scheme without locality
  assumption: edges distributed independently and uniformly, edge
  probabilities uniform in ``(0, 1]``, integer vertex weights uniform in
  ``[0, 10]``.
* :func:`partitioned_graph` — the *partitioned* scheme with locality
  assumption: vertices arranged in a ring of partitions of size ``d``,
  each vertex connected to all vertices of the neighbouring partitions,
  giving a controllable diameter.
* :func:`wsn_graph` — the *WSN* scheme: vertices placed uniformly in the
  unit square, connected whenever their Euclidean distance is below
  ``eps``.
* :func:`grid_road_graph` — a road-network-style planar grid with
  distance-decay edge probabilities (surrogate for the San Joaquin road
  network: planar and local, as the original).
* :func:`social_circle_graph` — a dense social graph where each vertex
  has a few high-probability "close friends" and many low-probability
  acquaintances (surrogate for the Facebook circles dataset).
* :func:`collaboration_graph` — a union of random cliques (surrogate for
  the DBLP co-authorship graph).
* :func:`preferential_attachment_graph` — a sparse heavy-tailed graph
  (surrogate for the YouTube friendship graph).

Plus deterministic toy graphs (:func:`path_graph`, :func:`cycle_graph`,
:func:`star_graph`, :func:`complete_graph`) used in examples and tests.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.graph.uncertain_graph import UncertainGraph
from repro.rng import SeedLike, ensure_rng

#: Smallest probability assigned by generators; the model requires p > 0.
_MIN_PROBABILITY = 1e-9


def _uniform_probability(rng: np.random.Generator) -> float:
    """Draw an edge probability uniformly from (0, 1]."""
    return float(max(_MIN_PROBABILITY, rng.random()))


def _assign_weights(
    graph: UncertainGraph,
    rng: np.random.Generator,
    weight_range: Tuple[float, float] = (0.0, 10.0),
    integer_weights: bool = True,
) -> None:
    """Assign vertex weights uniformly from ``weight_range`` (paper default [0, 10])."""
    low, high = weight_range
    for vertex in list(graph.vertices()):
        if integer_weights:
            weight = float(rng.integers(int(low), int(high) + 1))
        else:
            weight = float(rng.uniform(low, high))
        graph.set_weight(vertex, weight)


# ----------------------------------------------------------------------
# paper generators
# ----------------------------------------------------------------------
def erdos_renyi_graph(
    n_vertices: int,
    average_degree: float = 6.0,
    seed: SeedLike = None,
    weight_range: Tuple[float, float] = (0.0, 10.0),
    connect: bool = True,
    name: str = "erdos",
) -> UncertainGraph:
    """Generate an Erdős–Rényi-style uncertain graph (no locality).

    ``average_degree`` controls the expected vertex degree; edges are
    sampled uniformly among all vertex pairs.  When ``connect`` is True a
    random spanning tree is added first so that every vertex can, in
    principle, be reached from the query vertex, mirroring the paper's
    use of connected candidate graphs.

    Parameters
    ----------
    n_vertices:
        Number of vertices (identified by ``0 .. n_vertices - 1``).
    average_degree:
        Target expected degree; the number of edges is
        ``n_vertices * average_degree / 2``.
    seed:
        Random seed or generator.
    weight_range:
        Uniform integer range for vertex weights (paper uses [0, 10]).
    connect:
        Add a random spanning tree before random edges.
    """
    if n_vertices <= 0:
        raise ValueError(f"n_vertices must be positive, got {n_vertices}")
    rng = ensure_rng(seed)
    graph = UncertainGraph(name=name)
    for v in range(n_vertices):
        graph.add_vertex(v, weight=1.0)

    if connect and n_vertices > 1:
        order = [int(vertex) for vertex in rng.permutation(n_vertices)]
        for i in range(1, n_vertices):
            parent = order[int(rng.integers(0, i))]
            graph.add_edge(order[i], parent, _uniform_probability(rng))

    target_edges = int(round(n_vertices * average_degree / 2.0))
    max_edges = n_vertices * (n_vertices - 1) // 2
    target_edges = min(target_edges, max_edges)
    attempts = 0
    max_attempts = 50 * max(target_edges, 1)
    while graph.n_edges < target_edges and attempts < max_attempts:
        attempts += 1
        u = int(rng.integers(0, n_vertices))
        v = int(rng.integers(0, n_vertices))
        if u == v or graph.has_edge(u, v):
            continue
        graph.add_edge(u, v, _uniform_probability(rng))
    _assign_weights(graph, rng, weight_range)
    return graph


def partitioned_graph(
    n_vertices: int,
    degree: int = 6,
    seed: SeedLike = None,
    weight_range: Tuple[float, float] = (0.0, 10.0),
    name: str = "partitioned",
) -> UncertainGraph:
    """Generate the paper's *partitioned* locality graph.

    The vertex set is split into ``n = 2 * n_vertices / degree``
    partitions of size ``degree / 2`` arranged on a ring; every vertex of
    partition ``P_i`` is connected to all vertices of ``P_(i-1)`` and
    ``P_(i+1)`` (modulo ``n``), so every vertex has degree ``degree`` and
    the diameter of the network is ``n - 1``.

    Parameters
    ----------
    n_vertices:
        Number of vertices.
    degree:
        Target degree of every vertex; must be an even integer ≥ 2.
    """
    if n_vertices <= 0:
        raise ValueError(f"n_vertices must be positive, got {n_vertices}")
    if degree < 2 or degree % 2 != 0:
        raise ValueError(f"degree must be an even integer >= 2, got {degree}")
    rng = ensure_rng(seed)
    partition_size = degree // 2
    n_partitions = max(2, n_vertices // partition_size)
    graph = UncertainGraph(name=name)
    total = n_partitions * partition_size
    for v in range(total):
        graph.add_vertex(v, weight=1.0)

    def partition_members(index: int) -> range:
        start = (index % n_partitions) * partition_size
        return range(start, start + partition_size)

    for i in range(n_partitions):
        for u in partition_members(i):
            for v in partition_members(i + 1):
                if not graph.has_edge(u, v):
                    graph.add_edge(u, v, _uniform_probability(rng))
    _assign_weights(graph, rng, weight_range)
    return graph


def wsn_graph(
    n_vertices: int,
    eps: float = 0.05,
    seed: SeedLike = None,
    weight_range: Tuple[float, float] = (0.0, 10.0),
    name: str = "wsn",
) -> UncertainGraph:
    """Generate a wireless-sensor-network random geometric graph.

    Vertices receive uniform coordinates in the unit square and are
    connected whenever their Euclidean distance is at most ``eps``; edge
    probabilities are uniform in (0, 1] as in the paper (Section 7.1,
    "WSN" scheme).  Vertex coordinates are returned as part of the graph
    name-spaced attributes only implicitly (via vertex ids ordered by
    generation); callers needing coordinates should use
    :func:`wsn_graph_with_positions`.
    """
    graph, _ = wsn_graph_with_positions(
        n_vertices, eps=eps, seed=seed, weight_range=weight_range, name=name
    )
    return graph


def wsn_graph_with_positions(
    n_vertices: int,
    eps: float = 0.05,
    seed: SeedLike = None,
    weight_range: Tuple[float, float] = (0.0, 10.0),
    name: str = "wsn",
) -> Tuple[UncertainGraph, dict]:
    """Like :func:`wsn_graph` but also return the vertex coordinates."""
    if n_vertices <= 0:
        raise ValueError(f"n_vertices must be positive, got {n_vertices}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    rng = ensure_rng(seed)
    positions = rng.random((n_vertices, 2))
    graph = UncertainGraph(name=name)
    for v in range(n_vertices):
        graph.add_vertex(v, weight=1.0)
    # simple grid bucketing so generation stays near-linear for small eps
    cell = max(eps, 1e-6)
    buckets: dict[Tuple[int, int], list[int]] = {}
    for v in range(n_vertices):
        key = (int(positions[v, 0] / cell), int(positions[v, 1] / cell))
        buckets.setdefault(key, []).append(v)
    for (cx, cy), members in buckets.items():
        neighbors: list[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                neighbors.extend(buckets.get((cx + dx, cy + dy), ()))
        for u in members:
            for v in neighbors:
                if v <= u or graph.has_edge(u, v):
                    continue
                distance = float(np.linalg.norm(positions[u] - positions[v]))
                if distance <= eps:
                    graph.add_edge(u, v, _uniform_probability(rng))
    _assign_weights(graph, rng, weight_range)
    coordinates = {v: (float(positions[v, 0]), float(positions[v, 1])) for v in range(n_vertices)}
    return graph, coordinates


def grid_road_graph(
    rows: int,
    cols: int,
    cell_length_m: float = 500.0,
    decay_per_m: float = 0.001,
    perturbation: float = 0.2,
    seed: SeedLike = None,
    weight_range: Tuple[float, float] = (0.0, 10.0),
    name: str = "road-grid",
) -> UncertainGraph:
    """Generate a planar road-style grid with distance-decay probabilities.

    Serves as a surrogate for the San Joaquin County road network: the
    vertices are road intersections on a jittered grid, the edges connect
    orthogonal neighbours, and the communication probability of an edge
    of physical length ``d`` metres is ``exp(-decay_per_m * d)`` — the
    exact probability law the paper applies to the real road network.

    Parameters
    ----------
    rows, cols:
        Grid dimensions; the graph has ``rows * cols`` vertices.
    cell_length_m:
        Nominal distance between adjacent intersections in metres.
    decay_per_m:
        Exponential decay constant (paper uses 0.001 per metre).
    perturbation:
        Relative jitter applied to intersection coordinates.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    rng = ensure_rng(seed)
    graph = UncertainGraph(name=name)
    positions: dict[int, Tuple[float, float]] = {}
    for r in range(rows):
        for c in range(cols):
            vertex = r * cols + c
            jitter_x = rng.uniform(-perturbation, perturbation) * cell_length_m
            jitter_y = rng.uniform(-perturbation, perturbation) * cell_length_m
            positions[vertex] = (c * cell_length_m + jitter_x, r * cell_length_m + jitter_y)
            graph.add_vertex(vertex, weight=1.0)
    for r in range(rows):
        for c in range(cols):
            vertex = r * cols + c
            for dr, dc in ((0, 1), (1, 0)):
                nr, nc = r + dr, c + dc
                if nr >= rows or nc >= cols:
                    continue
                neighbor = nr * cols + nc
                ax, ay = positions[vertex]
                bx, by = positions[neighbor]
                distance = math.hypot(ax - bx, ay - by)
                probability = max(_MIN_PROBABILITY, math.exp(-decay_per_m * distance))
                graph.add_edge(vertex, neighbor, min(1.0, probability))
    _assign_weights(graph, rng, weight_range)
    return graph


def social_circle_graph(
    n_vertices: int,
    average_degree: float = 20.0,
    close_friends: int = 10,
    close_probability_range: Tuple[float, float] = (0.5, 1.0),
    distant_probability_range: Tuple[float, float] = (1e-6, 0.5),
    seed: SeedLike = None,
    weight_range: Tuple[float, float] = (0.0, 10.0),
    name: str = "social-circle",
) -> UncertainGraph:
    """Generate a dense social-circle graph (Facebook-circles surrogate).

    Each vertex receives ``close_friends`` incident edges re-weighted
    with a high probability drawn from ``close_probability_range`` while
    all remaining edges get a probability from
    ``distant_probability_range`` — exactly the re-weighting scheme the
    paper applies to the Facebook snapshot (Section 7.1).
    """
    if n_vertices <= 2:
        raise ValueError("social_circle_graph needs at least 3 vertices")
    rng = ensure_rng(seed)
    graph = erdos_renyi_graph(
        n_vertices,
        average_degree=average_degree,
        seed=rng,
        weight_range=weight_range,
        connect=True,
        name=name,
    )
    low, high = distant_probability_range
    for edge in graph.edges():
        graph.set_probability(edge.u, edge.v, float(max(_MIN_PROBABILITY, rng.uniform(low, high))))
    close_low, close_high = close_probability_range
    for vertex in graph.vertices():
        incident = list(graph.incident_edges(vertex))
        if not incident:
            continue
        chosen = rng.permutation(len(incident))[: min(close_friends, len(incident))]
        for index in chosen:
            edge = incident[int(index)]
            graph.set_probability(edge.u, edge.v, float(rng.uniform(close_low, close_high)))
    return graph


def collaboration_graph(
    n_vertices: int,
    n_papers: Optional[int] = None,
    authors_per_paper: Tuple[int, int] = (2, 5),
    seed: SeedLike = None,
    weight_range: Tuple[float, float] = (0.0, 10.0),
    name: str = "collaboration",
) -> UncertainGraph:
    """Generate a clique-composition collaboration graph (DBLP surrogate).

    Each "paper" selects a random set of authors and connects them into a
    clique, reproducing the clustering structure of co-authorship graphs.
    Edge probabilities are uniform in (0, 1].
    """
    if n_vertices <= 2:
        raise ValueError("collaboration_graph needs at least 3 vertices")
    rng = ensure_rng(seed)
    if n_papers is None:
        n_papers = int(n_vertices * 1.5)
    graph = UncertainGraph(name=name)
    for v in range(n_vertices):
        graph.add_vertex(v, weight=1.0)
    low, high = authors_per_paper
    for _ in range(n_papers):
        size = int(rng.integers(low, high + 1))
        authors = rng.choice(n_vertices, size=min(size, n_vertices), replace=False)
        for i in range(len(authors)):
            for j in range(i + 1, len(authors)):
                u, v = int(authors[i]), int(authors[j])
                if not graph.has_edge(u, v):
                    graph.add_edge(u, v, _uniform_probability(rng))
    # ensure a connected candidate graph by chaining isolated vertices
    previous = None
    for vertex in range(n_vertices):
        if graph.degree(vertex) == 0:
            anchor = previous if previous is not None else (vertex + 1) % n_vertices
            if anchor != vertex and not graph.has_edge(vertex, anchor):
                graph.add_edge(vertex, anchor, _uniform_probability(rng))
        previous = vertex
    _assign_weights(graph, rng, weight_range)
    return graph


def preferential_attachment_graph(
    n_vertices: int,
    edges_per_vertex: int = 3,
    seed: SeedLike = None,
    weight_range: Tuple[float, float] = (0.0, 10.0),
    name: str = "preferential-attachment",
) -> UncertainGraph:
    """Generate a sparse heavy-tailed graph (YouTube surrogate).

    Standard Barabási–Albert preferential attachment: each new vertex
    attaches to ``edges_per_vertex`` existing vertices chosen with
    probability proportional to their degree.  Edge probabilities are
    uniform in (0, 1].
    """
    if n_vertices <= edges_per_vertex:
        raise ValueError("n_vertices must exceed edges_per_vertex")
    if edges_per_vertex < 1:
        raise ValueError("edges_per_vertex must be at least 1")
    rng = ensure_rng(seed)
    graph = UncertainGraph(name=name)
    for v in range(n_vertices):
        graph.add_vertex(v, weight=1.0)
    # initial clique over the first (edges_per_vertex + 1) vertices
    repeated: list[int] = []
    seed_size = edges_per_vertex + 1
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            graph.add_edge(u, v, _uniform_probability(rng))
            repeated.extend((u, v))
    for new_vertex in range(seed_size, n_vertices):
        targets: set[int] = set()
        while len(targets) < edges_per_vertex:
            pick = repeated[int(rng.integers(0, len(repeated)))]
            if pick != new_vertex:
                targets.add(pick)
        for target in targets:
            graph.add_edge(new_vertex, target, _uniform_probability(rng))
            repeated.extend((new_vertex, target))
    _assign_weights(graph, rng, weight_range)
    return graph


# ----------------------------------------------------------------------
# deterministic toy graphs (examples and tests)
# ----------------------------------------------------------------------
def path_graph(
    n_vertices: int, probability: float = 0.5, weight: float = 1.0, name: str = "path"
) -> UncertainGraph:
    """Return a path ``0 - 1 - ... - (n-1)`` with uniform edge probability."""
    graph = UncertainGraph(name=name)
    for v in range(n_vertices):
        graph.add_vertex(v, weight=weight)
    for v in range(n_vertices - 1):
        graph.add_edge(v, v + 1, probability)
    return graph


def cycle_graph(
    n_vertices: int, probability: float = 0.5, weight: float = 1.0, name: str = "cycle"
) -> UncertainGraph:
    """Return a cycle over ``n_vertices`` vertices with uniform edge probability."""
    if n_vertices < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    graph = path_graph(n_vertices, probability=probability, weight=weight, name=name)
    graph.add_edge(n_vertices - 1, 0, probability)
    return graph


def star_graph(
    n_leaves: int, probability: float = 0.5, weight: float = 1.0, name: str = "star"
) -> UncertainGraph:
    """Return a star with centre ``0`` and leaves ``1 .. n_leaves``."""
    graph = UncertainGraph(name=name)
    graph.add_vertex(0, weight=weight)
    for leaf in range(1, n_leaves + 1):
        graph.add_vertex(leaf, weight=weight)
        graph.add_edge(0, leaf, probability)
    return graph


def complete_graph(
    n_vertices: int, probability: float = 0.5, weight: float = 1.0, name: str = "complete"
) -> UncertainGraph:
    """Return a complete graph with uniform edge probability."""
    graph = UncertainGraph(name=name)
    for v in range(n_vertices):
        graph.add_vertex(v, weight=weight)
    for u in range(n_vertices):
        for v in range(u + 1, n_vertices):
            graph.add_edge(u, v, probability)
    return graph
