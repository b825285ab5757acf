"""Exact reachability and expected flow over every possible world at once.

Exponential in the number ``m`` of uncertain edges, so only usable on
small graphs or small bi-connected components; the test suite and the
exact component evaluator of the F-tree rely on it as ground truth.
:func:`cycle_closure` answers the commonest such component, one simple
cycle through the source, in closed form instead (linear in its edges).

The ``2^m`` worlds are not built one by one.  Every vertex carries one
Python ``int`` whose bit ``w`` says "reached from the source in world
``w``", and a single closure over the edges fills in all worlds
together.  World ``w`` keeps the ``i``-th uncertain edge iff bit
``m - 1 - i`` of ``w`` is set, which is the order in which
:func:`~repro.graph.possible_world.enumerate_worlds` yields its worlds.
World probabilities and per-vertex sums are accumulated in that order
too, so every result equals a per-world loop over ``enumerate_worlds``
bit for bit.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ExactEnumerationError, VertexNotFoundError
from repro.graph.possible_world import DEFAULT_ENUMERATION_LIMIT
from repro.graph.uncertain_graph import UncertainGraph
from repro.reachability.estimators import FlowEstimate, ReachabilityEstimate
from repro.types import Edge, VertexId, as_edge

#: float64 terms summed per block of vertex rows: caps the working set of
#: the sums at 8 MB instead of growing as ``vertices x 2^m``
_BLOCK_TERMS = 1 << 20


def _survival_mask(half_period: int, n_worlds: int) -> int:
    """Bitset of the worlds ``w`` whose bit ``log2(half_period)`` is set."""
    mask, width = ((1 << half_period) - 1) << half_period, 2 * half_period
    while width < n_worlds:
        mask |= mask << width
        width *= 2
    return mask


def _world_probabilities(uncertain: Sequence[float]) -> np.ndarray:
    """``Pr(g)`` of every world in enumeration order, multiplied in edge order."""
    probabilities = np.ones(1)
    for p in uncertain:
        probabilities = np.multiply.outer(probabilities, (1.0 - p, p)).ravel()
    return probabilities


def _reach_sums(rows: List[int], world_probability: np.ndarray) -> np.ndarray:
    """Sum ``world_probability`` over the set bits of each world bitset.

    ``np.cumsum`` adds left to right (``np.sum`` would add pairwise), so
    each sum repeats the per-world loop's running ``+=`` exactly.
    """
    n_worlds = world_probability.size
    n_bytes = (n_worlds + 7) // 8
    block = max(1, _BLOCK_TERMS // n_worlds)
    sums = np.empty(len(rows))
    for start in range(0, len(rows), block):
        chunk = rows[start : start + block]
        packed = np.frombuffer(
            b"".join(bits.to_bytes(n_bytes, "little") for bits in chunk), dtype=np.uint8
        )
        flags = np.unpackbits(
            packed.reshape(len(chunk), n_bytes), axis=1, count=n_worlds, bitorder="little"
        )
        terms = np.where(flags.view(bool), world_probability, 0.0)
        sums[start : start + len(chunk)] = np.cumsum(terms, axis=1, out=terms)[:, -1]
    return sums


def exact_closure(
    source: VertexId,
    vertices: Iterable[VertexId],
    edges: Sequence[Tuple[Edge, float]],
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> Dict[VertexId, float]:
    """Return ``P(source ↔ v)`` for every ``v`` in ``vertices`` over the worlds of ``edges``.

    Parameters
    ----------
    source:
        Source vertex (probability 1.0 to itself when listed).
    vertices:
        The vertices to report; one not reached in any world gets 0.0.
    edges:
        ``(edge, probability)`` pairs.  The order of the uncertain ones
        fixes the world order, as a graph's edge order does for
        :func:`~repro.graph.possible_world.enumerate_worlds`.
    limit:
        Maximum number of uncertain edges; more raise
        :class:`~repro.exceptions.ExactEnumerationError` before anything
        is allocated.
    """
    uncertain = [p for _, p in edges if p < 1.0]
    if len(uncertain) > limit:
        raise ExactEnumerationError(len(uncertain), limit)
    n_worlds = 1 << len(uncertain)
    every_world = (1 << n_worlds) - 1
    neighbours: Dict[VertexId, List[Tuple[VertexId, int]]] = {}
    half_period = n_worlds
    for edge, p in edges:
        if p < 1.0:
            half_period >>= 1
            mask = _survival_mask(half_period, n_worlds)
        else:
            mask = every_world
        neighbours.setdefault(edge.u, []).append((edge.v, mask))
        neighbours.setdefault(edge.v, []).append((edge.u, mask))
    # label propagation: a vertex is re-expanded whenever its bitset grows
    reached = {source: every_world}
    frontier = [source]
    while frontier:
        vertex = frontier.pop()
        bits = reached[vertex]
        for neighbour, mask in neighbours.get(vertex, ()):
            before = reached.get(neighbour, 0)
            after = before | (bits & mask)
            if after != before:
                reached[neighbour] = after
                frontier.append(neighbour)
    probabilities = {vertex: 0.0 for vertex in vertices}
    rows = [vertex for vertex in probabilities if vertex in reached]
    sums = _reach_sums([reached[vertex] for vertex in rows], _world_probabilities(uncertain))
    for vertex, total in zip(rows, sums.tolist()):
        # guard against floating point drift beyond [0, 1]
        probabilities[vertex] = min(1.0, max(0.0, total))
    return probabilities


def cycle_closure(
    source: VertexId,
    vertices: Iterable[VertexId],
    edges: Sequence[Tuple[Edge, float]],
) -> Optional[Dict[VertexId, float]]:
    """:func:`exact_closure` in closed form when ``edges`` are one simple cycle through ``source``.

    The cycle must pass through ``source`` and every vertex of
    ``vertices`` (``source`` not among them) and nothing else: each
    vertex has degree 2 and ``len(edges) == len(vertices) + 1``.  The
    two arcs from a cycle vertex ``v`` to ``source`` share no edge, so
    with ``L`` and ``R`` the products of their edge probabilities,
    ``P(source ↔ v) = L + R − L·R`` (a series–parallel reduction).
    Results are clamped to ``[0, 1]`` as :func:`exact_closure` clamps
    them, and listed in the order of ``vertices``.

    Returns ``None`` for any other component; the caller then falls
    back to :func:`exact_closure`.
    """
    targets = list(vertices)
    if len(edges) != len(targets) + 1:
        return None
    neighbours: Dict[VertexId, List[Tuple[VertexId, float, int]]] = {}
    for index, (edge, p) in enumerate(edges):
        neighbours.setdefault(edge.u, []).append((edge.v, p, index))
        neighbours.setdefault(edge.v, []).append((edge.u, p, index))
    # as many vertices as edges, all of degree 2: a union of disjoint cycles
    if len(neighbours) != len(edges) or any(len(arcs) != 2 for arcs in neighbours.values()):
        return None
    if source not in neighbours:
        return None
    # one walk from the source, never leaving a vertex by the edge it came in on
    order: List[VertexId] = []
    along: List[float] = []
    vertex, came_by = source, -1
    while True:
        first, second = neighbours[vertex]
        vertex, p, came_by = second if first[2] == came_by else first
        along.append(p)
        if vertex == source:
            break
        order.append(vertex)
    # a vertex off the source's cycle (another cycle, or no edge) is not answered here
    position = {vertex: index for index, vertex in enumerate(order)}
    if any(vertex not in position for vertex in targets):
        return None
    # left[i]: the arc source → order[i] one way; right[i]: the other way
    left = list(accumulate(along[:-1], mul))
    right = list(accumulate(reversed(along[1:]), mul))[::-1]
    probabilities: Dict[VertexId, float] = {}
    for vertex in targets:
        index = position[vertex]
        one, other = left[index], right[index]
        probabilities[vertex] = min(1.0, max(0.0, one + other - one * other))
    return probabilities


def exact_reachability_all(
    graph: UncertainGraph,
    source: VertexId,
    edges: Optional[Iterable[Edge]] = None,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> Dict[VertexId, float]:
    """Return the exact reachability probability from ``source`` to every vertex.

    Parameters
    ----------
    graph:
        The uncertain graph.
    source:
        Source vertex (probability 1.0 to itself).
    edges:
        Optional restriction to a subset of edges; every vertex of
        ``graph`` is still reported.
    limit:
        Maximum number of uncertain edges tolerated before raising
        :class:`~repro.exceptions.ExactEnumerationError`.
    """
    if not graph.has_vertex(source):
        raise VertexNotFoundError(source)
    if edges is None:
        weighted = list(graph.probabilities().items())
    else:
        # a repeated edge keeps its first position, which fixes the world order
        selected = dict.fromkeys(as_edge(edge) for edge in edges)
        weighted = [(edge, graph.probability(edge)) for edge in selected]
    return exact_closure(source, graph.vertices(), weighted, limit=limit)


def exact_reachability(
    graph: UncertainGraph,
    source: VertexId,
    target: VertexId,
    edges: Optional[Iterable[Edge]] = None,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> ReachabilityEstimate:
    """Exact two-terminal reachability probability ``P(source ↔ target)`` (Definition 2)."""
    if not graph.has_vertex(target):
        raise VertexNotFoundError(target)
    probabilities = exact_reachability_all(graph, source, edges=edges, limit=limit)
    return ReachabilityEstimate(probability=probabilities[target])


def exact_expected_flow(
    graph: UncertainGraph,
    query: VertexId,
    edges: Optional[Iterable[Edge]] = None,
    include_query: bool = False,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> FlowEstimate:
    """Exact expected information flow ``E[flow(Q, G)]`` (Definition 3 / Equation 2)."""
    probabilities = exact_reachability_all(graph, query, edges=edges, limit=limit)
    total = 0.0
    for vertex, probability in probabilities.items():
        if vertex == query and not include_query:
            continue
        total += probability * graph.weight(vertex)
    reachability = {
        vertex: probability
        for vertex, probability in probabilities.items()
        if vertex != query or include_query
    }
    return FlowEstimate(
        expected_flow=total,
        reachability=reachability,
        n_samples=None,
        variance=None,
        include_query=include_query,
    )
