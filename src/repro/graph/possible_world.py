"""Possible-world semantics for uncertain graphs.

A *possible world* (paper Section 3) is a deterministic graph obtained
from an :class:`~repro.graph.uncertain_graph.UncertainGraph` by keeping a
subset of its edges; the world occurs with the realization probability of
Equation 1.  This module provides:

* :class:`PossibleWorld` — a lightweight deterministic graph with fast
  connectivity queries;
* :func:`enumerate_worlds` — exhaustive enumeration of all ``2^|E<1|``
  worlds, one :class:`PossibleWorld` each.  It is the test suite's
  ground truth: a per-world reference loop over it checks the
  all-worlds closure of :mod:`repro.reachability.exact`, which numbers
  its worlds in this same order;
* :func:`sample_worlds` — unbiased world sampling.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from repro.exceptions import ExactEnumerationError, VertexNotFoundError
from repro.graph.uncertain_graph import UncertainGraph
from repro.rng import SeedLike, ensure_rng
from repro.types import Edge, VertexId

#: Hard ceiling on exhaustive enumeration: 2^20 worlds (~1M) keeps the
#: exact estimators usable in tests without ever running away.
DEFAULT_ENUMERATION_LIMIT = 20


class PossibleWorld:
    """A deterministic realisation of an uncertain graph.

    The world shares vertex identities (and weights, via the parent
    graph) with the uncertain graph it was drawn from and stores only the
    surviving edges.
    """

    __slots__ = ("_adjacency", "_edges", "probability")

    def __init__(
        self,
        vertices: Iterable[VertexId],
        edges: Iterable[Edge],
        probability: Optional[float] = None,
    ) -> None:
        self._adjacency: Dict[VertexId, Set[VertexId]] = {v: set() for v in vertices}
        self._edges: Set[Edge] = set()
        #: Realization probability Pr(g) when known (None for sampled worlds).
        self.probability = probability
        for edge in edges:
            self.add_edge(edge)

    # ------------------------------------------------------------------
    def add_edge(self, edge: Edge) -> None:
        """Add a surviving edge to the world (endpoints must exist)."""
        for vertex in edge:
            if vertex not in self._adjacency:
                raise VertexNotFoundError(vertex)
        self._adjacency[edge.u].add(edge.v)
        self._adjacency[edge.v].add(edge.u)
        self._edges.add(edge)

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """Return True if the edge survived in this world."""
        return v in self._adjacency.get(u, ())

    def edges(self) -> FrozenSet[Edge]:
        """Return the set of surviving edges."""
        return frozenset(self._edges)

    def vertices(self) -> Iterator[VertexId]:
        """Iterate over the vertices of the world."""
        return iter(self._adjacency)

    def neighbors(self, vertex: VertexId) -> Set[VertexId]:
        """Return the neighbours of ``vertex`` in this world."""
        try:
            return self._adjacency[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    @property
    def n_edges(self) -> int:
        """Number of surviving edges."""
        return len(self._edges)

    # ------------------------------------------------------------------
    def reachable_from(self, source: VertexId) -> Set[VertexId]:
        """Return all vertices connected to ``source`` (including itself)."""
        if source not in self._adjacency:
            raise VertexNotFoundError(source)
        seen = {source}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in self._adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return seen

    def is_reachable(self, source: VertexId, target: VertexId) -> bool:
        """Return True if a path connects ``source`` and ``target`` in this world."""
        if target not in self._adjacency:
            raise VertexNotFoundError(target)
        if source == target:
            return True
        return target in self.reachable_from(source)

    def flow_to(
        self,
        query: VertexId,
        weights: Dict[VertexId, float],
        include_query: bool = False,
    ) -> float:
        """Return the information flow to ``query`` in this deterministic world.

        This is ``flow(Q, g)`` of Lemma 1: the sum of weights of vertices
        reachable from the query vertex.
        """
        reached = self.reachable_from(query)
        if not include_query:
            reached = reached - {query}
        return float(sum(weights.get(v, 0.0) for v in reached))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PossibleWorld: {len(self._adjacency)} vertices, {len(self._edges)} edges>"


# ----------------------------------------------------------------------
# world construction helpers
# ----------------------------------------------------------------------
def sample_worlds(
    graph: UncertainGraph, n_samples: int, seed: SeedLike = None
) -> Iterator[PossibleWorld]:
    """Yield ``n_samples`` independent possible worlds drawn from ``graph``."""
    rng = ensure_rng(seed)
    edges = list(graph.probabilities().items())
    vertices = list(graph.vertices())
    for _ in range(n_samples):
        if edges:
            draws = rng.random(len(edges))
            surviving = [edge for (edge, p), r in zip(edges, draws) if r < p]
        else:
            surviving = []
        yield PossibleWorld(vertices, surviving)


def world_probability(graph: UncertainGraph, world: PossibleWorld) -> float:
    """Return the realization probability ``Pr(g)`` (Equation 1) of ``world``."""
    return graph.world_probability(world.edges())


def enumerate_worlds(
    graph: UncertainGraph,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> Iterator[Tuple[PossibleWorld, float]]:
    """Enumerate every possible world of ``graph`` with its probability.

    Certain edges (probability exactly one) are present in every world and
    do not multiply the enumeration space, exactly as in the paper's
    ``2^|E<1|`` count.

    Parameters
    ----------
    graph:
        The uncertain graph to enumerate.
    limit:
        Maximum number of *uncertain* edges; enumeration over more than
        ``2**limit`` worlds raises :class:`ExactEnumerationError`.

    Yields
    ------
    (world, probability) pairs whose probabilities sum to one.
    """
    uncertain = graph.uncertain_edges()
    certain = [e for e in graph.edges() if graph.probability(e) >= 1.0]
    if len(uncertain) > limit:
        raise ExactEnumerationError(len(uncertain), limit)
    vertices = list(graph.vertices())
    probabilities = [graph.probability(e) for e in uncertain]
    for mask in itertools.product((False, True), repeat=len(uncertain)):
        probability = 1.0
        surviving = list(certain)
        for edge, p, present in zip(uncertain, probabilities, mask):
            if present:
                probability *= p
                surviving.append(edge)
            else:
                probability *= 1.0 - p
        yield PossibleWorld(vertices, surviving, probability=probability), probability
