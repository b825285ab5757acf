"""The probabilistic (uncertain) graph model.

An :class:`UncertainGraph` is the tuple ``G = (V, E, W, P)`` of the paper
(Section 3, Definition of the probabilistic graph model):

* ``V`` — a set of vertices, each carrying a non-negative information
  weight ``W(v)``;
* ``E`` — a set of undirected edges, each existing *independently* with
  probability ``P(e) ∈ (0, 1]``.

The class is a plain adjacency-map graph with probability and weight
attributes; all heavy algorithms live in :mod:`repro.algorithms`,
:mod:`repro.reachability` and :mod:`repro.ftree`.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, Iterator, Mapping, NamedTuple, Optional, Set, Tuple

from repro.exceptions import (
    DuplicateEdgeError,
    DuplicateVertexError,
    EdgeNotFoundError,
    InvalidProbabilityError,
    InvalidWeightError,
    SelfLoopError,
    VertexNotFoundError,
)
from repro.digest import graph_digest
from repro.types import Edge, EdgePair, VertexId, as_edge


class VertexIndex(NamedTuple):
    """Contiguous integer ids for a graph's vertices, and their ``repr`` order."""

    #: id -> vertex, in insertion order
    vertices: Tuple[VertexId, ...]
    #: vertex -> id
    ids: Dict[VertexId, int]
    #: id -> position of the vertex when all vertices are sorted by
    #: ``repr``; vertices with equal ``repr`` keep their insertion order
    rank: "array[int]"


class UncertainGraph:
    """An undirected probabilistic graph with vertex weights.

    Parameters
    ----------
    name:
        Optional human-readable name, carried through generators and
        datasets and used by the experiment reporting code.

    Notes
    -----
    Vertices may be any hashable objects.  Edges are undirected and are
    normalised through :class:`repro.types.Edge`; parallel edges and
    self-loops are rejected because neither contributes to reachability
    probabilities under possible-world semantics.
    """

    __slots__ = ("name", "_adjacency", "_weights", "_probabilities", "_digest", "_vertex_index")

    def __init__(self, name: str = "") -> None:
        self.name = name
        #: vertex -> {neighbor vertex, ...}
        self._adjacency: Dict[VertexId, Set[VertexId]] = {}
        #: vertex -> information weight
        self._weights: Dict[VertexId, float] = {}
        #: Edge -> existence probability
        self._probabilities: Dict[Edge, float] = {}
        #: memoized content digest; every mutator resets it to None
        self._digest: Optional[int] = None
        #: memoized vertex index; reset whenever the vertex set changes
        self._vertex_index: Optional[VertexIndex] = None

    def content_digest(self) -> int:
        """Stable 128-bit digest of the graph content (memoized).

        Identical to :func:`repro.digest.graph_digest` but computed at
        most once between mutations: every mutator drops the memo, so
        the digest-keyed caches (world batches, graph layouts, query
        plans) can key on graph content without paying an ``O(V + E)``
        hash per call.  ``__slots__`` guarantees content can only change
        through the mutator methods, which keeps the memo honest.
        """
        if self._digest is None:
            self._digest = graph_digest(self)
        return self._digest

    def vertex_index(self) -> VertexIndex:
        """Integer vertex ids and the vertices' ``repr`` order (memoized).

        Built at most once between changes to the vertex set, so
        array-based code (the greedy selectors' candidate frontier, the
        F-tree's reach arrays) can key on small integers without
        re-interning the graph per call.
        """
        if self._vertex_index is None:
            vertices = tuple(self._adjacency)
            reprs = [repr(vertex) for vertex in vertices]
            by_repr = sorted(range(len(vertices)), key=reprs.__getitem__)
            rank = array("q", bytes(8 * len(vertices)))
            for position, vertex_id in enumerate(by_repr):
                rank[vertex_id] = position
            self._vertex_index = VertexIndex(
                vertices=vertices,
                ids={vertex: i for i, vertex in enumerate(vertices)},
                rank=rank,
            )
        return self._vertex_index

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[VertexId, VertexId, float]],
        weights: Optional[Mapping[VertexId, float]] = None,
        default_weight: float = 1.0,
        name: str = "",
    ) -> "UncertainGraph":
        """Build a graph from ``(u, v, probability)`` triples.

        Vertices mentioned by any edge are created implicitly with
        ``default_weight`` unless ``weights`` provides an explicit value.
        ``weights`` may also mention isolated vertices that appear in no
        edge.
        """
        graph = cls(name=name)
        weights = dict(weights or {})
        for u, v, probability in edges:
            for vertex in (u, v):
                if not graph.has_vertex(vertex):
                    graph.add_vertex(vertex, weight=weights.get(vertex, default_weight))
            graph.add_edge(u, v, probability)
        for vertex, weight in weights.items():
            if not graph.has_vertex(vertex):
                graph.add_vertex(vertex, weight=weight)
        return graph

    def copy(self, name: Optional[str] = None) -> "UncertainGraph":
        """Return a deep copy of the graph (vertex identities are shared)."""
        clone = UncertainGraph(name=self.name if name is None else name)
        clone._adjacency = {v: set(nbrs) for v, nbrs in self._adjacency.items()}
        clone._weights = dict(self._weights)
        clone._probabilities = dict(self._probabilities)
        # identical content ⇒ identical digest and index; share the memos if computed
        clone._digest = self._digest
        clone._vertex_index = self._vertex_index
        return clone

    # ------------------------------------------------------------------
    # vertices
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: VertexId, weight: float = 1.0) -> None:
        """Add a vertex with the given information weight.

        Raises
        ------
        DuplicateVertexError
            If the vertex already exists.
        InvalidWeightError
            If the weight is negative, NaN or infinite.
        """
        if vertex in self._adjacency:
            raise DuplicateVertexError(vertex)
        _check_weight(weight)
        self._adjacency[vertex] = set()
        self._weights[vertex] = float(weight)
        self._digest = None
        self._vertex_index = None

    def remove_vertex(self, vertex: VertexId) -> None:
        """Remove a vertex and every edge incident to it."""
        if vertex not in self._adjacency:
            raise VertexNotFoundError(vertex)
        for neighbor in list(self._adjacency[vertex]):
            self.remove_edge(vertex, neighbor)
        del self._adjacency[vertex]
        del self._weights[vertex]
        self._digest = None
        self._vertex_index = None

    def has_vertex(self, vertex: VertexId) -> bool:
        """Return True if the vertex exists in the graph."""
        return vertex in self._adjacency

    def vertices(self) -> Iterator[VertexId]:
        """Iterate over all vertices (insertion order)."""
        return iter(self._adjacency)

    def weight(self, vertex: VertexId) -> float:
        """Return the information weight ``W(vertex)``."""
        try:
            return self._weights[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def set_weight(self, vertex: VertexId, weight: float) -> None:
        """Update the information weight of an existing vertex."""
        if vertex not in self._weights:
            raise VertexNotFoundError(vertex)
        _check_weight(weight)
        self._weights[vertex] = float(weight)
        self._digest = None

    def weights(self) -> Dict[VertexId, float]:
        """Return a copy of the vertex-weight mapping."""
        return dict(self._weights)

    def total_weight(self, exclude: Iterable[VertexId] = ()) -> float:
        """Return the sum of all vertex weights, optionally excluding some vertices."""
        excluded = set(exclude)
        return float(
            sum(w for v, w in self._weights.items() if v not in excluded)
        )

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def add_edge(
        self,
        u: VertexId,
        v: VertexId,
        probability: float,
        create_vertices: bool = False,
        default_weight: float = 1.0,
    ) -> Edge:
        """Add an undirected edge that exists with ``probability``.

        Parameters
        ----------
        u, v:
            Edge endpoints.  Must already exist unless ``create_vertices``
            is True.
        probability:
            Existence probability in ``(0, 1]`` (paper Section 3).
        create_vertices:
            When True, missing endpoints are created with ``default_weight``.

        Returns
        -------
        Edge
            The canonical edge object that was stored.
        """
        if u == v:
            raise SelfLoopError(u)
        _check_probability(probability)
        for vertex in (u, v):
            if vertex not in self._adjacency:
                if create_vertices:
                    self.add_vertex(vertex, weight=default_weight)
                else:
                    raise VertexNotFoundError(vertex)
        edge = Edge(u, v)
        if edge in self._probabilities:
            raise DuplicateEdgeError(u, v)
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._probabilities[edge] = float(probability)
        self._digest = None
        return edge

    def remove_edge(self, u: VertexId, v: VertexId) -> None:
        """Remove the edge between ``u`` and ``v``."""
        edge = Edge(u, v)
        if edge not in self._probabilities:
            raise EdgeNotFoundError(u, v)
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        del self._probabilities[edge]
        self._digest = None

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """Return True if an edge between ``u`` and ``v`` exists."""
        if u == v:
            return False
        try:
            return Edge(u, v) in self._probabilities
        except ValueError:
            return False

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges (insertion order)."""
        return iter(self._probabilities)

    def edge_list(self) -> list[Edge]:
        """Return all edges as a list."""
        return list(self._probabilities)

    def probability(self, u: "VertexId | Edge", v: Optional[VertexId] = None) -> float:
        """Return the existence probability of an edge.

        Accepts either ``probability(edge)`` or ``probability(u, v)``.
        """
        edge = u if isinstance(u, Edge) and v is None else Edge(u, v)  # type: ignore[arg-type]
        try:
            return self._probabilities[edge]
        except KeyError:
            raise EdgeNotFoundError(edge.u, edge.v) from None

    def set_probability(self, u: VertexId, v: VertexId, probability: float) -> None:
        """Update the existence probability of an existing edge."""
        edge = Edge(u, v)
        if edge not in self._probabilities:
            raise EdgeNotFoundError(u, v)
        _check_probability(probability)
        self._probabilities[edge] = float(probability)
        self._digest = None

    def probabilities(self) -> Dict[Edge, float]:
        """Return a copy of the edge-probability mapping."""
        return dict(self._probabilities)

    def uncertain_edges(self) -> list[Edge]:
        """Return edges with probability strictly below one.

        These are the only edges that enlarge the possible-world space
        (the paper counts ``2^|E<1|`` possible worlds).
        """
        return [e for e, p in self._probabilities.items() if p < 1.0]

    # ------------------------------------------------------------------
    # neighbourhood queries
    # ------------------------------------------------------------------
    def neighbors(self, vertex: VertexId) -> Iterator[VertexId]:
        """Iterate over the neighbours of ``vertex``."""
        try:
            return iter(self._adjacency[vertex])
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def degree(self, vertex: VertexId) -> int:
        """Return the number of edges incident to ``vertex``."""
        try:
            return len(self._adjacency[vertex])
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def incident_edges(self, vertex: VertexId) -> Iterator[Edge]:
        """Iterate over the edges incident to ``vertex``."""
        if vertex not in self._adjacency:
            raise VertexNotFoundError(vertex)
        for neighbor in self._adjacency[vertex]:
            yield Edge(vertex, neighbor)

    def average_degree(self) -> float:
        """Return the average vertex degree (0.0 for the empty graph)."""
        if not self._adjacency:
            return 0.0
        return 2.0 * len(self._probabilities) / len(self._adjacency)

    # ------------------------------------------------------------------
    # subgraphs
    # ------------------------------------------------------------------
    def edge_subgraph(
        self,
        edges: Iterable["Edge | EdgePair"],
        keep_all_vertices: bool = True,
        name: str = "",
    ) -> "UncertainGraph":
        """Return the subgraph containing only the given edges.

        Parameters
        ----------
        edges:
            Edges to retain; every edge must exist in this graph.
        keep_all_vertices:
            When True (the default, matching ``MaxFlow``'s definition of a
            subgraph ``G' = (V, E' ⊆ E, W, P)``) every vertex of the
            original graph is kept even if isolated; when False only the
            endpoints of the retained edges are kept.
        """
        subgraph = UncertainGraph(name=name or self.name)
        selected = [as_edge(e) for e in edges]
        for edge in selected:
            if edge not in self._probabilities:
                raise EdgeNotFoundError(edge.u, edge.v)
        if keep_all_vertices:
            for vertex in self._adjacency:
                subgraph.add_vertex(vertex, weight=self._weights[vertex])
        else:
            for edge in selected:
                for vertex in edge:
                    if not subgraph.has_vertex(vertex):
                        subgraph.add_vertex(vertex, weight=self._weights[vertex])
        for edge in selected:
            if not subgraph.has_edge(edge.u, edge.v):
                subgraph.add_edge(edge.u, edge.v, self._probabilities[edge])
        return subgraph

    def vertex_subgraph(self, vertices: Iterable[VertexId], name: str = "") -> "UncertainGraph":
        """Return the subgraph induced by ``vertices`` (all edges among them)."""
        keep = set(vertices)
        for vertex in keep:
            if vertex not in self._adjacency:
                raise VertexNotFoundError(vertex)
        subgraph = UncertainGraph(name=name or self.name)
        for vertex in keep:
            subgraph.add_vertex(vertex, weight=self._weights[vertex])
        for edge, probability in self._probabilities.items():
            if edge.u in keep and edge.v in keep:
                subgraph.add_edge(edge.u, edge.v, probability)
        return subgraph

    # ------------------------------------------------------------------
    # possible-world probabilities
    # ------------------------------------------------------------------
    def log_world_probability(self, surviving_edges: Iterable["Edge | EdgePair"]) -> float:
        """Return the log-probability of the possible world with exactly these edges.

        Missing edges contribute ``log(1 - p)``; a world that omits a
        certain edge (``p == 1``) has probability zero, i.e. ``-inf``.
        """
        surviving = {as_edge(e) for e in surviving_edges}
        for edge in surviving:
            if edge not in self._probabilities:
                raise EdgeNotFoundError(edge.u, edge.v)
        log_probability = 0.0
        for edge, p in self._probabilities.items():
            if edge in surviving:
                log_probability += math.log(p)
            else:
                if p >= 1.0:
                    return float("-inf")
                log_probability += math.log1p(-p)
        return log_probability

    def world_probability(self, surviving_edges: Iterable["Edge | EdgePair"]) -> float:
        """Return ``Pr(g)`` of the possible world with exactly these edges (Equation 1)."""
        log_probability = self.log_world_probability(surviving_edges)
        if log_probability == float("-inf"):
            return 0.0
        return math.exp(log_probability)

    # ------------------------------------------------------------------
    # dunder methods
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return len(self._adjacency)

    @property
    def n_edges(self) -> int:
        """Number of edges."""
        return len(self._probabilities)

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self._adjacency

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UncertainGraph):
            return NotImplemented
        return (
            self._weights == other._weights
            and self._probabilities == other._probabilities
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<UncertainGraph{label}: {self.n_vertices} vertices, "
            f"{self.n_edges} edges>"
        )


def _check_probability(probability: float) -> None:
    """Validate an edge probability (must lie in (0, 1])."""
    if not isinstance(probability, (int, float)) or isinstance(probability, bool):
        raise InvalidProbabilityError(probability)
    if math.isnan(probability) or probability <= 0.0 or probability > 1.0:
        raise InvalidProbabilityError(probability)


def _check_weight(weight: float) -> None:
    """Validate a vertex weight (must be finite and non-negative)."""
    if not isinstance(weight, (int, float)) or isinstance(weight, bool):
        raise InvalidWeightError(weight)
    if math.isnan(weight) or math.isinf(weight) or weight < 0.0:
        raise InvalidWeightError(weight)
