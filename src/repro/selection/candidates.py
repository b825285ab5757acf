"""Candidate-edge management for the greedy selectors.

The greedy algorithm of Section 6.1 maintains, at every iteration, the
set of edges that touch the component currently connected to ``Q`` but
have not been selected yet.  :class:`CandidateManager` maintains that
frontier incrementally as edges are selected, as parallel arrays with
one row per candidate in a fixed rank order, so a selector can score
every edge to a new vertex (Case II) of a round with one array
expression and walk only the edges that close a cycle one by one.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Optional, Set

import numpy as np

from repro.exceptions import VertexNotFoundError
from repro.graph.uncertain_graph import UncertainGraph
from repro.types import Edge, VertexId


class CandidateManager:
    """Incrementally maintained frontier of selectable edges.

    The frontier is kept sorted by ``(repr(edge.u), repr(edge.v))``, the
    order every selector walks it in; vertices with equal ``repr`` keep
    the graph's insertion order.  The sort key of a row comes from the
    ``rank`` of :meth:`~repro.graph.uncertain_graph.UncertainGraph.vertex_index`,
    and vertex ids are that index's ids.  Besides its edge and key, each
    row holds, read as arrays in row order:

    * :attr:`anchors` — the vertex id of a connected endpoint;
    * :attr:`new_vertices` — the vertex id of the other endpoint while it
      is not connected (a Case II edge), ``-1`` once it is (the edge
      closes a cycle);
    * :attr:`gains` — ``p(edge)·w(new vertex)`` of a Case II edge.

    Parameters
    ----------
    graph:
        The uncertain graph the selection operates on.
    query:
        The query vertex; initially only its incident edges are candidates.
    """

    def __init__(self, graph: UncertainGraph, query: VertexId) -> None:
        if not graph.has_vertex(query):
            raise VertexNotFoundError(query)
        self.graph = graph
        self.query = query
        self._index = graph.vertex_index()
        self._connected: Set[VertexId] = {query}
        self._selected: Set[Edge] = set()
        # the rows, as parallel lists in key order
        self._edges: List[Edge] = []
        self._keys: List[int] = []
        self._anchors: List[int] = []
        self._new: List[int] = []
        self._gains: List[float] = []
        #: the edges the last :meth:`mark_selected` added, in rank order
        self.added_edges: List[Edge] = []
        self._add_rows(query)

    # ------------------------------------------------------------------
    @property
    def connected_vertices(self) -> Set[VertexId]:
        """Vertices currently connected to the query vertex."""
        return set(self._connected)

    @property
    def selected_edges(self) -> Set[Edge]:
        """Edges selected so far."""
        return set(self._selected)

    @property
    def anchors(self) -> np.ndarray:
        """Vertex id of a connected endpoint of every row."""
        return np.array(self._anchors, dtype=np.int64)

    @property
    def new_vertices(self) -> np.ndarray:
        """Vertex id of the unconnected endpoint of every row, ``-1`` if none."""
        return np.array(self._new, dtype=np.int64)

    @property
    def gains(self) -> np.ndarray:
        """``p(edge)·w(new vertex)`` of every Case II row."""
        return np.array(self._gains, dtype=np.float64)

    def candidates(self) -> List[Edge]:
        """Return the current candidate edges, in rank order."""
        return list(self._edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.candidates())

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: Edge) -> bool:
        return self._position(edge) is not None

    def has_candidates(self) -> bool:
        """Return True if at least one edge can still be selected."""
        return bool(self._edges)

    # ------------------------------------------------------------------
    def _key(self, edge: Edge) -> Optional[int]:
        """The sort key of ``edge``, ``None`` if an endpoint is not in the graph."""
        ids, rank = self._index.ids, self._index.rank
        u, v = ids.get(edge.u), ids.get(edge.v)
        if u is None or v is None:
            return None
        return rank[u] * len(rank) + rank[v]

    def _position(self, edge: Edge) -> Optional[int]:
        """The row of ``edge``, ``None`` if it is not a candidate."""
        key = self._key(edge)
        if key is None:
            return None
        position = bisect_left(self._keys, key)
        if position < len(self._keys) and self._keys[position] == key:
            return position
        return None

    def _add_rows(self, vertex: VertexId) -> None:
        """Add the edges from the newly connected ``vertex`` to unconnected
        neighbours; turn the rows of its other edges into cycle rows."""
        ids = self._index.ids
        anchor = ids[vertex]
        added = []
        for neighbor in self.graph.neighbors(vertex):
            edge = Edge(vertex, neighbor)
            if neighbor in self._connected:
                # an edge into ``vertex`` that now closes a cycle (or was just selected)
                position = self._position(edge)
                if position is not None:
                    self._new[position] = -1
                continue
            key = self._key(edge)
            position = bisect_left(self._keys, key)
            self._keys.insert(position, key)
            self._edges.insert(position, edge)
            self._anchors.insert(position, anchor)
            self._new.insert(position, ids[neighbor])
            gain = self.graph.probability(edge) * self.graph.weight(neighbor)
            self._gains.insert(position, gain)
            added.append((key, edge))
        added.sort(key=lambda row: row[0])
        self.added_edges = [edge for _, edge in added]

    def mark_selected(self, edge: Edge) -> Set[VertexId]:
        """Record that ``edge`` was selected and update the frontier.

        Returns the set of vertices that became newly connected (empty if
        both endpoints were already connected).  The edges this adds to
        the frontier are in :attr:`added_edges`.
        """
        position = self._position(edge)
        if position is None:
            raise ValueError(f"{edge!r} is not a current candidate")
        new_vertex = self._new[position]
        for column in (self._edges, self._keys, self._anchors, self._new, self._gains):
            del column[position]
        self._selected.add(edge)
        self.added_edges = []
        if new_vertex < 0:
            return set()
        vertex = self._index.vertices[new_vertex]
        self._connected.add(vertex)
        self._add_rows(vertex)
        return {vertex}
