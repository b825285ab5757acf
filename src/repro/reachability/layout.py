"""Shared, digest-cached flat graph layouts for the sampling hot core.

Before this module every engine call re-interned the (restricted) edge
set of its graph into a fresh
:class:`~repro.reachability.backends.base.SamplingProblem` — a Python
loop over every edge, per call, even when the service answered hundreds
of queries against the same graph.  A :class:`GraphLayout` is that
interning paid **once** per distinct content and reused everywhere:

* contiguous ``edge_u`` / ``edge_v`` / ``probabilities`` arrays plus the
  ``vertex_ids`` tuple, exactly the payload of a sampling problem;
* a lazily-built CSR half-edge adjacency
  (:class:`~repro.reachability.backends.base.CSRAdjacency`), shared by
  the ``csr`` backend so no propagation call re-sorts its half-edges;
* :meth:`GraphLayout.problem` — an O(1) view materializing the
  API-compatible :class:`SamplingProblem` for a given source (and any
  extra vertices), sharing the layout's arrays instead of copying.

Layouts are cached in a :class:`LayoutCache`, one use of the shared
:class:`repro.lru.LRUCache`, keyed on exactly the content a layout is a
pure function of.  The unrestricted graph is keyed on its memoized
:meth:`~repro.graph.uncertain_graph.UncertainGraph.content_digest`; a
restriction is keyed on the **order-sensitive** digest of the ``(edge,
probability)`` pairs the layout is built from
(:func:`repro.digest.edge_probability_digest`).  A component layout on
the F-tree path therefore never hashes the whole graph, equal component
content shares one layout across graphs, and any mutation of the
content moves the key, so a stale layout can never be hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.digest import edge_probability_digest
from repro.lru import LRUCache
from repro.reachability.backends.base import (
    CSRAdjacency,
    SamplingProblem,
    build_csr_adjacency,
)
from repro.types import Edge, VertexId


@dataclass(frozen=True, eq=False)
class GraphLayout:
    """One graph (restriction) interned to flat arrays, built once and shared.

    Attributes
    ----------
    vertex_ids:
        Tuple mapping contiguous vertex indices back to original ids;
        endpoints are interned in edge first-appearance order.
    edge_u, edge_v:
        Parallel ``int64`` endpoint-index arrays, in restriction order
        (the order the random stream flips edges in).
    probabilities:
        Parallel ``float64`` edge existence probabilities.
    """

    vertex_ids: Tuple[VertexId, ...]
    edge_u: np.ndarray
    edge_v: np.ndarray
    probabilities: np.ndarray

    @property
    def n_vertices(self) -> int:
        """Number of interned vertices."""
        return len(self.vertex_ids)

    @property
    def n_edges(self) -> int:
        """Number of edges."""
        return len(self.probabilities)

    @property
    def _index(self) -> Dict[VertexId, int]:
        index = self.__dict__.get("_index_cache")
        if index is None:
            index = {vertex: i for i, vertex in enumerate(self.vertex_ids)}
            object.__setattr__(self, "_index_cache", index)
        return index

    def csr_adjacency(self) -> CSRAdjacency:
        """The CSR half-edge adjacency, built on first use and cached."""
        cached = self.__dict__.get("_csr_cache")
        if cached is None:
            cached = build_csr_adjacency(self.edge_u, self.edge_v, self.n_vertices)
            object.__setattr__(self, "_csr_cache", cached)
        return cached

    @classmethod
    def from_edges(
        cls, edge_probabilities: Sequence[Tuple[Edge, float]]
    ) -> "GraphLayout":
        """Intern an ordered ``(edge, probability)`` sequence once.

        Endpoints receive contiguous indices in first-appearance order —
        deterministic for a deterministic edge order, which keeps
        layout-built problems (and therefore sampled worlds) identical
        across processes for the same graph content.
        """
        index: Dict[VertexId, int] = {}
        ids: List[VertexId] = []

        def intern(vertex: VertexId) -> int:
            slot = index.get(vertex)
            if slot is None:
                slot = len(ids)
                index[vertex] = slot
                ids.append(vertex)
            return slot

        n_edges = len(edge_probabilities)
        edge_u = np.empty(n_edges, dtype=np.int64)
        edge_v = np.empty(n_edges, dtype=np.int64)
        probabilities = np.empty(n_edges, dtype=np.float64)
        for position, (edge, probability) in enumerate(edge_probabilities):
            edge_u[position] = intern(edge.u)
            edge_v[position] = intern(edge.v)
            probabilities[position] = probability
        layout = cls(
            vertex_ids=tuple(ids),
            edge_u=edge_u,
            edge_v=edge_v,
            probabilities=probabilities,
        )
        object.__setattr__(layout, "_index_cache", index)
        return layout

    def problem(
        self, source: VertexId, extra_vertices: Iterable[VertexId] = ()
    ) -> SamplingProblem:
        """Materialize the sampling-problem view for ``source``.

        When the source and every extra vertex are already interned this
        is O(1): the problem shares the layout's arrays, vertex tuple and
        index dict.  Otherwise the missing vertices are appended (source
        first, then extras in order) onto a copied vertex index — the
        edge arrays are still shared, appended vertices are isolated by
        construction.
        """
        index = self._index
        extras = [v for v in extra_vertices]
        if source in index and all(v in index for v in extras):
            problem = SamplingProblem(
                vertex_ids=self.vertex_ids,
                edge_u=self.edge_u,
                edge_v=self.edge_v,
                probabilities=self.probabilities,
                source=index[source],
                layout=self,
            )
            object.__setattr__(problem, "_index_cache", index)
            return problem
        ids = list(self.vertex_ids)
        extended = dict(index)

        def intern(vertex: VertexId) -> int:
            slot = extended.get(vertex)
            if slot is None:
                slot = len(ids)
                extended[vertex] = slot
                ids.append(vertex)
            return slot

        source_index = intern(source)
        for vertex in extras:
            intern(vertex)
        problem = SamplingProblem(
            vertex_ids=tuple(ids),
            edge_u=self.edge_u,
            edge_v=self.edge_v,
            probabilities=self.probabilities,
            source=source_index,
            layout=self,
        )
        object.__setattr__(problem, "_index_cache", extended)
        return problem


class LayoutCache(LRUCache[int, GraphLayout]):
    """Bounded, thread-safe LRU cache of graph layouts (``cache.layout``).

    Layouts are tiny next to world batches — a few arrays of ``O(E)`` —
    so the default bound is generous relative to how many distinct
    graphs and restrictions a process works with.
    """

    def __init__(self, max_entries: Optional[int] = 128) -> None:
        super().__init__(max_entries, prefix="cache.layout")


#: The process-wide layout cache every ``cache=None`` call resolves to.
_DEFAULT_LAYOUT_CACHE = LayoutCache()


def get_default_layout_cache() -> LayoutCache:
    """Return the shared process-wide :class:`LayoutCache`."""
    return _DEFAULT_LAYOUT_CACHE


def graph_layout(
    graph,
    edges: Optional[Iterable[Edge]] = None,
    cache: Optional[LayoutCache] = None,
) -> GraphLayout:
    """Get-or-build the shared layout of a graph (restriction).

    The one construction entry point: ``SamplingEngine``, the evaluation
    context and the service layer all route problem construction through
    here, so the interning cost is paid once per distinct content
    instead of per call.  ``edges=None`` means the unrestricted graph
    (edges in insertion order, the order the stream flips them in),
    keyed on the graph's memoized content digest.  A restriction is
    keyed on its ordered ``(edge, probability)`` pairs alone — the
    layout is a pure function of that sequence — so restricting to a
    small component never hashes the whole graph.
    """
    cache = cache if cache is not None else _DEFAULT_LAYOUT_CACHE
    if edges is None:
        pairs = None
        key = graph.content_digest()
    else:
        pairs = [(edge, graph.probability(edge)) for edge in edges]
        key = edge_probability_digest(pairs)
    layout = cache.get(key)
    if layout is None:
        if pairs is None:
            pairs = list(graph.probabilities().items())
        layout = GraphLayout.from_edges(pairs)
        cache.put(key, layout)
    return layout


__all__ = [
    "GraphLayout",
    "LayoutCache",
    "get_default_layout_cache",
    "graph_layout",
]
