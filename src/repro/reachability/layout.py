"""Shared, digest-cached flat graph layouts for the sampling hot core.

Before this module every engine call re-interned the (restricted) edge
set of its graph into a fresh
:class:`~repro.reachability.backends.base.SamplingProblem` — a Python
loop over every edge, per call, even when the service answered hundreds
of queries against the same graph.  A :class:`GraphLayout` is that
interning paid **once** per ``(graph content, ordered edge restriction)``
pair and reused everywhere:

* contiguous ``edge_u`` / ``edge_v`` / ``probabilities`` arrays plus the
  ``vertex_ids`` tuple, exactly the payload of a sampling problem;
* a lazily-built CSR half-edge adjacency
  (:class:`~repro.reachability.backends.base.CSRAdjacency`), shared by
  the ``csr`` backend so no propagation call re-sorts its half-edges;
* :meth:`GraphLayout.problem` — an O(1) view materializing the
  API-compatible :class:`SamplingProblem` for a given source (and any
  extra vertices), sharing the layout's arrays instead of copying.

Layouts are cached in a :class:`LayoutCache`, a small digest-keyed LRU
mirroring :class:`repro.service.cache.WorldCache`: the key combines the
graph **content** digest (memoized on
:meth:`~repro.graph.uncertain_graph.UncertainGraph.content_digest`) with
the **order-sensitive** digest of the edge restriction, so any graph
mutation moves the key and stale layouts can never be hit.
:meth:`WorldCache.invalidate_graph` calls
:func:`invalidate_graph_layouts` so both caches are reclaimed from the
same mutation path.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.digest import combine_digests, edge_sequence_digest, graph_digest
from repro.reachability.backends.base import (
    CSRAdjacency,
    SamplingProblem,
    build_csr_adjacency,
)
from repro.telemetry import current_telemetry
from repro.types import Edge, VertexId

logger = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class LayoutKey:
    """Everything a cached layout is a pure function of.

    ``graph_digest`` covers the full graph content (so any mutation
    moves the key); ``edges_digest`` is the **order-sensitive** digest of
    the edge restriction, ``None`` for the unrestricted graph — the
    same distinction :class:`~repro.service.cache.WorldKey` draws,
    because edge order is the flip order of the random stream.
    """

    graph_digest: int
    edges_digest: Optional[int]

    @property
    def digest(self) -> int:
        """Stable 128-bit digest of the full key."""
        return combine_digests("layout", self.graph_digest, self.edges_digest)


class LayoutCache:
    """Bounded LRU cache of graph layouts with hit/miss/eviction stats.

    A structural sibling of :class:`repro.service.cache.WorldCache`
    (same locking, same ``_by_graph`` secondary index for eager
    invalidation) holding interned layouts instead of sampled worlds.
    Layouts are tiny next to world batches — a few arrays of ``O(E)`` —
    so the default bound is generous relative to how many distinct
    ``(graph, restriction)`` pairs a process works with.
    """

    def __init__(self, max_entries: Optional[int] = 128) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive or None, got {max_entries!r}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[int, tuple[LayoutKey, GraphLayout]]" = OrderedDict()
        self._by_graph: Dict[int, Set[int]] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LayoutCache entries={len(self._entries)}"
            f"/{self.max_entries} hits={self.hits} misses={self.misses}>"
        )

    #: registry namespace the stats are re-emitted under (the world cache
    #: uses ``cache.world`` — see :mod:`repro.service.cache`)
    _metric_prefix = "cache.layout"

    # ------------------------------------------------------------------
    def get(self, key: LayoutKey) -> Optional[GraphLayout]:
        """Return the cached layout for ``key`` (counting a hit or miss)."""
        with self._lock:
            entry = self._entries.get(key.digest)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key.digest)
        tel = current_telemetry()
        if tel.enabled:
            tel.count(f"{self._metric_prefix}.{'misses' if entry is None else 'hits'}")
        return None if entry is None else entry[1]

    def put(self, key: LayoutKey, layout: GraphLayout) -> None:
        """Store ``layout`` under ``key``, evicting the LRU entry if needed."""
        digest = key.digest
        evicted = False
        with self._lock:
            self._entries[digest] = (key, layout)
            self._entries.move_to_end(digest)
            self._by_graph.setdefault(key.graph_digest, set()).add(digest)
            if self.max_entries is not None and len(self._entries) > self.max_entries:
                evicted_digest, (evicted_key, _) = self._entries.popitem(last=False)
                self._drop_graph_index(evicted_key.graph_digest, evicted_digest)
                self.evictions += 1
                evicted = True
            entries = len(self._entries)
        tel = current_telemetry()
        if tel.enabled:
            tel.count(f"{self._metric_prefix}.puts")
            if evicted:
                tel.count(f"{self._metric_prefix}.evictions")
            tel.gauge(f"{self._metric_prefix}.entries", entries)

    def _drop_graph_index(self, graph_key: int, digest: int) -> None:
        members = self._by_graph.get(graph_key)
        if members is not None:
            members.discard(digest)
            if not members:
                del self._by_graph[graph_key]

    # ------------------------------------------------------------------
    def invalidate_graph(self, graph_or_digest: Union[int, object]) -> int:
        """Drop every layout interned from the given graph content.

        Accepts a graph (its current content digest is computed) or a
        digest previously obtained from :func:`repro.digest.graph_digest`
        — useful to reclaim entries for the *pre-mutation* content.
        Returns the number of dropped entries.
        """
        digest = _resolve_graph_digest(graph_or_digest)
        with self._lock:
            members = self._by_graph.pop(digest, set())
            for entry_digest in members:
                self._entries.pop(entry_digest, None)
            self.invalidations += len(members)
            dropped = len(members)
        if dropped:
            logger.warning(
                "invalidated %d interned graph layout(s) for graph digest %d",
                dropped,
                digest,
            )
            tel = current_telemetry()
            if tel.enabled:
                tel.count(f"{self._metric_prefix}.invalidations", dropped)
        return dropped

    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        with self._lock:
            self._entries.clear()
            self._by_graph.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.invalidations = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: LayoutKey) -> bool:
        with self._lock:
            return key.digest in self._entries

    def keys(self) -> "list[LayoutKey]":
        """Cached keys, least recently used first (for tests/diagnostics)."""
        with self._lock:
            return [key for key, _ in self._entries.values()]

    def stats(self) -> Dict[str, float]:
        """Hit/miss/eviction statistics for reporting (one consistent view)."""
        with self._lock:
            hits, misses = self.hits, self.misses
            total = hits + misses
            return {
                "entries": float(len(self._entries)),
                "hits": float(hits),
                "misses": float(misses),
                "evictions": float(self.evictions),
                "invalidations": float(self.invalidations),
                "hit_rate": hits / total if total else 0.0,
            }


def _resolve_graph_digest(graph_or_digest: Union[int, object]) -> int:
    """Content digest of a graph, preferring the memoized accessor."""
    if isinstance(graph_or_digest, int):
        return graph_or_digest
    content_digest = getattr(graph_or_digest, "content_digest", None)
    if callable(content_digest):
        return content_digest()
    return graph_digest(graph_or_digest)


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
    here, so the interning cost is paid once per distinct
    ``(graph content, ordered edge restriction)`` instead of per call.
    ``edges=None`` means the unrestricted graph (edges in insertion
    order, the order the stream flips them in).
    """
    if edges is not None:
        edges = list(edges)
    cache = cache if cache is not None else _DEFAULT_LAYOUT_CACHE
    key = LayoutKey(
        graph_digest=_resolve_graph_digest(graph),
        edges_digest=edge_sequence_digest(edges),
    )
    layout = cache.get(key)
    if layout is None:
        if edges is None:
            pairs = list(graph.probabilities().items())
        else:
            pairs = [(edge, graph.probability(edge)) for edge in edges]
        layout = GraphLayout.from_edges(pairs)
        cache.put(key, layout)
    return layout


def invalidate_graph_layouts(graph_or_digest: Union[int, object]) -> int:
    """Drop the default cache's layouts for one graph content; return the count."""
    return _DEFAULT_LAYOUT_CACHE.invalidate_graph(graph_or_digest)


__all__ = [
    "GraphLayout",
    "LayoutCache",
    "LayoutKey",
    "get_default_layout_cache",
    "graph_layout",
    "invalidate_graph_layouts",
]
