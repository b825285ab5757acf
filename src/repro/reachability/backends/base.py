"""The backend contract of the possible-world sampling engine.

A *backend* answers one question as fast as it can: given an indexed
sampling problem (contiguous integer vertex ids, parallel edge arrays)
and a random stream, which vertices are connected to the source vertex
in each of ``n_samples`` independently drawn possible worlds?

Everything else — restricting to a candidate edge set, translating
vertex ids, aggregating worlds into flow / reachability estimates — is
shared code in :mod:`repro.reachability.engine`, so two backends that
consume the random stream in the same order produce *bit-for-bit*
identical estimates for the same seed.

The stream contract every backend must honour: exactly
``n_samples * n_edges`` uniform doubles are consumed, in world-major
order (all edge flips of world 0, then world 1, …).  An edge survives in
a world iff its uniform draw is strictly below its probability.

Since the common-random-numbers refactor the contract is factored into
two primitives rather than one monolithic call:

* :func:`sample_flips` — the *one* implementation of the stream
  contract.  It draws the ``(n_samples, n_edges)`` boolean edge-survival
  matrix in world-major blocks through one reused draw buffer, so every
  backend (and the evaluation context, which shares one flip matrix
  across a whole round of candidates) sees identical worlds for the
  same seed by construction.
* :meth:`SamplingBackend.propagate_reachability` — deterministic closure
  of a flip matrix: given the survival matrix and the indices of the
  *active* edges, compute which vertices each world connects to the
  source.  Passing ``base_reached`` starts the propagation from an
  already-computed closure, which is how candidate edges are scored
  incrementally instead of re-propagating the whole subgraph.

``sample_reachability`` remains the one-call entry point and is defined
as ``propagate_reachability(problem, sample_flips(...), all edges)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.types import Edge, VertexId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (layout imports base)
    from repro.reachability.layout import GraphLayout

#: Ceiling on uniform doubles drawn per block by :func:`sample_flips`:
#: the size of its one reused float64 draw buffer (2**17 doubles, 1 MB,
#: about an L2 cache).  Each block of whole worlds is drawn into the
#: buffer and compared into the bool flip matrix in place, so a draw
#: never materializes ``n_samples x n_edges`` float64.  Drawing in
#: world-major blocks consumes the identical random stream, so the block
#: size does not change a single bit.
MAX_FLIP_BLOCK_ELEMENTS = 1 << 17

#: Ceiling on the bool flip matrix of one propagation chunk of
#: :func:`chunked_sample_reachability` (2**25 entries, 32 MB), so a huge
#: sample count never holds all its flips at once.  A 1024-world shard
#: at |E| = 6000 (6 MB of flips) is drawn and propagated in one pass.
MAX_FLIP_CHUNK_BYTES = 1 << 25


@dataclass(frozen=True, eq=False)
class CSRAdjacency:
    """Flat CSR adjacency over the half-edges of an indexed edge set.

    For vertex ``v``, the half-edges incident to it occupy the slice
    ``[indptr[v], indptr[v + 1])`` of the parallel ``neighbors`` /
    ``edge_ids`` arrays: ``neighbors`` holds the vertex at the far end
    and ``edge_ids`` the index of the connecting edge in the problem's
    edge arrays.  Edges are undirected, so every edge appears twice —
    once per endpoint — and the structure doubles as the head-grouped
    half-edge layout the csr backend's pull sweeps run over.
    """

    indptr: np.ndarray
    neighbors: np.ndarray
    edge_ids: np.ndarray

    @property
    def n_vertices(self) -> int:
        """Number of vertices the adjacency covers."""
        return len(self.indptr) - 1

    def pull_groups(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(vertices, offsets)`` of every non-empty CSR row, cached.

        The dense-sweep structure of the csr backend: a full pull sweep
        OR-reduces the half-edge array grouped at ``offsets`` into
        ``vertices``.  Restricting to non-empty rows keeps the reduceat
        offsets strictly increasing (an empty group would wrongly pick
        up its successor's first element).
        """
        cached = self.__dict__.get("_pull_cache")
        if cached is None:
            vertices = np.flatnonzero(np.diff(self.indptr) > 0)
            cached = (vertices, self.indptr[vertices])
            object.__setattr__(self, "_pull_cache", cached)
        return cached


def build_csr_adjacency(
    edge_u: np.ndarray, edge_v: np.ndarray, n_vertices: int
) -> CSRAdjacency:
    """Build the CSR half-edge adjacency of an indexed undirected edge set.

    One stable sort of the ``2 * n_edges`` half-edges by their incident
    vertex, paid once per layout and shared through
    :class:`~repro.reachability.layout.GraphLayout` instead of on every
    propagation.
    """
    n_edges = len(edge_u)
    incident = np.concatenate([edge_v, edge_u])
    far_end = np.concatenate([edge_u, edge_v])
    edge_ids = np.concatenate([np.arange(n_edges), np.arange(n_edges)])
    order = np.argsort(incident, kind="stable")
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(incident, minlength=n_vertices))
    return CSRAdjacency(
        indptr=indptr,
        neighbors=far_end[order].astype(np.int64, copy=False),
        edge_ids=edge_ids[order].astype(np.int64, copy=False),
    )


@dataclass(frozen=True, eq=False)
class SamplingProblem:
    """An uncertain subgraph re-indexed for array-based world sampling.

    Attributes
    ----------
    vertex_ids:
        Tuple mapping the contiguous index of a vertex back to its
        original (hashable) id; ``vertex_ids[source]`` is the source.
    edge_u, edge_v:
        Parallel integer arrays with the endpoint indices of every edge.
    probabilities:
        Parallel float array with the edge existence probabilities.
    source:
        Index of the vertex reachability is measured from.
    layout:
        The shared :class:`~repro.reachability.layout.GraphLayout` this
        problem is a view over, or ``None`` for standalone problems
        built directly through :meth:`from_edges`.  Backends use it to
        reuse the layout's precomputed CSR adjacency instead of
        rebuilding per call.
    """

    vertex_ids: Tuple[VertexId, ...]
    edge_u: np.ndarray
    edge_v: np.ndarray
    probabilities: np.ndarray
    source: int
    layout: Optional["GraphLayout"] = field(default=None, repr=False)

    def csr_adjacency(self) -> CSRAdjacency:
        """The CSR half-edge adjacency over this problem's full edge set.

        Served from the shared layout when the problem is a layout view
        (extending the index pointer for appended extra vertices, which
        by construction have no incident edges), built once and cached
        on the problem otherwise.
        """
        cached = self.__dict__.get("_csr_cache")
        if cached is None:
            if self.layout is not None:
                cached = self.layout.csr_adjacency()
                if cached.n_vertices < self.n_vertices:
                    indptr = np.concatenate(
                        [
                            cached.indptr,
                            np.full(
                                self.n_vertices - cached.n_vertices,
                                cached.indptr[-1],
                                dtype=np.int64,
                            ),
                        ]
                    )
                    cached = CSRAdjacency(
                        indptr=indptr,
                        neighbors=cached.neighbors,
                        edge_ids=cached.edge_ids,
                    )
            else:
                cached = build_csr_adjacency(self.edge_u, self.edge_v, self.n_vertices)
            object.__setattr__(self, "_csr_cache", cached)
        return cached

    @property
    def n_vertices(self) -> int:
        """Number of indexed vertices."""
        return len(self.vertex_ids)

    @property
    def n_edges(self) -> int:
        """Number of edges."""
        return len(self.probabilities)

    def index_of(self, vertex: VertexId) -> int:
        """Return the contiguous index of an original vertex id."""
        try:
            return self._index[vertex]
        except KeyError:
            raise KeyError(f"vertex {vertex!r} is not part of this sampling problem") from None

    @property
    def _index(self) -> Dict[VertexId, int]:
        index = self.__dict__.get("_index_cache")
        if index is None:
            index = {vertex: i for i, vertex in enumerate(self.vertex_ids)}
            object.__setattr__(self, "_index_cache", index)
        return index

    @classmethod
    def from_edges(
        cls,
        edge_probabilities: Sequence[Tuple[Edge, float]],
        source: VertexId,
        extra_vertices: Iterable[VertexId] = (),
    ) -> "SamplingProblem":
        """Index the source, every edge endpoint and any extra vertices.

        The source always receives index 0; the remaining vertices are
        indexed in first-appearance order, which keeps the mapping
        deterministic for a deterministic edge order.
        """
        index: Dict[VertexId, int] = {source: 0}
        ids: List[VertexId] = [source]

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
        for vertex in extra_vertices:
            intern(vertex)
        return cls(
            vertex_ids=tuple(ids),
            edge_u=edge_u,
            edge_v=edge_v,
            probabilities=probabilities,
            source=0,
        )


def sample_flips(
    problem: SamplingProblem,
    n_samples: int,
    rng: np.random.Generator,
    max_block_elements: int = MAX_FLIP_BLOCK_ELEMENTS,
) -> np.ndarray:
    """Draw the boolean ``(n_samples, n_edges)`` edge-survival matrix.

    This is the single implementation of the random-stream contract:
    ``n_samples * n_edges`` uniform doubles consumed in world-major
    order, an edge surviving iff its draw is strictly below its
    probability.  Whole worlds are drawn in blocks of at most
    ``max_block_elements`` doubles (at least one world) into one float64
    buffer that every block reuses, and each block is compared straight
    into its rows of the flip matrix.  Block boundaries do not change the
    stream, so the matrix is identical for any block size.
    """
    n_edges = problem.n_edges
    flips = np.empty((n_samples, n_edges), dtype=bool)
    if n_edges == 0 or n_samples == 0:
        return flips
    chunk = min(n_samples, max(1, max_block_elements // n_edges))
    buffer = np.empty((chunk, n_edges))
    for start in range(0, n_samples, chunk):
        stop = min(start + chunk, n_samples)
        block = buffer[: stop - start]
        rng.random(out=block)
        np.less(block, problem.probabilities, out=flips[start:stop])
    return flips


def chunked_sample_reachability(
    backend: "SamplingBackend",
    problem: SamplingProblem,
    n_samples: int,
    rng: np.random.Generator,
    max_block_elements: int = MAX_FLIP_CHUNK_BYTES,
) -> np.ndarray:
    """Draw-and-propagate in bounded world-major chunks.

    The shared ``sample_reachability`` body of the built-in backends:
    each chunk's bool flip matrix holds at most ``max_block_elements``
    entries (at least one world), is drawn by :func:`sample_flips`,
    closed by one ``propagate_reachability`` pass and discarded, so a big
    sample count never materializes the full ``n_samples x n_edges``
    matrix.  Chunk boundaries do not change the random stream, so the
    result is identical for any chunk size.
    """
    reached = np.zeros((n_samples, problem.n_vertices), dtype=bool)
    reached[:, problem.source] = True
    n_edges = problem.n_edges
    if n_edges == 0 or n_samples == 0:
        return reached
    all_edges = np.arange(n_edges)
    chunk = max(1, max_block_elements // n_edges)
    for start in range(0, n_samples, chunk):
        stop = min(start + chunk, n_samples)
        flips = sample_flips(problem, stop - start, rng)
        reached[start:stop] = backend.propagate_reachability(problem, flips, all_edges)
    return reached


@runtime_checkable
class SamplingBackend(Protocol):
    """The backend protocol: a stream-consuming sampler plus its closure.

    Backends are stateless beyond configuration; all randomness comes
    from the generator passed to :meth:`sample_reachability`.
    :func:`~repro.reachability.backends.make_backend` accepts an
    instance only if it implements all three members.
    """

    #: registry name of the backend (e.g. ``"naive"``, ``"csr"``)
    name: str

    def sample_reachability(
        self,
        problem: SamplingProblem,
        n_samples: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sample ``n_samples`` worlds and return the reachability matrix.

        Returns a boolean array of shape ``(n_samples, n_vertices)``
        whose entry ``[s, v]`` is True iff vertex ``v`` is connected to
        the problem's source vertex in world ``s``.  The source column is
        always True.
        """
        ...

    def propagate_reachability(
        self,
        problem: SamplingProblem,
        flips: np.ndarray,
        edge_indices: np.ndarray,
        base_reached: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Compute source reachability for a given flip matrix.

        Deterministic closure — no randomness is consumed.  Only the
        edges listed in ``edge_indices`` (integer indices into the
        problem's edge arrays) are traversed; the flip matrix may cover
        more edges (e.g. a whole candidate universe), the rest are
        ignored.  When ``base_reached`` is given, propagation starts
        from that already-computed closure instead of from the source
        alone — since reachability is monotone in the edge set, this
        yields exactly the closure of the enlarged edge set while only
        re-propagating from the newly connected frontier.

        Returns a fresh boolean ``(n_samples, n_vertices)`` matrix; the
        inputs are never mutated.
        """
        ...
