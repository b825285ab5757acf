"""CSR-layout backend: frontier-sparse propagation, optional numba kernel.

The library's default backend.  It propagates all sampled worlds at
once over the precomputed CSR half-edge adjacency shared through
:class:`~repro.reachability.layout.GraphLayout`, so no call re-sorts its
half-edges, and no fixpoint sweep relaxes edges whose endpoints gained
nothing since the previous sweep:

* **numpy path** — the sample axis is packed into bits, so each vertex
  and each edge carries a bitset of ``ceil(n_samples / 8)`` bytes (the
  worlds that reach the vertex, the worlds the edge survived in), and
  one sweep ORs every surviving half-edge's tail bitset into its head
  for all worlds at once.  The world-major flip matrix is packed by
  :func:`_pack_rows`, which ORs eight world rows into one byte row with
  shifts, so no pass transposes the matrix (a transposed
  ``np.packbits`` costs more than the propagation itself).  A
  source-only start sets the first ``n_samples`` bits of the source's
  lane directly; an incremental baseline is packed like the flips.
  Propagation is *frontier-restricted*: each round pulls updates only
  into the neighbours of vertices whose bitsets changed in the previous
  round, so the per-round work shrinks with the frontier instead of
  staying ``O(E)`` until the global fixpoint.
  Inactive edges simply keep all-zero survival bitsets, which excludes
  them from propagation without a separate mask.
* **numba path** — a compiled ``@njit(cache=True)`` kernel running one
  stack-based BFS per world over the CSR arrays: exactly the naive
  reference algorithm, executed in machine code.  It is used
  automatically when numba imports (``use_numba=None``), can be forced
  on (``use_numba=True`` — raises if numba is missing) or off, and the
  registry only exposes the ``csr-numba`` name when the probe
  (:func:`numba_unavailable_reason`) passes.

Both paths consume the shared
:func:`~repro.reachability.backends.base.sample_flips` stream and
propagate the same monotone closure, so results are bit-for-bit equal to
the ``naive`` backend per seed — pinned by the cross-backend property
tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.reachability.backends.base import (
    MAX_FLIP_CHUNK_BYTES,
    SamplingProblem,
    chunked_sample_reachability,
)
from repro.telemetry import current_telemetry

#: Flip-matrix entries (bool bytes) per draw-and-propagate chunk of
#: ``sample_reachability`` (module attribute so tests can force tiny chunks).
_MAX_BLOCK_ELEMENTS = MAX_FLIP_CHUNK_BYTES

#: Sentinel distinguishing "probe not run yet" from "probe passed" (None).
_UNPROBED = object()
_numba_reason: object = _UNPROBED
_numba_kernel = None


def numba_unavailable_reason() -> Optional[str]:
    """``None`` when numba can be imported, else a human-readable reason.

    The probe runs once per process and is what gates the ``csr-numba``
    registry entry and the auto-selection inside
    :class:`CSRSamplingBackend`; the CLI ``backends`` listing surfaces
    the reason verbatim.
    """
    global _numba_reason
    if _numba_reason is _UNPROBED:
        try:
            import numba  # noqa: F401
        except ImportError:
            _numba_reason = "numba is not installed"
        except Exception as exc:  # pragma: no cover - broken install
            _numba_reason = f"numba import failed: {exc}"
        else:
            _numba_reason = None
    return _numba_reason  # type: ignore[return-value]


def _get_numba_kernel():
    """Compile (once) and return the per-world BFS kernel."""
    global _numba_kernel
    if _numba_kernel is None:
        from numba import njit

        @njit(cache=True)
        def _propagate_worlds(indptr, neighbors, edge_ids, flips, active, reached):
            # One stack-based BFS per world over the CSR half-edges: a
            # world only pays for the component it actually reaches.
            n_samples, n_vertices = reached.shape
            stack = np.empty(n_vertices, dtype=np.int64)
            for s in range(n_samples):
                row = reached[s]
                top = 0
                for v in range(n_vertices):
                    if row[v]:
                        stack[top] = v
                        top += 1
                while top > 0:
                    top -= 1
                    v = stack[top]
                    for k in range(indptr[v], indptr[v + 1]):
                        w = neighbors[k]
                        if not row[w]:
                            e = edge_ids[k]
                            if active[e] and flips[s, e]:
                                row[w] = True
                                stack[top] = w
                                top += 1

        _numba_kernel = _propagate_worlds
    return _numba_kernel


def _pack_rows(matrix: np.ndarray) -> np.ndarray:
    """``np.packbits(matrix, axis=0)`` for a 2-D bool matrix, by shift-OR.

    Rows are zero-padded to a multiple of 8 and viewed as uint8 planes of
    shape ``(n_bytes, 8, n_cols)``; byte ``[b, c]`` is then the OR of
    ``plane[k] << (7 - k)`` over the eight rows ``8b + k``, which is the
    big-endian bit order of ``np.packbits``.  Each plane is a strided row
    block, so no pass transposes the matrix, which is what makes
    ``np.packbits(matrix.T, axis=1)`` slow on world-major flips.
    """
    n_rows, n_cols = matrix.shape
    n_bytes = (n_rows + 7) // 8
    rows = matrix.view(np.uint8)
    if n_rows % 8:
        padded = np.zeros((n_bytes * 8, n_cols), dtype=np.uint8)
        padded[:n_rows] = rows
        rows = padded
    planes = rows.reshape(n_bytes, 8, n_cols)
    packed = planes[:, 0] << 7
    for k in range(1, 8):
        packed |= planes[:, k] << (7 - k)
    return packed


class CSRSamplingBackend:
    """Frontier-sparse propagation over the shared CSR graph layout.

    Parameters
    ----------
    use_numba:
        ``None`` (default) auto-selects the compiled kernel when numba
        imports and falls back to the numpy path transparently when it
        does not; ``True`` forces the kernel (raising if numba is
        unavailable); ``False`` forces the numpy path.
    """

    name = "csr"

    def __init__(self, use_numba: Optional[bool] = None) -> None:
        if use_numba:
            reason = numba_unavailable_reason()
            if reason is not None:
                raise RuntimeError(f"cannot force the numba kernel: {reason}")
        self.use_numba = use_numba

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} numba={self.numba_active}>"

    @property
    def numba_active(self) -> bool:
        """True when propagation will run through the compiled kernel."""
        if self.use_numba is None:
            return numba_unavailable_reason() is None
        return bool(self.use_numba)

    # ------------------------------------------------------------------
    def sample_reachability(
        self,
        problem: SamplingProblem,
        n_samples: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return chunked_sample_reachability(
            self, problem, n_samples, rng, max_block_elements=_MAX_BLOCK_ELEMENTS
        )

    def propagate_reachability(
        self,
        problem: SamplingProblem,
        flips: np.ndarray,
        edge_indices: np.ndarray,
        base_reached: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        n_samples = int(flips.shape[0])
        edge_indices = np.asarray(edge_indices, dtype=np.int64)
        if edge_indices.size and n_samples and not self.numba_active:
            return self._propagate_numpy(problem, flips, edge_indices, base_reached)
        if base_reached is None:
            reached = np.zeros((n_samples, problem.n_vertices), dtype=bool)
        else:
            reached = base_reached.copy()
        reached[:, problem.source] = True
        if edge_indices.size == 0 or n_samples == 0:
            return reached
        return self._propagate_numba(problem, flips, edge_indices, reached)

    # ------------------------------------------------------------------
    def _propagate_numba(
        self,
        problem: SamplingProblem,
        flips: np.ndarray,
        edge_indices: np.ndarray,
        reached: np.ndarray,
    ) -> np.ndarray:
        csr = problem.csr_adjacency()
        active = np.zeros(problem.n_edges, dtype=bool)
        active[edge_indices] = True
        flips = np.ascontiguousarray(flips)
        _get_numba_kernel()(
            csr.indptr, csr.neighbors, csr.edge_ids, flips, active, reached
        )
        return reached

    def _propagate_numpy(
        self,
        problem: SamplingProblem,
        flips: np.ndarray,
        edge_indices: np.ndarray,
        base_reached: Optional[np.ndarray],
    ) -> np.ndarray:
        n_samples = int(flips.shape[0])
        n_edges = problem.n_edges
        csr = problem.csr_adjacency()
        indptr, neighbors = csr.indptr, csr.neighbors

        # world bitsets padded to whole uint64 lanes: every bitwise op
        # (AND/OR/reduceat/compare) then touches 8x fewer elements than
        # byte rows would, and the padding lanes stay zero throughout so
        # the final trim cannot lose information
        n_bytes = (n_samples + 7) // 8
        padded = ((n_bytes + 7) // 8) * 8

        # per-edge bitset over the worlds the edge survived in; inactive
        # edges keep all-zero bitsets and therefore never carry anything
        alive8 = np.zeros((n_edges, padded), dtype=np.uint8)
        if edge_indices.size == n_edges and np.array_equal(
            edge_indices, np.arange(n_edges)
        ):
            alive8[:, :n_bytes] = _pack_rows(flips).T
        else:
            alive8[edge_indices, :n_bytes] = _pack_rows(flips[:, edge_indices]).T
        # half-edge aligned survival lanes, gathered once per call
        # rather than once per sweep
        alive = alive8.view(np.uint64)[csr.edge_ids]

        # per-vertex bitset of the worlds that reach it, seeded from the
        # starting closure: the source lane alone (its first n_samples
        # bits set), or an incremental baseline plus that lane
        bits8 = np.zeros((problem.n_vertices, padded), dtype=np.uint8)
        if base_reached is not None:
            bits8[:, :n_bytes] = _pack_rows(base_reached).T
        bits8[problem.source, :n_bytes] = np.packbits(np.ones(n_samples, dtype=bool))
        bits = bits8.view(np.uint64)

        if base_reached is None:
            frontier = np.array([problem.source], dtype=np.int64)
        else:
            frontier = np.flatnonzero(bits.any(axis=1)).astype(np.int64)

        pull_vertices, pull_offsets = csr.pull_groups()
        half_edges = len(neighbors)
        arange = np.arange
        dense_rounds = 0
        sparse_rounds = 0
        while frontier.size:
            touched = int((indptr[frontier + 1] - indptr[frontier]).sum())
            if touched == 0:
                break
            if 2 * touched >= half_edges:
                # dense round: one full pull sweep over the precomputed
                # group structure (every non-empty CSR row at once)
                dense_rounds += 1
                targets, offsets = pull_vertices, pull_offsets
                carried = bits[neighbors] & alive
            else:
                # sparse round: pull only the frontier's neighbourhood.
                # A target is by construction someone's neighbour, so
                # its CSR row is non-empty and the reduceat offsets
                # stay strictly increasing.
                sparse_rounds += 1
                starts = indptr[frontier]
                counts = indptr[frontier + 1] - starts
                keep = counts > 0
                starts, counts = starts[keep], counts[keep]
                ends = np.cumsum(counts)
                pos = arange(touched) - np.repeat(ends - counts, counts) + np.repeat(
                    starts, counts
                )
                seen = np.zeros(problem.n_vertices, dtype=bool)
                seen[neighbors[pos]] = True
                targets = np.flatnonzero(seen)
                t_starts = indptr[targets]
                t_counts = indptr[targets + 1] - t_starts
                t_total = int(t_counts.sum())
                offsets = np.cumsum(t_counts) - t_counts
                t_pos = arange(t_total) - np.repeat(offsets, t_counts) + np.repeat(
                    t_starts, t_counts
                )
                carried = bits[neighbors[t_pos]] & alive[t_pos]
            gained = np.bitwise_or.reduceat(carried, offsets, axis=0)
            current = bits[targets]
            updated = current | gained
            changed = np.any(updated != current, axis=1)
            if not changed.any():
                break
            bits[targets] = updated
            frontier = targets[changed]

        # round-mix accounting: two plain ints during the loop, one
        # ambient lookup and three counts after it — nothing is paid per
        # round, and with telemetry off the counts are no-op calls.  Note
        # shards run in worker *processes* report into that process's
        # (invisible) pipeline; the counters reflect in-process
        # propagation only.
        tel = current_telemetry()
        tel.count("backend.csr.dense_rounds", dense_rounds)
        tel.count("backend.csr.sparse_rounds", sparse_rounds)
        tel.count("backend.csr.propagate_calls")

        return np.unpackbits(bits8[:, :n_bytes], axis=1, count=n_samples).T.astype(bool)


class NumbaCSRSamplingBackend(CSRSamplingBackend):
    """The CSR backend pinned to the compiled kernel (no silent fallback).

    Registered as ``csr-numba`` only when the availability probe passes,
    so requesting it is an explicit promise that propagation runs in
    machine code — useful for benchmarks and CI legs that must fail
    loudly rather than quietly measure the numpy path.
    """

    name = "csr-numba"

    def __init__(self) -> None:
        super().__init__(use_numba=True)
