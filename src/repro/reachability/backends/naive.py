"""The reference backend: one possible world at a time, BFS per world.

This is the direct translation of the original per-world loop of the
whole-graph flow estimator (dict adjacency plus a deque BFS) and
serves two purposes: it is the behavioural reference the ``csr`` backend
is pinned against in the property tests, and it remains a readable
executable specification of Lemma 1's sampling scheme.

``propagate_reachability`` rebuilds a dict adjacency from the surviving
active edges of each world and runs one BFS (seeded from every
already-reached vertex when a base closure is supplied).
``sample_reachability`` applies that closure to flip matrices drawn in
bounded world-major chunks, so memory stays flat in ``n_samples``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.reachability.backends.base import (
    SamplingProblem,
    chunked_sample_reachability,
)


class NaiveSamplingBackend:
    """One BFS per world over a dict adjacency — slow but obvious."""

    name = "naive"

    def sample_reachability(
        self,
        problem: SamplingProblem,
        n_samples: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return chunked_sample_reachability(self, problem, n_samples, rng)

    def propagate_reachability(
        self,
        problem: SamplingProblem,
        flips: np.ndarray,
        edge_indices: np.ndarray,
        base_reached: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        n_samples = int(flips.shape[0])
        if base_reached is None:
            reached = np.zeros((n_samples, problem.n_vertices), dtype=bool)
        else:
            reached = base_reached.copy()
        reached[:, problem.source] = True
        edge_indices = np.asarray(edge_indices, dtype=np.int64)
        if edge_indices.size == 0 or n_samples == 0:
            return reached
        edge_u = problem.edge_u[edge_indices].tolist()
        edge_v = problem.edge_v[edge_indices].tolist()
        active_flips = flips[:, edge_indices]
        for sample_index in range(n_samples):
            survives = active_flips[sample_index]
            adjacency: Dict[int, List[int]] = {}
            for u, v, alive in zip(edge_u, edge_v, survives):
                if alive:
                    adjacency.setdefault(u, []).append(v)
                    adjacency.setdefault(v, []).append(u)
            row = reached[sample_index]
            # BFS from every vertex of the starting closure, so an
            # incremental call re-propagates only across the new edges
            queue = deque(np.flatnonzero(row).tolist())
            while queue:
                current = queue.popleft()
                for neighbor in adjacency.get(current, ()):
                    if not row[neighbor]:
                        row[neighbor] = True
                        queue.append(neighbor)
        return reached
