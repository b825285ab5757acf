"""Seeded input generators of the benchmark.

The benchmark owns its generators, so that a change to the library's own
generators (``repro.graph.generators``) can never change the inputs a
commit is measured on.  Each generator follows one of the paper's data
schemes (Section 7.1) and returns plain Python data: an edge list with
probabilities and a vertex-weight list.  Building the library's graph
object from that data is part of the measured set-up.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: Smallest edge probability; the model requires p > 0.
MIN_PROBABILITY = 1e-9


@dataclass(frozen=True)
class GraphSpec:
    """One generated uncertain graph, before the program sees it."""

    name: str
    weights: Tuple[float, ...]
    edges: Tuple[Tuple[int, int], ...]
    probabilities: Tuple[float, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.weights)


def _finish(name: str, rng: np.random.Generator, n: int, edges: List[Tuple[int, int]]) -> GraphSpec:
    """Draw probabilities uniform in (0, 1] and integer weights in [0, 10]."""
    probabilities = np.maximum(MIN_PROBABILITY, 1.0 - rng.random(len(edges)))
    weights = rng.integers(0, 11, size=n).astype(float)
    return GraphSpec(
        name=name,
        weights=tuple(weights.tolist()),
        edges=tuple(edges),
        probabilities=tuple(probabilities.tolist()),
    )


def erdos(rng: np.random.Generator, n: int, degree: float = 6.0) -> GraphSpec:
    """Erdős scheme (Fig. 5b): a random spanning tree plus uniform random edges."""
    order = rng.permutation(n)
    parent_slots = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    seen = set()
    edges: List[Tuple[int, int]] = []
    for child, slot in zip(order[1:].tolist(), order[parent_slots].tolist()):
        pair = (min(child, slot), max(child, slot))
        seen.add(pair)
        edges.append((child, slot))
    target = min(int(round(n * degree / 2.0)), n * (n - 1) // 2)
    while len(edges) < target:
        draws = rng.integers(0, n, size=(2 * (target - len(edges)) + 16, 2)).tolist()
        for u, v in draws:
            pair = (min(u, v), max(u, v))
            if u == v or pair in seen:
                continue
            seen.add(pair)
            edges.append((u, v))
            if len(edges) == target:
                break
    return _finish("erdos", rng, n, edges)


def wsn(rng: np.random.Generator, n: int, eps: float) -> GraphSpec:
    """WSN scheme (Fig. 8): uniform points, edges between points closer than ``eps``."""
    points = rng.random((n, 2))
    delta = points[:, None, :] - points[None, :, :]
    close = np.einsum("ijk,ijk->ij", delta, delta) <= eps * eps
    us, vs = np.nonzero(np.triu(close, k=1))
    return _finish("wsn", rng, n, list(zip(us.tolist(), vs.tolist())))


def largest_component(spec: GraphSpec) -> List[int]:
    """Vertices of the largest connected component, ascending."""
    parent = list(range(spec.n_vertices))

    def root(vertex: int) -> int:
        while parent[vertex] != vertex:
            parent[vertex] = parent[parent[vertex]]
            vertex = parent[vertex]
        return vertex

    for u, v in spec.edges:
        parent[root(u)] = root(v)
    roots = [root(vertex) for vertex in range(spec.n_vertices)]
    biggest = Counter(roots).most_common(1)[0][0]
    return [vertex for vertex, r in enumerate(roots) if r == biggest]
