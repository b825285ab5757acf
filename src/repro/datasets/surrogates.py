"""Synthetic surrogates for the paper's real-world datasets.

Each surrogate mirrors the structural properties that drive the paper's
conclusions (locality, density, degree distribution, probability
scheme; the original snapshots are not redistributable) while being
generated locally at a configurable scale:

* :func:`san_joaquin_surrogate` — the road network: planar, degree ≈ 2.6,
  strong locality, communication probability ``exp(-0.001 · distance)``;
* :func:`facebook_surrogate` — the social-circles snapshot: dense, no
  locality, each user has ~10 high-probability "close friends";
* :func:`dblp_surrogate` — the co-authorship network: a union of paper
  cliques, sparse, clustered, no locality;
* :func:`youtube_surrogate` — the friendship network: sparse, heavy-tailed
  degrees, no locality.
"""

from __future__ import annotations

import math

from repro.graph.generators import (
    collaboration_graph,
    grid_road_graph,
    preferential_attachment_graph,
    social_circle_graph,
)
from repro.graph.uncertain_graph import UncertainGraph
from repro.rng import SeedLike


def san_joaquin_surrogate(
    n_vertices: int = 400, seed: SeedLike = 0
) -> UncertainGraph:
    """Road-network surrogate (paper: San Joaquin County, 18,263 vertices).

    A jittered planar grid of road intersections whose edge probabilities
    follow the paper's distance-decay law ``exp(-0.001 · metres)``.
    """
    side = max(2, int(math.sqrt(max(4, n_vertices))))
    graph = grid_road_graph(
        rows=side,
        cols=side,
        cell_length_m=500.0,
        decay_per_m=0.001,
        seed=seed,
        name="san-joaquin-surrogate",
    )
    return graph


def facebook_surrogate(n_vertices: int = 300, seed: SeedLike = 0) -> UncertainGraph:
    """Social-circles surrogate (paper: 535 users, ~10k edges).

    Dense graph with ten high-probability (``[0.5, 1.0]``) close-friend
    edges per vertex and low-probability (``(0, 0.5]``) acquaintance
    edges, which is the exact re-weighting the paper applies to the
    Facebook snapshot.
    """
    average_degree = min(float(n_vertices - 1), 36.0)
    graph = social_circle_graph(
        n_vertices,
        average_degree=average_degree,
        close_friends=10,
        seed=seed,
        name="facebook-surrogate",
    )
    return graph


def dblp_surrogate(n_vertices: int = 500, seed: SeedLike = 0) -> UncertainGraph:
    """Collaboration-network surrogate (paper: DBLP, 317k vertices).

    Union of random per-paper author cliques with uniform edge
    probabilities; sparse and highly clustered, no locality.
    """
    return collaboration_graph(
        n_vertices,
        n_papers=int(n_vertices * 1.2),
        authors_per_paper=(2, 5),
        seed=seed,
        name="dblp-surrogate",
    )


def youtube_surrogate(n_vertices: int = 800, seed: SeedLike = 0) -> UncertainGraph:
    """Friendship-network surrogate (paper: YouTube, 1.13M vertices).

    Sparse preferential-attachment graph: heavy-tailed degree
    distribution, small diameter, uniform edge probabilities.
    """
    return preferential_attachment_graph(
        n_vertices,
        edges_per_vertex=3,
        seed=seed,
        name="youtube-surrogate",
    )
