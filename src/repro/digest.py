"""Stable content digests shared across the caching layers.

Several subsystems need to answer the same question: *"is this the same
content I have already paid to evaluate?"* — the F-tree memo caches
per-component reachability by component content, the CRN component
sampler keys counter-based random streams on that same content, the
layout cache (:mod:`repro.reachability.layout`) interns edge sequences
by their ``(edge, probability)`` content, and the batched query service
(:mod:`repro.service`) caches whole sampled world batches by graph
content.  This module is the one hashing scheme behind all of them; the
caches themselves are uses of one LRU, :class:`repro.lru.LRUCache`.

Digests are 128-bit integers computed with BLAKE2b over a canonical
``repr`` payload, so they are:

* **stable across processes** — no ``PYTHONHASHSEED`` dependence, safe
  to use as cache keys that outlive one interpreter or as seeds of
  counter-based random streams;
* **content-addressed** — two graphs with the same vertices, weights,
  edges and probabilities share a digest regardless of identity, and
  any mutation (edge added/removed, probability or weight changed)
  moves the digest.

Order sensitivity is deliberate and documented per function:
:func:`edge_sequence_digest` and :func:`edge_probability_digest`
preserve order because the possible-world
random stream consumes edge flips in edge order — two requests with the
same edge *set* but different order sample different worlds and must not
share a cache entry.  :func:`content_digest` (the F-tree memo key)
canonicalises order because a bi-connected component's content is a set.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Tuple

from repro.types import Edge, VertexId

#: Number of digest bytes (128 bits, matching the historical memo digest).
DIGEST_BYTES = 16


def stable_digest(payload: object) -> int:
    """Return a stable 128-bit integer digest of an arbitrary payload.

    The payload is canonicalised through ``repr`` — callers are expected
    to pass plain tuples/strings/numbers whose ``repr`` is deterministic
    (never objects with identity-based reprs).
    """
    encoded = repr(payload).encode("utf-8")
    return int.from_bytes(
        hashlib.blake2b(encoded, digest_size=DIGEST_BYTES).digest(), "little"
    )


def combine_digests(*parts: object) -> int:
    """Fold several digest components (ints, strings, tuples) into one digest."""
    return stable_digest(tuple(parts))


def content_digest(edges: Iterable[Edge], articulation: VertexId, *salts: int) -> int:
    """Return a stable digest of a bi-connected component's *content*.

    The component content is its edge **set** plus its articulation
    vertex — edge order is canonicalised away, because probing the same
    component while scanning different candidate edges must replay the
    same digest (the F-tree memo and the CRN component streams both rely
    on this, see :mod:`repro.ftree.memo`).  The optional integer
    ``salts`` fold extra context — a round index, a base seed, a sample
    size — into the digest so derived random streams differ where they
    must.
    """
    canonical = sorted((repr(edge.u), repr(edge.v)) for edge in edges)
    payload = repr((canonical, repr(articulation), tuple(int(s) for s in salts)))
    return int.from_bytes(
        hashlib.blake2b(payload.encode("utf-8"), digest_size=DIGEST_BYTES).digest(),
        "little",
    )


def edge_sequence_digest(edges: Optional[Iterable[Edge]]) -> Optional[int]:
    """Return an **order-sensitive** digest of an edge sequence.

    ``None`` (no restriction — the whole graph) maps to ``None`` so the
    caller can distinguish "full graph" from "empty restriction".  Order
    matters: the sampling stream flips edges in sequence order, so the
    same edge set in a different order draws different possible worlds.
    """
    if edges is None:
        return None
    return stable_digest(tuple((repr(edge.u), repr(edge.v)) for edge in edges))


def edge_probability_digest(pairs: Iterable[Tuple[Edge, float]]) -> int:
    """Return an **order-sensitive** digest of an ``(edge, probability)`` sequence.

    The key of a restricted graph layout: the layout is a pure function
    of exactly this ordered sequence, so equal content shares a digest
    whichever graph it came from, and changing one probability, edge or
    the order moves it.  Tagged so it never collides with a
    :func:`graph_digest` payload.
    """
    return stable_digest(
        (
            "edges",
            tuple((repr(edge.u), repr(edge.v), float(probability)) for edge, probability in pairs),
        )
    )


def graph_digest(graph) -> int:
    """Return a stable digest of an uncertain graph's full content.

    Covers, in a canonical form:

    * the vertex set with its information weights (sorted by ``repr`` so
      insertion order does not matter — weights affect flow aggregation,
      not sampling, but a weight change must still move the digest so
      content-addressed caches never serve stale flow numbers);
    * the edge sequence with its probabilities **in insertion order**,
      because unrestricted sampling flips edges in exactly that order.

    The graph's display ``name`` is deliberately excluded: renaming a
    graph does not change any answer.
    """
    vertex_payload = sorted(
        (repr(vertex), float(weight)) for vertex, weight in graph.weights().items()
    )
    edge_payload = tuple(
        (repr(edge.u), repr(edge.v), float(probability))
        for edge, probability in graph.probabilities().items()
    )
    return stable_digest(("graph", tuple(vertex_payload), edge_payload))


__all__ = [
    "DIGEST_BYTES",
    "combine_digests",
    "content_digest",
    "edge_probability_digest",
    "edge_sequence_digest",
    "graph_digest",
    "stable_digest",
]
