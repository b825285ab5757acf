"""Request/result value objects of the batched query service.

A :class:`QueryRequest` describes one question a client wants answered
about an uncertain graph — an expected-flow estimate, a two-terminal
reachability, or the per-vertex reachability of an edge-induced
component — together with everything that pins the answer down
deterministically: sample count, integer seed and (optionally) an edge
restriction.  The backend is not part of a request: it comes from the
session the batch is evaluated in.  Requests of *mixed* kinds can
travel in one batch; the planner groups them by their shared sampling
work, not by kind.

Seeds are plain integers rather than the library-wide ``SeedLike``:
the service's whole point is that the answer to a request is a pure
function of its content (that is what makes world batches cacheable and
batched answers bit-for-bit equal to single-query estimator calls), and
a live generator has hidden state that cannot be content-addressed.

The module also defines the JSONL wire format used by the CLI's
``batch`` command — one JSON object per line::

    {"kind": "expected_flow", "query": 0, "n_samples": 500, "seed": 7}
    {"kind": "pair_reachability", "source": 0, "target": 9, "n_samples": 500, "seed": 7}
    {"kind": "component_reachability", "anchor": 1, "vertices": [2, 3],
     "edges": [[1, 2], [2, 3], [3, 1]], "n_samples": 200, "seed": 3}

Optional per-request fields: ``seed``, ``n_samples`` (alias
``samples``), ``include_query`` (expected flow only, a JSON bool) and
``edges`` (an edge restriction for flow/pair queries; the order of the
pairs is significant — it is the order edge flips are drawn in).  Any
other field is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.parallel.plan import check_sample_count
from repro.reachability.estimators import FlowEstimate, ReachabilityEstimate
from repro.types import Edge, VertexId, as_edge

#: The three query kinds a batch may mix.
EXPECTED_FLOW = "expected_flow"
PAIR_REACHABILITY = "pair_reachability"
COMPONENT_REACHABILITY = "component_reachability"

QUERY_KINDS: Tuple[str, ...] = (
    EXPECTED_FLOW,
    PAIR_REACHABILITY,
    COMPONENT_REACHABILITY,
)

#: Accepted spellings of each kind in the JSONL wire format.
_KIND_ALIASES: Dict[str, str] = {
    EXPECTED_FLOW: EXPECTED_FLOW,
    "flow": EXPECTED_FLOW,
    PAIR_REACHABILITY: PAIR_REACHABILITY,
    "pair": PAIR_REACHABILITY,
    "reachability": PAIR_REACHABILITY,
    COMPONENT_REACHABILITY: COMPONENT_REACHABILITY,
    "component": COMPONENT_REACHABILITY,
}


@dataclass(frozen=True)
class QueryRequest:
    """One deterministic query against an uncertain graph.

    Attributes
    ----------
    kind:
        One of :data:`QUERY_KINDS`.
    source:
        The anchoring vertex: the query vertex for expected flow, the
        source for pair reachability, the articulation/anchor vertex for
        component reachability.
    target:
        Pair reachability only — the other terminal.
    targets:
        Component reachability only — the component's vertices (the
        anchor itself may be listed; it is excluded from the answer,
        matching :meth:`repro.reachability.engine.SamplingEngine.component_reachability`).
    edges:
        Edge restriction.  Required for component queries (the component
        edge set); optional for flow/pair queries (``None`` samples the
        whole graph).  **Order is significant**: flips are drawn in edge
        order, so the same set in a different order draws different
        worlds.
    n_samples:
        Possible worlds behind the answer (positive integer).
    seed:
        Integer seed; together with the session's backend and shard plan
        it pins the answer bit-for-bit.
    include_query:
        Expected flow only — whether the query vertex's own weight
        counts towards the flow (a bool).
    """

    kind: str
    source: VertexId
    target: Optional[VertexId] = None
    targets: Tuple[VertexId, ...] = ()
    edges: Optional[Tuple[Edge, ...]] = None
    n_samples: int = 1000
    seed: int = 0
    include_query: bool = False

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(
                f"unknown query kind {self.kind!r}; expected one of {QUERY_KINDS}"
            )
        check_sample_count(self.n_samples)
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise TypeError(
                f"seed must be a plain integer (service answers are content-addressed), "
                f"got {self.seed!r}"
            )
        if not isinstance(self.include_query, bool):
            raise TypeError(f"include_query must be a bool, got {self.include_query!r}")
        object.__setattr__(self, "n_samples", int(self.n_samples))
        object.__setattr__(self, "seed", int(self.seed))
        if self.edges is not None:
            object.__setattr__(
                self, "edges", tuple(as_edge(edge) for edge in self.edges)
            )
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.kind == PAIR_REACHABILITY:
            if self.target is None:
                raise ValueError("pair_reachability requests need a target vertex")
        elif self.target is not None:
            raise ValueError(f"{self.kind} requests do not take a target vertex")
        if self.kind == COMPONENT_REACHABILITY:
            if self.edges is None:
                raise ValueError("component_reachability requests need the component edges")
            if not self.targets:
                raise ValueError("component_reachability requests need the component vertices")
        elif self.targets:
            raise ValueError(f"{self.kind} requests do not take a vertex list")
        if self.include_query and self.kind != EXPECTED_FLOW:
            raise ValueError(f"{self.kind} requests do not take include_query")


@dataclass(frozen=True)
class QueryResult:
    """The answer to one :class:`QueryRequest`.

    Exactly one of the three payload fields is populated, matching the
    request kind; ``value`` condenses the scalar kinds for quick access.

    Attributes
    ----------
    request:
        The request this result answers.
    flow:
        Expected-flow payload (:class:`FlowEstimate`).
    reachability:
        Pair-reachability payload (:class:`ReachabilityEstimate`).
    probabilities:
        Component-reachability payload (per-vertex probabilities).
    n_samples:
        Worlds behind the answer.
    from_cache:
        True when the answer was served from a cached world batch
        instead of fresh sampling.
    world_digest:
        Digest of the shared world batch the answer was gathered from
        (0 for trivial answers that needed no sampling); requests with
        equal digests were answered from the same worlds.
    """

    request: QueryRequest
    flow: Optional[FlowEstimate] = None
    reachability: Optional[ReachabilityEstimate] = None
    probabilities: Optional[Dict[VertexId, float]] = field(default=None)
    n_samples: int = 0
    from_cache: bool = False
    world_digest: int = 0

    @property
    def kind(self) -> str:
        """The answered query kind."""
        return self.request.kind

    @property
    def value(self) -> Optional[float]:
        """Scalar answer: expected flow or pair probability (``None`` for components)."""
        if self.flow is not None:
            return self.flow.expected_flow
        if self.reachability is not None:
            return self.reachability.probability
        return None


# ----------------------------------------------------------------------
# JSONL wire format
# ----------------------------------------------------------------------
def _resolve_vertex(token: object, graph) -> object:
    """Map a JSON vertex token onto a graph vertex id (int when possible)."""
    if graph is None:
        return token
    if graph.has_vertex(token):
        return token
    try:
        candidate = int(token)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):  # OverflowError: ±inf
        return token
    return candidate if graph.has_vertex(candidate) else token


def _edge_pairs(raw: Iterable[object], graph) -> Tuple[Edge, ...]:
    edges = []
    for pair in raw:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"edge entries must be [u, v] pairs, got {pair!r}")
        u, v = (_resolve_vertex(token, graph) for token in pair)
        edges.append(Edge(u, v))
    return tuple(edges)


def request_from_dict(
    payload: Mapping[str, object],
    graph=None,
    default_n_samples: int = 1000,
    default_seed: int = 0,
) -> QueryRequest:
    """Build a :class:`QueryRequest` from one parsed JSONL object.

    ``graph`` (optional) resolves vertex tokens the way the CLI does —
    a token names an existing vertex directly, or through its integer
    form.  Unknown keys are rejected loudly so typos do not silently
    fall back to defaults.
    """
    payload = dict(payload)
    raw_kind = payload.pop("kind", None)
    if not isinstance(raw_kind, str) or raw_kind not in _KIND_ALIASES:
        raise ValueError(
            f"request kind must be one of {sorted(set(_KIND_ALIASES))}, got {raw_kind!r}"
        )
    kind = _KIND_ALIASES[raw_kind]

    def pop_aliased(primary: str, alias: str, default: object) -> object:
        # a request naming both spellings is ambiguous — reject it loudly
        # instead of silently discarding one of the two values
        if primary in payload and alias in payload:
            raise ValueError(
                f"request sets both {primary!r} and its alias {alias!r}; use one"
            )
        if alias in payload:
            return payload.pop(alias)
        return payload.pop(primary, default)

    n_samples = pop_aliased("n_samples", "samples", default_n_samples)
    seed = payload.pop("seed", default_seed)
    include_query = False
    if kind == EXPECTED_FLOW:
        include_query = payload.pop("include_query", False)

    source_key = {"expected_flow": "query", "pair_reachability": "source",
                  "component_reachability": "anchor"}[kind]
    raw_source = (
        payload.pop(source_key, None)
        if source_key == "source"
        else pop_aliased(source_key, "source", None)
    )
    if raw_source is None:
        raise ValueError(f"{kind} requests need a {source_key!r} vertex")
    source = _resolve_vertex(raw_source, graph)

    target = None
    targets: Tuple[VertexId, ...] = ()
    if kind == PAIR_REACHABILITY:
        raw_target = payload.pop("target", None)
        if raw_target is None:
            raise ValueError("pair_reachability requests need a 'target' vertex")
        target = _resolve_vertex(raw_target, graph)
    if kind == COMPONENT_REACHABILITY:
        raw_vertices = payload.pop("vertices", None)
        if not isinstance(raw_vertices, (list, tuple)) or not raw_vertices:
            raise ValueError("component_reachability requests need a 'vertices' list")
        targets = tuple(_resolve_vertex(token, graph) for token in raw_vertices)

    edges: Optional[Tuple[Edge, ...]] = None
    raw_edges = payload.pop("edges", None)
    if raw_edges is not None:
        edges = _edge_pairs(raw_edges, graph)

    if payload:
        raise ValueError(f"unknown request fields {sorted(payload)!r} for kind {kind!r}")
    return QueryRequest(
        kind=kind,
        source=source,
        target=target,
        targets=targets,
        edges=edges,
        n_samples=n_samples,  # type: ignore[arg-type]
        seed=seed,  # type: ignore[arg-type]
        include_query=include_query,  # type: ignore[arg-type]
    )


def request_to_dict(request: QueryRequest) -> Dict[str, object]:
    """Serialise a request back into its JSONL object form (round-trips)."""
    payload: Dict[str, object] = {"kind": request.kind}
    if request.kind == EXPECTED_FLOW:
        payload["query"] = request.source
        if request.include_query:
            payload["include_query"] = True
    elif request.kind == PAIR_REACHABILITY:
        payload["source"] = request.source
        payload["target"] = request.target
    else:
        payload["anchor"] = request.source
        payload["vertices"] = list(request.targets)
    if request.edges is not None:
        payload["edges"] = [[edge.u, edge.v] for edge in request.edges]
    payload["n_samples"] = request.n_samples
    payload["seed"] = request.seed
    return payload


def result_to_dict(result: QueryResult) -> Dict[str, object]:
    """Flatten a result into a JSON-serialisable object (one JSONL line)."""
    request = result.request
    payload: Dict[str, object] = {
        "kind": result.kind,
        "seed": request.seed,
        "n_samples": result.n_samples,
        "from_cache": result.from_cache,
    }
    if result.kind == EXPECTED_FLOW:
        payload["query"] = request.source
        assert result.flow is not None
        payload["expected_flow"] = result.flow.expected_flow
        payload["variance"] = result.flow.variance
        payload["n_reachable"] = len(result.flow.reachability)
    elif result.kind == PAIR_REACHABILITY:
        payload["source"] = request.source
        payload["target"] = request.target
        assert result.reachability is not None
        payload["probability"] = result.reachability.probability
        payload["successes"] = result.reachability.successes
    else:
        payload["anchor"] = request.source
        assert result.probabilities is not None
        payload["probabilities"] = {
            str(vertex): probability
            for vertex, probability in result.probabilities.items()
        }
    return payload


__all__ = [
    "COMPONENT_REACHABILITY",
    "EXPECTED_FLOW",
    "PAIR_REACHABILITY",
    "QUERY_KINDS",
    "QueryRequest",
    "QueryResult",
    "request_from_dict",
    "request_to_dict",
    "result_to_dict",
]
