"""Query planner: group a mixed batch of requests by shared sampling work.

Two requests can be answered from the *same* batch of possible worlds
exactly when the batch they need is the same pure function — same graph
content, same (ordered) edge restriction, same source vertex, same
backend, seed, sample count and shard plan.  The planner partitions a
request list into such groups, so the evaluator draws **one**
:class:`~repro.reachability.engine.WorldBatch` per group and answers
every member with a column gather.

Notably *absent* from the group key:

* the query **kind** — an expected-flow query and sixty-three pair
  queries anchored at the same source share one batch; aggregation is
  per-request;
* ``include_query`` — a pure aggregation choice;
* **extra target vertices** — a target that is not incident to any
  sampled edge is reached in no world, and the aggregations treat a
  missing column as exactly that, so pooled batches are drawn without
  per-request extra columns and remain interchangeable with the
  single-query batches (this is what keeps batched answers bit-for-bit
  equal to the one-at-a-time estimator calls).

Pair queries whose source equals their target need no sampling at all
(the estimators answer probability 1.0 without drawing worlds); the
planner routes them past the groups as *trivial* requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.digest import edge_sequence_digest
from repro.graph.uncertain_graph import UncertainGraph
from repro.service.cache import WorldKey, world_key_source_repr
from repro.service.requests import PAIR_REACHABILITY, QueryRequest
from repro.telemetry import current_telemetry
from repro.types import Edge


@dataclass(frozen=True)
class QueryGroup:
    """One batch-sized unit of work: a world key plus its member requests.

    ``requests`` holds ``(position, request)`` pairs, where ``position``
    is the request's index in the original batch — the evaluator scatters
    answers back into input order.
    """

    key: WorldKey
    source: object
    edges: Optional[Tuple[Edge, ...]]
    requests: Tuple[Tuple[int, QueryRequest], ...]

    @property
    def n_requests(self) -> int:
        """Number of requests answered from this group's batch."""
        return len(self.requests)


@dataclass(frozen=True)
class QueryPlan:
    """The planner's output: sampling groups plus sampling-free requests."""

    groups: Tuple[QueryGroup, ...]
    trivial: Tuple[Tuple[int, QueryRequest], ...]
    graph_digest: int

    @property
    def n_requests(self) -> int:
        """Total number of planned requests."""
        return sum(group.n_requests for group in self.groups) + len(self.trivial)

    @property
    def amortization(self) -> float:
        """Requests per sampled batch (1.0 means nothing was shared)."""
        if not self.groups:
            return 1.0
        return sum(group.n_requests for group in self.groups) / len(self.groups)


class QueryPlanner:
    """Groups requests by ``(graph digest, edges, source, seed, n_samples)``."""

    def plan(
        self,
        graph: UncertainGraph,
        requests: Sequence[QueryRequest],
        backend: str,
        shard_size: Optional[int],
    ) -> QueryPlan:
        """Partition ``requests`` into shared-batch groups.

        Parameters
        ----------
        graph:
            The graph every request in the batch runs against; its
            content digest anchors every group key.
        requests:
            The mixed-kind request batch, in client order.
        backend:
            Name of the backend the batch samples with (part of every
            key: streams are pinned identical across the built-in
            backends, but a third-party backend may not be).
        shard_size:
            ``None`` when sampling is unsharded, else the resolved
            worlds-per-shard of the active executor — the two streams
            differ and must not share batches.
        """
        # memoized on the graph: repeated batches against one graph pay
        # the O(V + E) content hash once, not once per plan() call
        digest = graph.content_digest()
        groups: Dict[int, List[Tuple[int, QueryRequest]]] = {}
        keys: Dict[int, WorldKey] = {}
        payloads: Dict[int, Tuple[object, Optional[Tuple[Edge, ...]]]] = {}
        trivial: List[Tuple[int, QueryRequest]] = []
        for position, request in enumerate(requests):
            if request.kind == PAIR_REACHABILITY and request.source == request.target:
                trivial.append((position, request))
                continue
            key = WorldKey(
                graph_digest=digest,
                edges_digest=edge_sequence_digest(request.edges),
                source_repr=world_key_source_repr(request.source),
                backend=backend,
                seed=request.seed,
                n_samples=request.n_samples,
                shard_size=shard_size,
            )
            key_digest = key.digest
            if key_digest not in groups:
                groups[key_digest] = []
                keys[key_digest] = key
                payloads[key_digest] = (request.source, request.edges)
            groups[key_digest].append((position, request))
        plan = QueryPlan(
            groups=tuple(
                QueryGroup(
                    key=keys[key_digest],
                    source=payloads[key_digest][0],
                    edges=payloads[key_digest][1],
                    requests=tuple(members),
                )
                for key_digest, members in groups.items()
            ),
            trivial=tuple(trivial),
            graph_digest=digest,
        )
        tel = current_telemetry()
        tel.count("service.plan_calls")
        tel.count("service.planned_requests", len(requests))
        tel.count("service.planned_groups", len(plan.groups))
        if plan.trivial:
            tel.count("service.trivial_requests", len(plan.trivial))
        return plan


__all__ = ["QueryGroup", "QueryPlan", "QueryPlanner"]
