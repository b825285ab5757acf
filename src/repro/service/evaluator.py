"""The batched multi-query evaluation service.

:class:`BatchEvaluator` is the request-oriented front door of the
estimation stack: hand it an uncertain graph and a mixed batch of
:class:`~repro.service.requests.QueryRequest` objects, and it

1. **plans** — groups the requests by shared sampling work
   (:class:`~repro.service.planner.QueryPlanner`);
2. **caches** — looks each group's world key up in a digest-keyed
   :class:`~repro.service.cache.WorldCache`, so successive batches (and
   successive calls) reuse sampled worlds across requests;
3. **samples** — on a miss, draws one shared
   :class:`~repro.reachability.engine.WorldBatch` per group through the
   ordinary :class:`~repro.reachability.engine.SamplingEngine`;
4. **answers** — aggregates every member request from the group's batch
   with the same aggregation functions the single-query estimators use.

The determinism contract carries over verbatim: a batched answer is
bit-for-bit identical to the corresponding single-query estimator call
for the same ``(seed, backend, shard plan)`` — the batch only changes
*when* the worlds are drawn, never *which* worlds or how they are
aggregated.

Typical use::

    from repro.service import BatchEvaluator, QueryRequest

    evaluator = BatchEvaluator(cache=128)
    requests = [
        QueryRequest(kind="expected_flow", source=0, n_samples=1000, seed=7),
        QueryRequest(kind="pair_reachability", source=0, target=9,
                     n_samples=1000, seed=7),
    ]
    results = evaluator.evaluate(graph, requests)   # one sampled batch, two answers
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.exceptions import VertexNotFoundError
from repro.graph.uncertain_graph import UncertainGraph
from repro.parallel.executor import get_default_executor
from repro.parallel.plan import get_default_shard_size
from repro.reachability.backends import get_default_backend
from repro.reachability.engine import (
    SamplingEngine,
    WorldBatch,
    aggregate_component_reachability,
    aggregate_expected_flow,
    aggregate_pair_reachability,
)
from repro.reachability.estimators import ReachabilityEstimate
from repro.service.cache import (
    CacheLike,
    WorldCache,
    get_default_world_cache,
    resolve_cache,
)
from repro.service.planner import QueryGroup, QueryPlan, QueryPlanner
from repro.service.requests import (
    COMPONENT_REACHABILITY,
    EXPECTED_FLOW,
    PAIR_REACHABILITY,
    QueryRequest,
    QueryResult,
)
from repro.telemetry import current_telemetry


def validate_request(graph: UncertainGraph, request: QueryRequest) -> None:
    """Mirror the single-query estimators' vertex validation.

    :meth:`SamplingEngine.expected_flow` and ``pair_reachability``
    reject unknown query vertices loudly; a batched request must not
    degrade that into a silent all-zero answer.  (Component queries
    match their estimator too: bogus edges fail the probability
    lookup during sampling.)  Public so admission layers — the serving
    tier rejects a bad request *before* it reaches the coalescing
    queue — apply exactly the evaluator's rules.
    """
    if request.kind == EXPECTED_FLOW and not graph.has_vertex(request.source):
        raise VertexNotFoundError(request.source)
    if request.kind == PAIR_REACHABILITY:
        for vertex in (request.source, request.target):
            if not graph.has_vertex(vertex):
                raise VertexNotFoundError(vertex)


class BatchEvaluator:
    """Serves batches of mixed reachability/flow queries from shared worlds.

    Parameters
    ----------
    cache:
        World-cache spec: ``None`` follows the active session, else the
        shared process-wide default cache, ``0`` disables caching, a positive integer builds a
        private cache with that entry bound, an instance is shared.

    Requests without a backend override, and every world batch's shard
    plan, use the backend, executor and shard size of the session active
    at each call (see :func:`repro.session`); the shard plan is part of
    every world key (the sharded and unsharded streams differ).
    """

    def __init__(self, *, cache: CacheLike = None) -> None:
        # a None spec tracks the ambient default cache *lazily*, so the
        # active repro.session affects existing evaluators and no
        # replaced cache is pinned alive; explicit specs are resolved once
        self._use_default_cache = cache is None
        self._cache: Optional[WorldCache] = None if cache is None else resolve_cache(cache)
        self.planner = QueryPlanner()
        #: the QueryPlan of the most recent evaluate/warm call (diagnostics)
        self.last_plan: Optional[QueryPlan] = None
        #: world batches sampled (cache misses + uncached groups)
        self.batches_sampled = 0
        #: world batches served from the cache
        self.batches_reused = 0

    @property
    def cache(self) -> Optional[WorldCache]:
        """The active world cache (``None`` when caching is disabled)."""
        if self._use_default_cache:
            return get_default_world_cache()
        return self._cache

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cache = "off" if self.cache is None else len(self.cache)
        return f"<BatchEvaluator backend={get_default_backend()!r} cache={cache}>"

    # ------------------------------------------------------------------
    # planning and sampling
    # ------------------------------------------------------------------
    def plan(self, graph: UncertainGraph, requests: Sequence[QueryRequest]) -> QueryPlan:
        """Return the sharing plan for a batch under the active session.

        The shard-plan component of the world keys is ``None`` when the
        session names no executor (unsharded), else its shard size.
        """
        return self.planner.plan(
            graph,
            requests,
            default_backend=get_default_backend(),
            shard_size=None if get_default_executor() is None else get_default_shard_size(),
        )

    def _group_batch(
        self, graph: UncertainGraph, group: QueryGroup
    ) -> tuple[WorldBatch, bool]:
        """Fetch the group's world batch from the cache or sample it."""
        cache = self.cache  # resolve once so get and put hit the same instance
        tel = current_telemetry()
        if cache is not None:
            cached = cache.get(group.key)
            if cached is not None:
                self.batches_reused += 1
                if tel.enabled:
                    tel.count("service.batches_reused")
                return cached, True
        batch = SamplingEngine(group.key.backend).sample_worlds(
            graph,
            group.source,
            group.key.n_samples,
            seed=group.key.seed,
            edges=None if group.edges is None else list(group.edges),
        )
        self.batches_sampled += 1
        if tel.enabled:
            tel.count("service.batches_sampled")
        if cache is not None:
            cache.put(group.key, batch)
        return batch, False

    # ------------------------------------------------------------------
    # answering
    # ------------------------------------------------------------------
    _validate = staticmethod(validate_request)

    @staticmethod
    def _trivial_result(request: QueryRequest) -> QueryResult:
        """Pair query with source == target: certain, no sampling needed.

        Mirrors :meth:`SamplingEngine.pair_reachability`, which pins the
        estimate at probability 1.0 with the full requested sample count.
        """
        return QueryResult(
            request=request,
            reachability=ReachabilityEstimate(
                probability=1.0,
                n_samples=request.n_samples,
                successes=request.n_samples,
            ),
            n_samples=request.n_samples,
            from_cache=False,
            world_digest=0,
        )

    def _answer(
        self,
        graph: UncertainGraph,
        request: QueryRequest,
        batch: WorldBatch,
        from_cache: bool,
        world_digest: int,
    ) -> QueryResult:
        if request.kind == EXPECTED_FLOW:
            flow = aggregate_expected_flow(
                graph, batch, include_query=request.include_query
            )
            return QueryResult(
                request=request,
                flow=flow,
                n_samples=batch.n_samples,
                from_cache=from_cache,
                world_digest=world_digest,
            )
        if request.kind == COMPONENT_REACHABILITY:
            targets = [vertex for vertex in request.targets if vertex != request.source]
            return QueryResult(
                request=request,
                probabilities=aggregate_component_reachability(batch, targets),
                n_samples=batch.n_samples,
                from_cache=from_cache,
                world_digest=world_digest,
            )
        return QueryResult(
            request=request,
            reachability=aggregate_pair_reachability(batch, request.target),
            n_samples=batch.n_samples,
            from_cache=from_cache,
            world_digest=world_digest,
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate(
        self, graph: UncertainGraph, requests: Iterable[QueryRequest]
    ) -> List[QueryResult]:
        """Answer a mixed batch of requests; results align with input order."""
        request_list = list(requests)
        tel = current_telemetry()
        if not tel.enabled:
            return self._evaluate_batch(graph, request_list)
        with tel.span("service.evaluate", n_requests=len(request_list)) as span:
            results = self._evaluate_batch(graph, request_list)
            plan = self.last_plan
            if plan is not None:
                span.set(
                    n_groups=len(plan.groups),
                    amortization=round(plan.amortization, 3),
                )
            tel.count("service.requests", len(request_list))
            return results

    def _evaluate_batch(
        self, graph: UncertainGraph, request_list: List[QueryRequest]
    ) -> List[QueryResult]:
        for request in request_list:
            self._validate(graph, request)
        results: List[Optional[QueryResult]] = [None] * len(request_list)
        plan = self.last_plan = self.plan(graph, request_list)
        for position, request in plan.trivial:
            results[position] = self._trivial_result(request)
        for group in plan.groups:
            batch, from_cache = self._group_batch(graph, group)
            digest = group.key.digest
            for position, request in group.requests:
                results[position] = self._answer(
                    graph, request, batch, from_cache, digest
                )
        return [result for result in results if result is not None]

    def evaluate_one(self, graph: UncertainGraph, request: QueryRequest) -> QueryResult:
        """Answer a single request (still cache-aware)."""
        return self.evaluate(graph, [request])[0]

    def warm(
        self, graph: UncertainGraph, requests: Iterable[QueryRequest]
    ) -> Dict[str, float]:
        """Pre-sample every world batch a request batch will need.

        Plans the batch and fills the cache for every group that is not
        already resident, without aggregating any answers.  Returns the
        cache statistics afterwards (an empty dict when caching is
        disabled — warming is then a no-op, there is nowhere to keep the
        batches).
        """
        cache = self.cache
        if cache is None:
            return {}
        request_list = list(requests)
        tel = current_telemetry()
        if not tel.enabled:
            self._warm_batch(graph, request_list)
            return cache.stats()
        with tel.span("service.warm", n_requests=len(request_list)) as span:
            self._warm_batch(graph, request_list)
            plan = self.last_plan
            if plan is not None:
                span.set(n_groups=len(plan.groups))
        return cache.stats()

    def _warm_batch(
        self, graph: UncertainGraph, request_list: List[QueryRequest]
    ) -> None:
        for request in request_list:
            self._validate(graph, request)
        plan = self.last_plan = self.plan(graph, request_list)
        for group in plan.groups:
            self._group_batch(graph, group)

    def cache_stats(self) -> Dict[str, float]:
        """Statistics of the active cache (empty dict when disabled)."""
        return {} if self.cache is None else self.cache.stats()

    def __enter__(self) -> "BatchEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        """Nothing to release: executors and caches belong to sessions."""


__all__ = ["BatchEvaluator", "validate_request"]
