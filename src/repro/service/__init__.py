"""Batched multi-query evaluation service with digest-keyed world caching.

The estimators in :mod:`repro.reachability` answer one query at a time;
this subpackage is the request-oriented layer that serves *many*
concurrent queries by amortizing their dominant cost — possible-world
sampling — across everything that can share it:

* :mod:`repro.service.requests` — the :class:`QueryRequest` /
  :class:`QueryResult` API (expected flow, pair reachability, component
  reachability — mixed in one batch) and the JSONL wire format of the
  CLI's ``batch`` command;
* :mod:`repro.service.planner` — :class:`QueryPlanner` groups a batch by
  ``(graph digest, edge restriction, source, backend, seed, n_samples,
  shard plan)`` so every group is answered from **one** shared
  :class:`~repro.reachability.engine.WorldBatch` via bulk column
  gathers;
* :mod:`repro.service.cache` — :class:`WorldCache`, a bounded LRU
  (:class:`repro.lru.LRUCache`) keyed by a stable digest of the graph
  content (via :mod:`repro.digest`, the same hashing scheme as the
  F-tree memo), reusing sampled batches across successive batches and
  runs, with hit/miss/eviction statistics;
* :mod:`repro.service.evaluator` — :class:`BatchEvaluator`, the front
  door tying the three together.

The subsystem inherits the library's determinism contract unchanged:
every batched answer is bit-for-bit identical to the corresponding
single-query estimator call for the same ``(seed, backend, shard
plan)``.
"""

from repro.service.cache import (
    CacheLike,
    WorldCache,
    WorldKey,
    get_default_world_cache,
    resolve_cache,
)
from repro.service.evaluator import BatchEvaluator, validate_request
from repro.service.planner import QueryGroup, QueryPlan, QueryPlanner
from repro.service.requests import (
    COMPONENT_REACHABILITY,
    EXPECTED_FLOW,
    PAIR_REACHABILITY,
    QUERY_KINDS,
    QueryRequest,
    QueryResult,
    request_from_dict,
    request_to_dict,
    result_to_dict,
)

__all__ = [
    "BatchEvaluator",
    "CacheLike",
    "COMPONENT_REACHABILITY",
    "EXPECTED_FLOW",
    "PAIR_REACHABILITY",
    "QUERY_KINDS",
    "QueryGroup",
    "QueryPlan",
    "QueryPlanner",
    "QueryRequest",
    "QueryResult",
    "WorldCache",
    "WorldKey",
    "get_default_world_cache",
    "request_from_dict",
    "request_to_dict",
    "resolve_cache",
    "result_to_dict",
    "validate_request",
]
