"""Async serving tier: a JSONL-over-TCP front end for the batch service.

The estimators answer one query, the :mod:`repro.service` layer answers
one *batch* — this subpackage answers a *stream*: it stands a long-lived
asyncio TCP endpoint (stdlib ``asyncio.start_server``, no dependencies)
on top of :class:`~repro.service.evaluator.BatchEvaluator` so many
clients can share one warm process, one world cache, and one sampling
pool:

* :mod:`repro.server.protocol` — the line-oriented wire format:
  request/response envelopes, error types, and the ``health`` /
  ``metrics`` control kinds;
* :mod:`repro.server.app` — :class:`ReproServer` itself: one
  :class:`~repro.runtime.Session` for every request, the coalescing queue that
  folds concurrently-arriving requests into shared
  :class:`~repro.service.planner.QueryPlanner` groups, admission
  control with bounded in-flight work and explicit ``over_capacity``
  rejections, cache warm-up on startup, and graceful drain on shutdown;
* :mod:`repro.server.metrics` — :class:`ServerMetrics`, the
  request/latency/coalescing counters behind the ``metrics`` kind;
* :mod:`repro.server.client` — :class:`ServerClient`, a pipelining
  asyncio client used by the benchmark harness and tests.

The tier adds *no* semantics: every answer served over the socket is
bit-for-bit identical to a direct
:meth:`~repro.service.evaluator.BatchEvaluator.evaluate` call for the
same ``(seed, backend, shard plan)``.  Start one from the command
line with ``repro serve --graph graph.json`` or in-process via
:func:`repro.server.serve`.
"""

from repro.server.app import (
    ReproServer,
    ServerConfig,
    load_warm_requests,
    serve,
)
from repro.server.client import ServerClient
from repro.server.metrics import ServerMetrics, percentile
from repro.server.protocol import (
    BACKPRESSURE_ERRORS,
    CONTROL_KINDS,
    ERR_BAD_REQUEST,
    ERR_EVALUATION,
    ERR_INTERNAL,
    ERR_OVER_CAPACITY,
    ERR_SHUTTING_DOWN,
    KIND_HEALTH,
    KIND_METRICS,
    KIND_METRICS_TEXT,
    decode_line,
    encode_line,
    error_response,
    is_rejection,
    ok_response,
    request_line,
)

__all__ = [
    "BACKPRESSURE_ERRORS",
    "CONTROL_KINDS",
    "ERR_BAD_REQUEST",
    "ERR_EVALUATION",
    "ERR_INTERNAL",
    "ERR_OVER_CAPACITY",
    "ERR_SHUTTING_DOWN",
    "KIND_HEALTH",
    "KIND_METRICS",
    "KIND_METRICS_TEXT",
    "ReproServer",
    "ServerClient",
    "ServerConfig",
    "ServerMetrics",
    "decode_line",
    "encode_line",
    "error_response",
    "is_rejection",
    "ok_response",
    "percentile",
    "request_line",
    "serve",
]
