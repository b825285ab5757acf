"""The serving tier's JSONL-over-TCP wire protocol.

One JSON object per ``\\n``-terminated line, in both directions.  A
request is the :mod:`repro.service.requests` JSONL object format plus
two transport fields::

    {"id": 17, "tenant": "team-a", "kind": "expected_flow",
     "query": 0, "n_samples": 500, "seed": 7}

``id`` (optional, any JSON value) is echoed verbatim on the response so
clients may pipeline requests on one connection — responses are **not**
guaranteed to arrive in request order.  ``tenant`` (optional) must be
a string when present; it labels the request but selects nothing —
every request is evaluated under the server's one
:class:`repro.runtime.Session`.

Two *control* kinds bypass the coalescing queue and are answered inline
even when the server is saturated or draining:

* ``{"kind": "health"}`` → liveness plus the served graph's shape;
* ``{"kind": "metrics"}`` → the observability snapshot
  (request/latency counters, coalescing stats, ``WorldCache.stats()``,
  executor workers/shard size);
* ``{"kind": "metrics_text"}`` → the same snapshot rendered as
  Prometheus exposition text (the ``text`` response field) — byte-for-
  byte what the ``/metrics`` HTTP scrape endpoint serves.

Every response carries ``"ok"``.  Success::

    {"id": 17, "ok": true, "kind": "expected_flow", "query": 0,
     "expected_flow": 12.25, ..., "latency_ms": 3.1}

Failure — including the explicit admission-control rejections, which are
*responses*, never dropped connections or hangs::

    {"id": 17, "ok": false,
     "error": {"type": "over_capacity",
               "message": "server is at its in-flight request bound (256); retry"}}

Error types: :data:`ERR_BAD_REQUEST` (malformed JSON, unknown fields,
unknown vertices, lines over the server's 64 KiB limit),
:data:`ERR_OVER_CAPACITY` (admission control — retry later),
:data:`ERR_SHUTTING_DOWN` (the server is draining),
:data:`ERR_EVALUATION` (the engine rejected the admitted batch), and
:data:`ERR_INTERNAL` (unexpected server-side failure).
"""

from __future__ import annotations

import json
from typing import Dict, Optional

#: Control request kinds, answered inline on the event loop.
KIND_HEALTH = "health"
KIND_METRICS = "metrics"
KIND_METRICS_TEXT = "metrics_text"
CONTROL_KINDS = (KIND_HEALTH, KIND_METRICS, KIND_METRICS_TEXT)

#: Error ``type`` values a client can dispatch on.
ERR_BAD_REQUEST = "bad_request"
ERR_OVER_CAPACITY = "over_capacity"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_EVALUATION = "evaluation_failed"
ERR_INTERNAL = "internal"

#: Rejection types that signal backpressure (retrying later can succeed).
BACKPRESSURE_ERRORS = (ERR_OVER_CAPACITY, ERR_SHUTTING_DOWN)


def encode_line(payload: Dict[str, object]) -> bytes:
    """Serialise one response/request object into its wire line."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, object]:
    """Parse one wire line into a JSON object (``ValueError`` on garbage).

    Garbage includes nesting deep enough to exhaust the parser's
    recursion limit: a hostile line must never escape as anything but a
    ``ValueError`` (which the server answers as ``bad_request``).
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except RecursionError:
        raise ValueError("protocol line is nested too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError(f"protocol lines must be JSON objects, got {payload!r}")
    return payload


def ok_response(request_id: object, payload: Dict[str, object]) -> Dict[str, object]:
    """Build a success envelope around a result payload."""
    response: Dict[str, object] = {"id": request_id, "ok": True}
    response.update(payload)
    return response


def error_response(
    request_id: object, error_type: str, message: str
) -> Dict[str, object]:
    """Build a failure envelope (also used for admission rejections)."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": error_type, "message": message},
    }


def request_line(
    payload: Dict[str, object],
    request_id: object = None,
    tenant: Optional[str] = None,
) -> bytes:
    """Attach transport fields to a request object and encode it."""
    wire = dict(payload)
    if request_id is not None:
        wire["id"] = request_id
    if tenant is not None:
        wire["tenant"] = tenant
    return encode_line(wire)


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
    "decode_line",
    "encode_line",
    "error_response",
    "ok_response",
    "request_line",
]
