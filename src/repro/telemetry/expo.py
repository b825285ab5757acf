"""Prometheus-text exposition of the telemetry and server metrics.

Renders a :meth:`~repro.telemetry.registry.MetricsRegistry.snapshot`
(and the server's merged observability payload) into the Prometheus
text exposition format (version 0.0.4) — the lingua franca every
scraper understands — without depending on any Prometheus client
library:

* counters → ``repro_<name>_total`` with ``# TYPE ... counter``;
* gauges → ``repro_<name>``;
* histograms → ``_bucket{le="..."}`` series with **cumulative** counts
  and the mandatory ``+Inf`` bucket, plus ``_sum`` / ``_count``, plus a
  companion gauge family ``repro_<name>_quantile{quantile="0.5|0.95|0.99"}``
  interpolated from the buckets by
  :func:`repro.telemetry.registry.bucket_quantile`.

Two transports serve the same text: the ``metrics_text`` control kind on
the JSONL protocol (:mod:`repro.server.protocol`) and the
:class:`MetricsHTTPServer` ``/metrics`` scrape endpoint — a stdlib
:class:`~http.server.ThreadingHTTPServer` the :class:`repro.server.app.ReproServer`
stands up next to its TCP listener (``repro serve --metrics-port``).

:class:`WindowRates` is the periodic snapshot-delta companion: fed the
server's metrics payload every interval, it turns lifetime totals into
windowed rates (qps, cache hit-rate, rejection-rate) published as
plain gauges so a scrape shows current load, not just since-boot sums.
"""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro.telemetry.registry import bucket_quantile

#: Content type of the Prometheus text exposition format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Quantiles estimated from every histogram's buckets.
QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str, prefix: str = "repro") -> str:
    """Map a dotted registry name onto a legal Prometheus metric name.

    ``engine.worlds_sampled`` → ``repro_engine_worlds_sampled``; any
    character outside ``[a-zA-Z0-9_:]`` becomes ``_``, and a leading
    digit gets an underscore prepended.
    """
    sanitized = _INVALID_CHARS.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"{prefix}_{sanitized}" if prefix else sanitized


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _sample(
    name: str, value: float, labels: Optional[Dict[str, object]] = None
) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(str(val))}"' for key, val in sorted(labels.items())
        )
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


class _TextBuilder:
    """Accumulates exposition lines, emitting each ``# TYPE`` once."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._typed: set = set()

    def _type(self, family: str, kind: str) -> None:
        if family not in self._typed:
            self._typed.add(family)
            self.lines.append(f"# TYPE {family} {kind}")

    def counter(self, family: str, value: float, labels=None) -> None:
        self._type(family, "counter")
        self.lines.append(_sample(family, value, labels))

    def gauge(self, family: str, value: Optional[float], labels=None) -> None:
        if value is None:
            return
        self._type(family, "gauge")
        self.lines.append(_sample(family, value, labels))

    def histogram(self, family: str, summary: Dict[str, object]) -> None:
        """Emit one histogram family from a registry ``summary()`` dict."""
        self._type(family, "histogram")
        cumulative = 0
        bounds: List[float] = []
        counts: List[int] = []
        for bucket in summary["buckets"]:  # type: ignore[index]
            counts.append(int(bucket["count"]))
            if bucket["le"] is not None:
                bounds.append(float(bucket["le"]))
                cumulative += int(bucket["count"])
                self.lines.append(
                    _sample(f"{family}_bucket", cumulative, {"le": _format_value(bucket["le"])})
                )
        self.lines.append(
            _sample(f"{family}_bucket", int(summary["count"]), {"le": "+Inf"})
        )
        self.lines.append(_sample(f"{family}_sum", float(summary["sum"])))
        self.lines.append(_sample(f"{family}_count", int(summary["count"])))
        count = int(summary["count"])
        if count:
            lo = float(summary["min"])  # type: ignore[arg-type]
            hi = float(summary["max"])  # type: ignore[arg-type]
            for q in QUANTILES:
                estimate = bucket_quantile(bounds, counts, count, lo, hi, q)
                if estimate is not None:
                    self.gauge(
                        f"{family}_quantile", estimate, {"quantile": _format_value(q)}
                    )

    def text(self) -> str:
        return "\n".join(self.lines) + "\n" if self.lines else ""


def _render_registry_into(
    builder: _TextBuilder, snapshot: Dict[str, Dict[str, object]]
) -> None:
    for name, value in snapshot.get("counters", {}).items():
        builder.counter(f"{sanitize_metric_name(name)}_total", value)
    for name, value in snapshot.get("gauges", {}).items():
        builder.gauge(sanitize_metric_name(name), value)
    for name, summary in snapshot.get("histograms", {}).items():
        builder.histogram(sanitize_metric_name(name), summary)


def render_server_text(payload: Dict[str, object]) -> str:
    """Render the server's merged ``metrics`` payload as Prometheus text.

    Input is exactly what the ``metrics`` control kind returns
    (``ReproServer._metrics_payload()``): request/coalescing/latency
    sections, cache stats, executor info, and the shared telemetry
    registry snapshot.  Every numeric field becomes a sample, and no
    ``name{labels}`` sample appears twice, so a ``/metrics`` scrape and a
    ``metrics`` control response always agree — pinned by
    ``tests/test_profiling.py``.
    """
    builder = _TextBuilder()
    requests: Dict[str, object] = payload.get("requests", {})  # type: ignore[assignment]
    for field in ("admitted", "answered", "failed", "bad_requests", "control"):
        if field in requests:
            builder.counter(f"repro_server_{field}_total", requests[field])
    for kind, count in sorted(requests.get("answered_by_kind", {}).items()):  # type: ignore[union-attr]
        builder.counter("repro_server_answered_by_kind_total", count, {"kind": kind})
    for error_type, count in sorted(requests.get("rejected", {}).items()):  # type: ignore[union-attr]
        builder.counter("repro_server_rejected_total", count, {"error_type": error_type})

    coalescing: Dict[str, object] = payload.get("coalescing", {})  # type: ignore[assignment]
    for field in ("batches", "batched_requests"):
        if field in coalescing:
            builder.counter(f"repro_server_{field}_total", coalescing[field])
    builder.gauge("repro_server_largest_batch", coalescing.get("largest_batch"))
    builder.gauge("repro_server_mean_batch_size", coalescing.get("mean_batch_size"))

    latency: Dict[str, object] = payload.get("latency_ms", {})  # type: ignore[assignment]
    if "count" in latency:
        builder.counter("repro_server_latency_count_total", latency["count"])
    for field in ("mean", "p50", "p95", "p99", "max"):
        builder.gauge(f"repro_server_latency_ms_{field}", latency.get(field))

    for name, value in sorted(payload.get("cache", {}).items()):  # type: ignore[union-attr]
        builder.gauge(sanitize_metric_name(f"cache.{name}", "repro_server"), value)

    executor: Dict[str, object] = payload.get("executor", {})  # type: ignore[assignment]
    builder.gauge("repro_server_executor_workers", executor.get("workers"))
    builder.gauge("repro_server_executor_shard_size", executor.get("shard_size"))
    builder.gauge(
        "repro_server_executor_sharded", 1 if executor.get("sharded") else 0
    )

    builder.gauge("repro_server_inflight", payload.get("inflight"))
    builder.gauge("repro_server_max_inflight", payload.get("max_inflight"))

    rates: Dict[str, object] = payload.get("rates") or {}  # type: ignore[assignment]
    for field in ("qps", "hit_rate", "rejection_rate", "window_s"):
        builder.gauge(f"repro_server_rate_{field}", rates.get(field))

    telemetry: Dict[str, Dict[str, object]] = payload.get("telemetry")  # type: ignore[assignment]
    if telemetry:
        # the registry's server.* counters are ServerMetrics' forwards of
        # the requests/coalescing counters rendered above: skip them so
        # each series is exposed once
        counters = {
            name: value
            for name, value in telemetry.get("counters", {}).items()
            if not name.startswith("server.")
        }
        _render_registry_into(builder, {**telemetry, "counters": counters})
    return builder.text()


# ----------------------------------------------------------------------
# windowed rates from snapshot deltas
# ----------------------------------------------------------------------
class WindowRates:
    """Turns successive lifetime totals into windowed rate gauges.

    Call :meth:`update` with the current monotonic time and the server's
    metrics payload once per interval; it returns (and remembers for the
    snapshot) the rates over the *elapsed window*:

    * ``qps`` — answered requests per second;
    * ``hit_rate`` — world-cache hits / (hits + misses) in the window
      (``None`` while the window saw no cache traffic);
    * ``rejection_rate`` — rejections / (admitted + rejected) in the
      window (``None`` while it saw no admission decisions).

    The first update only records the baseline and returns ``None``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._last: Optional[Tuple[float, int, int, int, float, float]] = None
        self.rates: Optional[Dict[str, Optional[float]]] = None

    @staticmethod
    def _totals(payload: Dict[str, object]) -> Tuple[int, int, int, float, float]:
        requests: Dict[str, object] = payload.get("requests", {})  # type: ignore[assignment]
        rejected = requests.get("rejected", {})
        cache: Dict[str, float] = payload.get("cache", {})  # type: ignore[assignment]
        return (
            int(requests.get("answered", 0)),  # type: ignore[arg-type]
            int(requests.get("admitted", 0)),  # type: ignore[arg-type]
            sum(rejected.values()) if isinstance(rejected, dict) else 0,
            float(cache.get("hits", 0.0)),
            float(cache.get("misses", 0.0)),
        )

    def update(
        self, now: float, payload: Dict[str, object]
    ) -> Optional[Dict[str, Optional[float]]]:
        answered, admitted, rejected, hits, misses = self._totals(payload)
        with self._lock:
            last = self._last
            self._last = (now, answered, admitted, rejected, hits, misses)
            if last is None:
                return None
            then, answered0, admitted0, rejected0, hits0, misses0 = last
            window = now - then
            if window <= 0:
                return self.rates
            d_hits, d_misses = hits - hits0, misses - misses0
            d_admitted = admitted - admitted0
            d_rejected = rejected - rejected0
            decisions = d_admitted + d_rejected
            self.rates = {
                "qps": (answered - answered0) / window,
                "hit_rate": (
                    d_hits / (d_hits + d_misses) if (d_hits + d_misses) > 0 else None
                ),
                "rejection_rate": (d_rejected / decisions if decisions > 0 else None),
                "window_s": window,
            }
            return self.rates


# ----------------------------------------------------------------------
# the /metrics scrape endpoint
# ----------------------------------------------------------------------
class MetricsHTTPServer:
    """A stdlib HTTP server exposing one text callback at ``/metrics``.

    ``render`` is called per scrape on the serving thread (it must be
    thread-safe; :func:`render_server_text` over a payload is).  ``port=0`` binds an
    ephemeral port — read :attr:`address` after :meth:`start`.
    """

    def __init__(
        self, render: Callable[[], str], host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._render = render
        self._host = host
        self._port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        if self._httpd is None:
            raise RuntimeError("metrics server is not started")
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> "MetricsHTTPServer":
        if self._httpd is not None:
            raise RuntimeError("metrics server is already started")
        render = self._render

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib API
                if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                    self.send_error(404, "only /metrics is served here")
                    return
                try:
                    body = render().encode("utf-8")
                except Exception as error:  # scrape must not kill the server
                    self.send_error(500, f"metrics rendering failed: {error}")
                    return
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args: object) -> None:
                pass  # scrapes are high-frequency; stay quiet

        self._httpd = ThreadingHTTPServer((self._host, self._port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None


__all__ = [
    "CONTENT_TYPE",
    "QUANTILES",
    "MetricsHTTPServer",
    "WindowRates",
    "render_server_text",
    "sanitize_metric_name",
]
