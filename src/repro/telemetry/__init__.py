"""``repro.telemetry`` — the unified observability layer.

One :class:`MetricsRegistry` (thread-safe counters / gauges /
fixed-bucket histograms) plus span-based tracing with pluggable
exporters, resolved like every other runtime knob: explicit argument →
active :class:`repro.runtime.Session` → the pipeline ``REPRO_TELEMETRY``
installed, if any → :data:`NULL_TELEMETRY` (disabled, all no-ops).  Every hot path of the
stack — engine sampling, the CSR backend's dense/sparse round mix, the
process-pool executor, the world/layout caches, the batch service and
the server — emits through the resolved pipeline, so one snapshot
explains where a query's time went.

Enable per scope::

    import repro
    from repro.telemetry import Telemetry, InMemoryExporter

    tel = Telemetry(exporters=[InMemoryExporter()])
    with repro.session(telemetry=tel) as s:
        s.expected_flow(graph, query, n_samples=1000)
    print(tel.snapshot()["counters"])          # engine.*, cache.*, ...

or process-wide, without touching code, via the ``REPRO_TELEMETRY``
environment variable (``1``/``true``/``on``, ``log`` or a JSONL path).

On the CLI: ``--trace`` / ``--trace-out`` / ``--profile`` /
``--flame-out`` on the workload subcommands print the span tree and the
registry when the command finishes (e.g. ``repro-flow batch ... --trace``).

Two optional companions build on this core:

* :mod:`repro.telemetry.profile` — opt-in resource profiling
  (:class:`ProfilingTelemetry`): per-span CPU/allocation/GC deltas,
  self-vs-cumulative attribution, collapsed-stack (flamegraph) export;
* :mod:`repro.telemetry.expo` — Prometheus-text exposition of registry
  snapshots, the ``/metrics`` HTTP scrape endpoint, and windowed rates.
"""

from repro.telemetry.core import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    current_telemetry,
    get_default_telemetry,
    install_env_telemetry,
    telemetry_from_spec,
    traced,
)
from repro.telemetry.expo import (
    MetricsHTTPServer,
    WindowRates,
    render_server_text,
    sanitize_metric_name,
)
from repro.telemetry.profile import (
    ProfileSpanRecord,
    ProfilingTelemetry,
    collapsed_stacks,
    format_collapsed,
    format_hot_spans,
    hot_spans,
    parse_collapsed,
    span_totals,
    totals_from_collapsed,
)
from repro.telemetry.registry import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
)
from repro.telemetry.spans import (
    InMemoryExporter,
    JSONLExporter,
    LoggingExporter,
    SpanRecord,
    format_span_tree,
    iter_spans,
)

#: ``REPRO_TELEMETRY=<path|log|1>`` installs a process-wide default
#: pipeline at import time (never overwriting explicit configuration).
install_env_telemetry()

__all__ = [
    "Counter",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "InMemoryExporter",
    "JSONLExporter",
    "LoggingExporter",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "ProfileSpanRecord",
    "ProfilingTelemetry",
    "SpanRecord",
    "Telemetry",
    "WindowRates",
    "bucket_quantile",
    "collapsed_stacks",
    "current_telemetry",
    "format_collapsed",
    "format_hot_spans",
    "format_span_tree",
    "get_default_telemetry",
    "hot_spans",
    "install_env_telemetry",
    "iter_spans",
    "parse_collapsed",
    "render_server_text",
    "sanitize_metric_name",
    "span_totals",
    "telemetry_from_spec",
    "totals_from_collapsed",
    "traced",
]
