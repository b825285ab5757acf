"""The :class:`Telemetry` facade and its runtime-knob resolution chain.

``Telemetry`` bundles one :class:`~repro.telemetry.registry.MetricsRegistry`
with a span pipeline and its exporters.  It resolves exactly like every
other runtime knob — explicit argument → innermost active
:class:`repro.runtime.Session` → built-in default.  The built-in default
is :data:`NULL_TELEMETRY`, the disabled singleton, unless the
``REPRO_TELEMETRY`` environment variable installed a process-wide
pipeline at import (see :func:`install_env_telemetry`).

Every instrumented call site has one code path: it does ``tel =
current_telemetry()`` and calls ``tel.span`` / ``tel.count`` /
``tel.observe`` / ``tel.gauge`` unconditionally.  When telemetry is off
the resolved pipeline is :data:`NULL_TELEMETRY`, whose methods return
at once: a disabled call costs one no-op method call (its keyword
arguments are still built), and no span record, registry lookup or
instrument is ever created (pinned by the overhead row of
``benchmarks/bench_backends.py`` and the no-op tests).

This module imports only :mod:`repro._runtime_state`, so every layer —
including the low-level backends — can import it without cycles.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Iterable, Optional, Sequence

from repro._runtime_state import resolve_field
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import (
    NULL_SPAN,
    InMemoryExporter,
    JSONLExporter,
    LoggingExporter,
    NullSpanHandle,
    SpanHandle,
    SpanRecord,
    current_span,
)


class Telemetry:
    """One telemetry pipeline: a metrics registry plus span exporters.

    Parameters
    ----------
    exporters:
        Objects with ``export(root_span)`` (and optionally ``close()``);
        each finished *root* span is handed to every exporter with its
        children attached.  Defaults to none — metrics-only pipelines
        are valid and cheap.
    registry:
        Share an existing :class:`MetricsRegistry` instead of building a
        private one (e.g. several sessions emitting into one sink).
    """

    enabled = True
    #: True only on :class:`~repro.telemetry.profile.ProfilingTelemetry`,
    #: whose spans also carry resource deltas.
    profiling = False

    def __init__(
        self,
        exporters: Iterable[object] = (),
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.exporters = list(exporters)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} enabled={self.enabled} "
            f"exporters={[type(e).__name__ for e in self.exporters]}>"
        )

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: object) -> SpanHandle:
        """Open a nested wall-time span (use as a context manager)."""
        return SpanHandle(self, name, attributes or None)

    def current_span(self) -> Optional[SpanRecord]:
        """The innermost open span of this pipeline in the current context."""
        return current_span(self)

    def _export_root(self, root: SpanRecord) -> None:
        for exporter in self.exporters:
            exporter.export(root)

    def add_exporter(self, exporter: object) -> None:
        self.exporters.append(exporter)

    # ------------------------------------------------------------------
    # metric conveniences (mirror the registry, one call shorter)
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).add(amount)

    def observe(self, name: str, value: float, bounds: Optional[Sequence[float]] = None):
        self.metrics.histogram(name, bounds).observe(value)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def snapshot(self):
        return self.metrics.snapshot()

    def close(self) -> None:
        """Close every exporter that supports it (flushes JSONL files)."""
        for exporter in self.exporters:
            close = getattr(exporter, "close", None)
            if close is not None:
                close()


class NullTelemetry(Telemetry):
    """The disabled singleton: every operation is a no-op.

    ``span()`` returns the one shared :data:`~repro.telemetry.spans.NULL_SPAN`
    (no record is built; its ``set`` is a no-op too); the metric methods
    return without touching the (empty, shared) registry.  Instrumented
    call sites do not guard on :attr:`enabled`: these no-ops are the
    whole disabled path.
    """

    enabled = False

    def span(self, name: str, **attributes: object) -> NullSpanHandle:  # type: ignore[override]
        return NULL_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        return None

    def observe(self, name, value, bounds=None) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def _export_root(self, root: SpanRecord) -> None:  # pragma: no cover - unreachable
        return None


#: The process-wide disabled pipeline every resolution falls back to.
NULL_TELEMETRY = NullTelemetry()


# ----------------------------------------------------------------------
# resolution chain
# ----------------------------------------------------------------------
def telemetry_from_spec(spec: object) -> Telemetry:
    """Normalize a ``REPRO_TELEMETRY`` value into a live :class:`Telemetry`.

    ``"log"`` → the stdlib logging bridge; any other string or path → a
    :class:`JSONLExporter` writing to that path.  The switch values
    (``1``/``true``/``on`` and ``0``/``false``/``off``) are handled by
    :func:`install_env_telemetry` before it calls this.
    """
    if isinstance(spec, (str, os.PathLike)):
        if spec == "log":
            return Telemetry(exporters=[LoggingExporter()])
        return Telemetry(exporters=[JSONLExporter(spec)])
    raise TypeError(f"cannot interpret {spec!r} as a telemetry spec")


#: The pipeline ``REPRO_TELEMETRY`` installed at import, if any.
_ENV_TELEMETRY: Optional[Telemetry] = None


def get_default_telemetry() -> Telemetry:
    """Resolve the ambient pipeline: session → ``REPRO_TELEMETRY`` → disabled."""
    telemetry = resolve_field("telemetry", _ENV_TELEMETRY)
    return telemetry if telemetry is not None else NULL_TELEMETRY


#: Alias used by the instrumented call sites: ``tel = current_telemetry()``.
current_telemetry = get_default_telemetry


def traced(name: str, **attributes: object) -> Callable:
    """Decorator form of ``telemetry.span``: resolves the pipeline per call.

    When telemetry is disabled the wrapped function costs one pipeline
    resolution and one no-op span::

        @traced("service.rebalance")
        def rebalance(...): ...
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with get_default_telemetry().span(name, **attributes):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def install_env_telemetry(environ=os.environ) -> None:
    """Install a process-wide default pipeline from ``REPRO_TELEMETRY``.

    Values: ``1``/``true``/``on`` → metrics-only, ``log`` → the logging
    bridge, anything else → a JSONL trace file at that path.  A pipeline
    already installed (or an unset/empty variable) wins — the hook never
    overwrites one.  Any active session still wins over the installed
    pipeline.  Called once at package import so
    any entry point (pytest, CLI, server) can be traced without code
    changes; the CI ``telemetry-smoke`` job runs the tier-1 suite under
    ``REPRO_TELEMETRY=trace.jsonl`` to prove instrumentation never
    changes results.
    """
    global _ENV_TELEMETRY
    raw = environ.get("REPRO_TELEMETRY", "").strip()
    if not raw or _ENV_TELEMETRY is not None:
        return
    if raw.lower() in ("0", "false", "off"):
        return
    if raw.lower() in ("1", "true", "on"):
        _ENV_TELEMETRY = Telemetry()
    else:
        _ENV_TELEMETRY = telemetry_from_spec(raw)


__all__ = [
    "NULL_TELEMETRY",
    "InMemoryExporter",
    "JSONLExporter",
    "LoggingExporter",
    "MetricsRegistry",
    "NullTelemetry",
    "Telemetry",
    "current_telemetry",
    "get_default_telemetry",
    "install_env_telemetry",
    "telemetry_from_spec",
    "traced",
]
