"""Opt-in resource profiling: CPU, allocation and GC deltas per span.

:class:`ProfilingTelemetry` is a drop-in :class:`~repro.telemetry.core.Telemetry`
whose spans additionally record

* **CPU time** — :func:`time.thread_time` deltas, so a span that waited
  on a lock or a queue shows near-zero CPU against real wall time;
* **allocated bytes** — :mod:`tracemalloc` current-usage deltas (may be
  negative when a span frees more than it allocates);
* **GC collections** — how many garbage collections ran inside the span
  (summed across generations), surfacing allocation-churn stalls.

Attribution is *self vs. cumulative*: a span's cumulative cost includes
its children, its self cost is the residue after subtracting them.  The
:func:`span_totals` aggregation works in integer microseconds with the
invariant ``cum(parent) >= sum(cum(children))``, so self values are
never negative and the collapsed-stack export (:func:`format_collapsed`,
one ``a;b;c <weight>`` line per stack, directly consumable by
``flamegraph.pl`` / speedscope) reconstructs every cumulative total
*exactly* via :func:`totals_from_collapsed` — pinned by
``tests/test_profiling.py``.

Profiling is chosen by the pipeline: pass a :class:`ProfilingTelemetry`
as ``repro.session(telemetry=...)`` (or ``--profile`` on the CLI) and
everything downstream keeps calling ``tel.span(...)`` unchanged.  With
profiling off nothing here is ever imported at runtime, and results are
bit-for-bit identical either way.

tracemalloc is process-wide, so allocation deltas are exact only for
single-threaded sections; CPU deltas are per-thread and stay exact under
concurrency.  Allocations are traced only while one of the pipeline's
root spans is open: the first root to open starts tracemalloc (unless it
is already running) and the last root to close stops it, if this
pipeline started it.  A profiled session therefore leaves tracing off
once its work is done, whether or not the pipeline is ever closed.
"""

from __future__ import annotations

import gc
import threading
import time
import tracemalloc
from typing import Dict, Iterable, List, Optional, Tuple

from repro.telemetry.core import Telemetry
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import SpanHandle, SpanRecord, current_span, iter_spans


def _gc_collections() -> int:
    """Total collections run so far, summed across generations."""
    return sum(stat["collections"] for stat in gc.get_stats())


class ProfileSpanRecord(SpanRecord):
    """A span record with CPU / allocation / GC deltas attached."""

    __slots__ = ("cpu_s", "alloc_bytes", "gc_collections")

    def __init__(self, name: str, attributes: Optional[Dict[str, object]] = None) -> None:
        super().__init__(name, attributes)
        self.cpu_s: float = 0.0
        self.alloc_bytes: int = 0
        self.gc_collections: int = 0

    def to_dict(self) -> Dict[str, object]:
        data = super().to_dict()
        data["cpu_s"] = self.cpu_s
        data["alloc_bytes"] = self.alloc_bytes
        data["gc_collections"] = self.gc_collections
        return data


class ProfilingSpanHandle(SpanHandle):
    """Times a span's wall clock *and* its resource deltas."""

    __slots__ = ("_cpu_at", "_alloc_at", "_gc_at", "_is_root")

    def __init__(self, owner, name: str, attributes: Optional[Dict[str, object]]) -> None:
        super().__init__(owner, name, attributes)
        self.record = ProfileSpanRecord(name, self.record.attributes or None)
        self._cpu_at = 0.0
        self._alloc_at = 0
        self._gc_at = 0
        self._is_root = False

    def __enter__(self) -> "ProfilingSpanHandle":
        self._is_root = current_span(self._owner) is None
        if self._is_root:
            self._owner._open_root()
        self._cpu_at = time.thread_time()
        self._alloc_at = tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else 0
        self._gc_at = _gc_collections()
        super().__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        record = self.record
        record.cpu_s = time.thread_time() - self._cpu_at
        if tracemalloc.is_tracing():
            record.alloc_bytes = tracemalloc.get_traced_memory()[0] - self._alloc_at
        record.gc_collections = _gc_collections() - self._gc_at
        super().__exit__(*exc_info)
        if self._is_root:
            self._owner._close_root()


class ProfilingTelemetry(Telemetry):
    """An enabled pipeline whose spans carry resource deltas.

    Same constructor contract as :class:`Telemetry`; additionally owns
    the tracemalloc lifecycle.  Tracing runs only while a root span of
    this pipeline is open in some thread (the open roots are counted
    under a lock): the first root starts tracemalloc unless it is
    already running, and the last root stops it only when this instance
    started it, so a pipeline never pulls tracing out from under another
    tracer.  ``trace_allocations=False`` never starts it.
    """

    profiling = True

    def __init__(
        self,
        exporters: Iterable[object] = (),
        registry: Optional[MetricsRegistry] = None,
        trace_allocations: bool = True,
    ) -> None:
        super().__init__(exporters=exporters, registry=registry)
        self._trace_allocations = trace_allocations
        self._roots_lock = threading.Lock()
        self._open_roots = 0
        self._started_tracemalloc = False

    def span(self, name: str, **attributes: object) -> ProfilingSpanHandle:
        return ProfilingSpanHandle(self, name, attributes or None)

    def _open_root(self) -> None:
        with self._roots_lock:
            self._open_roots += 1
            if self._trace_allocations and not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True

    def _close_root(self) -> None:
        with self._roots_lock:
            self._open_roots -= 1
            if self._open_roots == 0 and self._started_tracemalloc:
                tracemalloc.stop()
                self._started_tracemalloc = False


# ----------------------------------------------------------------------
# self-vs-cumulative attribution
# ----------------------------------------------------------------------
def _cum_us(span: SpanRecord) -> int:
    """Cumulative wall microseconds with ``cum >= sum(child cums)``.

    Wall times are measured independently per span, so float jitter can
    make children sum to slightly more than their parent; flooring the
    parent at the children's total keeps every self value >= 0 and makes
    the collapsed-stack reconstruction exact.
    """
    children = sum(_cum_us(child) for child in span.children)
    return max(round(span.duration_s * 1e6), children)


def span_totals(roots: Iterable[SpanRecord]) -> Dict[str, Dict[str, object]]:
    """Aggregate self/cumulative attribution per span name.

    Returns ``{name: {"calls", "self_us", "cum_us", "cpu_us",
    "alloc_bytes", "gc_collections"}}``.  ``cum_us`` counts a name once
    per occurrence (a recursive name's cumulative time can exceed the
    root wall time, as in any profiler); ``self_us`` values across all
    names sum exactly to the roots' cumulative total.
    """
    totals: Dict[str, Dict[str, object]] = {}
    for root in roots:
        for span, _depth, _parent in iter_spans(root):
            cum = _cum_us(span)
            self_us = cum - sum(_cum_us(child) for child in span.children)
            entry = totals.setdefault(
                span.name,
                {
                    "calls": 0,
                    "self_us": 0,
                    "cum_us": 0,
                    "cpu_us": 0,
                    "alloc_bytes": 0,
                    "gc_collections": 0,
                },
            )
            entry["calls"] += 1
            entry["self_us"] += self_us
            entry["cum_us"] += cum
            if isinstance(span, ProfileSpanRecord):
                entry["cpu_us"] += round(span.cpu_s * 1e6)
                entry["alloc_bytes"] += span.alloc_bytes
                entry["gc_collections"] += span.gc_collections
    return totals


# ----------------------------------------------------------------------
# collapsed-stack (flamegraph) export
# ----------------------------------------------------------------------
def collapsed_stacks(roots: Iterable[SpanRecord]) -> Dict[str, int]:
    """Fold span trees into ``{"a;b;c": self_us}`` stacks.

    The weight of each stack line is the *self* time of its leaf frame,
    in integer microseconds — the convention of Brendan Gregg's
    ``flamegraph.pl`` collapsed format.  Stacks reaching the same path
    from different roots merge additively.
    """
    stacks: Dict[str, int] = {}

    def fold(span: SpanRecord, prefix: str) -> None:
        path = f"{prefix};{span.name}" if prefix else span.name
        self_us = _cum_us(span) - sum(_cum_us(child) for child in span.children)
        if self_us > 0:
            stacks[path] = stacks.get(path, 0) + self_us
        for child in span.children:
            fold(child, path)

    for root in roots:
        fold(root, "")
    return stacks


def format_collapsed(roots: Iterable[SpanRecord]) -> str:
    """Render collapsed stacks, one ``path weight`` line, sorted by path."""
    stacks = collapsed_stacks(roots)
    return "\n".join(f"{path} {weight}" for path, weight in sorted(stacks.items()))


def parse_collapsed(text: str) -> Dict[str, int]:
    """Parse :func:`format_collapsed` output back into ``{path: weight}``."""
    stacks: Dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        path, _, weight = line.rpartition(" ")
        if not path:
            raise ValueError(f"malformed collapsed-stack line: {line!r}")
        stacks[path] = stacks.get(path, 0) + int(weight)
    return stacks


def totals_from_collapsed(stacks: Dict[str, int]) -> Dict[str, int]:
    """Reconstruct cumulative totals per path from collapsed stacks.

    The cumulative weight of a path is its own self weight plus every
    descendant path's self weight — exactly inverse to
    :func:`collapsed_stacks`, so for any span forest::

        totals_from_collapsed(collapsed_stacks(roots))[path]
            == cumulative microseconds of that path

    (modulo zero-self stack elision, which cumulative sums are
    insensitive to).
    """
    totals: Dict[str, int] = {}
    for path, weight in stacks.items():
        frames = path.split(";")
        for i in range(len(frames)):
            prefix = ";".join(frames[: i + 1])
            totals[prefix] = totals.get(prefix, 0) + weight
    return totals


# ----------------------------------------------------------------------
# hot-span report
# ----------------------------------------------------------------------
def hot_spans(
    roots: Iterable[SpanRecord], limit: int = 15
) -> List[Tuple[str, Dict[str, object]]]:
    """The ``limit`` hottest span names by self time, descending."""
    totals = span_totals(roots)
    ranked = sorted(totals.items(), key=lambda item: (-item[1]["self_us"], item[0]))
    return ranked[:limit]


def format_hot_spans(roots: Iterable[SpanRecord], limit: int = 15) -> str:
    """Table of the hottest spans: calls, self/cum wall, CPU, alloc, GC."""
    rows = hot_spans(roots, limit)
    header = (
        f"{'span':<42} {'calls':>6} {'self ms':>10} {'cum ms':>10} "
        f"{'cpu ms':>10} {'alloc KiB':>10} {'gc':>4}"
    )
    lines = [header, "-" * len(header)]
    for name, entry in rows:
        lines.append(
            f"{name:<42} {entry['calls']:>6} "
            f"{entry['self_us'] / 1e3:>10.2f} {entry['cum_us'] / 1e3:>10.2f} "
            f"{entry['cpu_us'] / 1e3:>10.2f} {entry['alloc_bytes'] / 1024:>10.1f} "
            f"{entry['gc_collections']:>4}"
        )
    return "\n".join(lines)


__all__ = [
    "ProfileSpanRecord",
    "ProfilingSpanHandle",
    "ProfilingTelemetry",
    "collapsed_stacks",
    "format_collapsed",
    "format_hot_spans",
    "hot_spans",
    "parse_collapsed",
    "span_totals",
    "totals_from_collapsed",
]
