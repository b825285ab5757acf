"""Observability counters of the serving tier.

:class:`ServerMetrics` aggregates everything the ``metrics`` control
kind reports that the server itself owns — request outcomes, coalescing
effectiveness, and a fixed-bucket latency histogram from which the
percentile fields (p50/p95/p99) are interpolated via
:meth:`~repro.telemetry.registry.Histogram.quantile`.  The histogram
replaced the earlier bounded sliding window of raw latencies: constant
memory regardless of traffic, no per-snapshot sort, and the same
estimator the Prometheus exposition layer
(:mod:`repro.telemetry.expo`) serves, so a scrape and a ``metrics``
control response can never disagree about a percentile.  Cache and
executor statistics are *not* duplicated here; the server overlays
``WorldCache.stats()`` and the executor's worker/shard configuration
into the same snapshot at report time, so one ``metrics`` response is
the whole observability surface.

All mutators take one internal lock: counters are bumped from the event
loop *and* read from arbitrary threads (tests, embedding applications),
and a torn read would defeat the point of an observability surface —
the same reasoning as :attr:`repro.service.cache.WorldCache.hit_rate`.

Every mutator also forwards into the server's
:class:`repro.telemetry.Telemetry` pipeline under ``server.*`` names,
so with a live pipeline one registry snapshot spans engine, executor,
caches *and* the serving tier; with the disabled default the forwards
are no-op calls.  The Prometheus exposition renders the request and
coalescing counters from :meth:`ServerMetrics.snapshot` and skips
their ``server.*`` registry copies, so each series appears once.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.registry import Histogram

#: Coalesced-batch-size histogram bounds (batches are small by design).
_BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


class ServerMetrics:
    """Request, rejection, coalescing and latency counters.

    Parameters
    ----------
    telemetry:
        A :class:`repro.telemetry.Telemetry` pipeline to forward every
        counter into (``server.*`` registry names).  Defaults to the
        disabled singleton — forwarding then costs one no-op call per
        counter.
    """

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._lock = threading.Lock()
        #: query requests admitted to the coalescing queue
        self.admitted = 0
        #: successful query responses, total and by request kind
        self.answered = 0
        self.answered_by_kind: Dict[str, int] = {}
        #: error responses for *admitted* requests (evaluation failures)
        self.failed = 0
        #: explicit admission-control rejections, by error type
        self.rejected: Dict[str, int] = {}
        #: malformed / invalid requests turned away at parse time
        self.bad_requests = 0
        #: health/metrics control requests served
        self.control = 0
        #: coalescing: batches dispatched and the requests they carried
        self.batches = 0
        self.batched_requests = 0
        self.largest_batch = 0
        # private (never shared with a telemetry registry): percentiles
        # must work with telemetry disabled, and a shared instrument
        # could be reset out from under us
        self._latency_hist = Histogram("server.latency_seconds")
        #: windowed rates published by the server's periodic
        #: snapshot-delta task (:class:`repro.telemetry.expo.WindowRates`)
        self._rates: Optional[Dict[str, Optional[float]]] = None

    # ------------------------------------------------------------------
    # mutators
    # ------------------------------------------------------------------
    def observe_admitted(self) -> None:
        with self._lock:
            self.admitted += 1
        self._telemetry.count("server.admitted")

    def observe_answered(self, kind: str, latency_seconds: float) -> None:
        with self._lock:
            self.answered += 1
            self.answered_by_kind[kind] = self.answered_by_kind.get(kind, 0) + 1
        self._latency_hist.observe(latency_seconds)
        tel = self._telemetry
        tel.count("server.answered")
        tel.observe("server.latency_seconds", latency_seconds)

    def observe_failed(self) -> None:
        with self._lock:
            self.failed += 1
        self._telemetry.count("server.failed")

    def observe_rejected(self, error_type: str) -> None:
        with self._lock:
            self.rejected[error_type] = self.rejected.get(error_type, 0) + 1
        self._telemetry.count("server.rejected")

    def observe_bad_request(self) -> None:
        with self._lock:
            self.bad_requests += 1
        self._telemetry.count("server.bad_requests")

    def observe_control(self) -> None:
        with self._lock:
            self.control += 1
        self._telemetry.count("server.control")

    def observe_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += size
            self.largest_batch = max(self.largest_batch, size)
        tel = self._telemetry
        tel.count("server.batches")
        tel.count("server.batched_requests", size)
        tel.observe("server.batch_size", size, bounds=_BATCH_SIZE_BUCKETS)

    def set_rates(self, rates: Optional[Dict[str, Optional[float]]]) -> None:
        """Publish the latest windowed rates into the snapshot."""
        with self._lock:
            self._rates = dict(rates) if rates is not None else None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """One consistent view of every counter (all numbers JSON-safe)."""
        hist = self._latency_hist.summary()
        with self._lock:
            batches = self.batches
            rates = dict(self._rates) if self._rates is not None else None
            snapshot: Dict[str, object] = {
                "requests": {
                    "admitted": self.admitted,
                    "answered": self.answered,
                    "answered_by_kind": dict(self.answered_by_kind),
                    "failed": self.failed,
                    "rejected": dict(self.rejected),
                    "bad_requests": self.bad_requests,
                    "control": self.control,
                },
                "coalescing": {
                    "batches": batches,
                    "batched_requests": self.batched_requests,
                    "largest_batch": self.largest_batch,
                    "mean_batch_size": (
                        self.batched_requests / batches if batches else None
                    ),
                },
            }
        count = hist["count"]
        mean = hist["mean"]
        latency: Dict[str, object] = {
            "count": count,
            "mean": None if mean is None else 1000.0 * float(mean),
        }
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            value = self._latency_hist.quantile(q)
            latency[name] = None if value is None else 1000.0 * value
        peak = hist["max"]
        latency["max"] = None if peak is None else 1000.0 * float(peak)
        snapshot["latency_ms"] = latency
        if rates is not None:
            snapshot["rates"] = rates
        return snapshot


__all__ = ["ServerMetrics"]
