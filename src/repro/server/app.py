"""The asyncio serving tier: coalescing, admission control, one session.

:class:`ReproServer` stands a long-lived JSONL-over-TCP endpoint (plain
``asyncio.start_server``, stdlib only) on top of the batched evaluation
service.  The moving parts, in request order:

1. **Admission** — each line is parsed and validated on the event loop
   (exactly the :func:`repro.service.validate_request` rules), then
   either *rejected immediately* with an explicit error response — the
   server is draining, or the in-flight bound
   (:attr:`ServerConfig.max_inflight`) is reached — or enqueued.
   Rejection is always a response, never a hang: backpressure is part
   of the protocol (see :mod:`repro.server.protocol`).
2. **Coalescing** — a single dispatcher task drains the queue into
   batches: everything already waiting is taken at once, then the
   window (:attr:`ServerConfig.batch_window_ms`) is waited out for
   co-arriving requests, up to :attr:`ServerConfig.max_batch`.
   Concurrently arriving requests from *different connections* thereby
   land in one :class:`~repro.service.evaluator.BatchEvaluator` call,
   where the :class:`~repro.service.planner.QueryPlanner` collapses
   them onto shared world batches — the whole point of the tier.
3. **Evaluation** — batches run on one dedicated worker thread (the
   event loop stays responsive for health/metrics and admission),
   through the server's one :class:`repro.runtime.Session` built from
   :attr:`ServerConfig.runtime`.  A request's ``tenant`` is validated
   but keeps no server state: every tenant would derive the identical
   runtime, so a batch is evaluated whole, whatever tenants it mixes,
   and untrusted tenant names cannot grow the server's memory.
4. **Response** — per-request writer tasks send each answer as soon as
   its future resolves, tagged with the request's ``id`` (responses may
   interleave across a pipelining connection) and its measured latency.

The determinism contract survives the socket: an answer served over TCP
is bit-for-bit the answer a direct
:meth:`~repro.service.evaluator.BatchEvaluator.evaluate` call returns
for the same ``(seed, backend, shard plan)`` — coalescing changes *when*
worlds are sampled, never *which*.

Lifecycle: :meth:`ReproServer.start` optionally warms the world cache
(:attr:`ServerConfig.warm_requests`) before accepting connections;
:meth:`ReproServer.stop` drains gracefully — stop listening, reject new
work, finish every admitted request, flush every response, then release
the session, pool and evaluation thread.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ReproError
from repro.graph.uncertain_graph import UncertainGraph
from repro.parallel.plan import get_default_shard_size
from repro.runtime import RuntimeConfig, Session
from repro.server import protocol
from repro.server.metrics import ServerMetrics
from repro.telemetry.expo import MetricsHTTPServer, WindowRates, render_server_text
from repro.service.cache import get_default_world_cache
from repro.service.evaluator import validate_request
from repro.service.requests import (
    QueryRequest,
    request_from_dict,
    result_to_dict,
)
from repro.telemetry import get_default_telemetry

logger = logging.getLogger(__name__)

#: Longest request line a connection reads (the ``StreamReader`` limit);
#: a longer line is answered with ``bad_request`` and its connection
#: closed, because the line's unread tail leaves the framing unknown.
_MAX_LINE_BYTES = 64 * 1024

#: Seconds a connection closed for an overlong line keeps discarding
#: input: closing with unread input makes the kernel reset the
#: connection, which can destroy the error response before it is read.
_LINGER_S = 5.0


@dataclass(frozen=True)
class ServerConfig:
    """Everything a :class:`ReproServer` is configured by.

    Attributes
    ----------
    host, port:
        Listen address; port ``0`` binds an ephemeral port (the bound
        address is :attr:`ReproServer.address` after ``start``).
    max_batch:
        Coalescing bound: at most this many queued requests are
        dispatched as one evaluation batch.
    batch_window_ms:
        Coalescing window: after the first request of a batch arrives,
        how long the dispatcher waits for co-arriving requests before
        dispatching (``0`` dispatches whatever is already queued).
    max_inflight:
        Admission bound on requests admitted but not yet answered
        (queued + evaluating); requests beyond it receive an explicit
        ``over_capacity`` rejection response immediately.
    default_n_samples, default_seed:
        Fallbacks for requests that do not pin their own.
    runtime:
        The :class:`~repro.runtime.RuntimeConfig` of the server's
        session (backend, workers, shard size, world-cache spec).
    warm_requests:
        Requests whose world batches are pre-sampled into the cache
        before the server starts accepting connections.
    metrics_port:
        When not ``None``, :meth:`ReproServer.start` additionally stands
        up a ``/metrics`` HTTP scrape endpoint
        (:class:`repro.telemetry.expo.MetricsHTTPServer`) on
        ``(metrics_host, metrics_port)``; port ``0`` binds an ephemeral
        port (read :attr:`ReproServer.metrics_address`).
    metrics_host:
        Bind address of the scrape endpoint.
    rate_interval_s:
        Period of the windowed-rate task (qps, cache hit-rate,
        rejection-rate from snapshot deltas); ``0`` disables it.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 64
    batch_window_ms: float = 2.0
    max_inflight: int = 256
    default_n_samples: int = 1000
    default_seed: int = 0
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    warm_requests: Tuple[QueryRequest, ...] = ()
    metrics_port: Optional[int] = None
    metrics_host: str = "127.0.0.1"
    rate_interval_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch!r}")
        if self.batch_window_ms < 0:
            raise ValueError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms!r}"
            )
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight!r}")
        if self.default_n_samples <= 0:
            raise ValueError(
                f"default_n_samples must be positive, got {self.default_n_samples!r}"
            )
        if not isinstance(self.runtime, RuntimeConfig):
            raise TypeError(f"runtime must be a RuntimeConfig, got {self.runtime!r}")
        if self.metrics_port is not None and not (0 <= self.metrics_port <= 65535):
            raise ValueError(
                f"metrics_port must be a port number, got {self.metrics_port!r}"
            )
        if self.rate_interval_s < 0:
            raise ValueError(
                f"rate_interval_s must be >= 0, got {self.rate_interval_s!r}"
            )
        object.__setattr__(self, "warm_requests", tuple(self.warm_requests))


class _Pending:
    """One admitted query request travelling through the coalescing queue."""

    __slots__ = ("request_id", "request", "future", "enqueued_at")

    def __init__(self, request_id, request, future, enqueued_at):
        self.request_id = request_id
        self.request = request
        self.future = future
        self.enqueued_at = enqueued_at


class ReproServer:
    """A JSONL-over-TCP query server over one uncertain graph.

    Parameters
    ----------
    graph:
        The graph every query runs against.
    config:
        A :class:`ServerConfig`; keyword ``overrides`` are applied on
        top (``ReproServer(graph, port=7421, max_batch=32)``).
    """

    def __init__(
        self,
        graph: UncertainGraph,
        config: Optional[ServerConfig] = None,
        **overrides,
    ) -> None:
        base = config if config is not None else ServerConfig()
        if overrides:
            import dataclasses

            base = dataclasses.replace(base, **overrides)
        self.graph = graph
        self.config = base
        self._root = Session(base.runtime)
        # the pipeline is resolved once, at construction: the session's
        # (owned/shared/pinned-off) pipeline when the runtime names one,
        # else whatever is ambient *now* — the server outlives request
        # contexts, so late resolution would be a per-request surprise
        session_telemetry = self._root.telemetry
        self.telemetry = (
            session_telemetry if session_telemetry is not None else get_default_telemetry()
        )
        self.metrics = ServerMetrics(telemetry=self.telemetry)
        self._window_rates = WindowRates()
        self._metrics_http: Optional[MetricsHTTPServer] = None
        self._rates_task: Optional[asyncio.Task] = None
        self._queue: "asyncio.Queue[_Pending]" = asyncio.Queue()
        self._inflight = 0
        self._draining = False
        self._started = False
        self._stopped = False
        self._started_at: Optional[float] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._response_tasks: set = set()
        self._writers: set = set()
        self._eval_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-server-eval"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The actually bound ``(host, port)`` (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> "ReproServer":
        """Warm the cache, start the dispatcher, begin accepting connections."""
        if self._started:
            raise RuntimeError("server is already started")
        self._started = True
        loop = asyncio.get_running_loop()
        if self.config.warm_requests:
            requests = list(self.config.warm_requests)
            await loop.run_in_executor(
                self._eval_pool, self._root.warm, self.graph, requests
            )
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-server-dispatch"
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=_MAX_LINE_BYTES,
        )
        self._started_at = time.monotonic()
        if self.config.metrics_port is not None:
            self._metrics_http = MetricsHTTPServer(
                self.metrics_text,
                host=self.config.metrics_host,
                port=self.config.metrics_port,
            ).start()
        if self.config.rate_interval_s > 0:
            # seed the rate baseline now so the first tick has a window
            self._update_rates()
            self._rates_task = asyncio.create_task(
                self._rates_loop(), name="repro-server-rates"
            )
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled (then drain gracefully)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Graceful drain: finish admitted work, flush responses, release.

        New requests are rejected with ``shutting_down`` the moment the
        drain begins; every request admitted before it completes and its
        response is written before connections close.  Idempotent.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        if self._metrics_http is not None:
            self._metrics_http.stop()
            self._metrics_http = None
        if self._rates_task is not None:
            self._rates_task.cancel()
            await asyncio.gather(self._rates_task, return_exceptions=True)
            self._rates_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # finish everything already admitted (the dispatcher marks each
        # queue item done only after its futures are resolved) ...
        await self._queue.join()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            await asyncio.gather(self._dispatcher, return_exceptions=True)
        # ... and flush every response before tearing connections down
        if self._response_tasks:
            await asyncio.gather(*list(self._response_tasks), return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
        for writer in list(self._writers):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - client raced us
                pass
        self._writers.clear()
        self._eval_pool.shutdown(wait=True)
        self._root.close()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _cache_stats(self) -> Dict[str, float]:
        cache = self._root.world_cache
        if cache is None and self.config.runtime.world_cache is None:
            cache = get_default_world_cache()
        return {} if cache is None else cache.stats()

    def _executor_info(self) -> Dict[str, object]:
        executor = self._root.executor
        if executor is None:
            return {"workers": None, "shard_size": None, "sharded": False}
        shard_size = self.config.runtime.shard_size
        return {
            "workers": executor.workers,
            "shard_size": (
                shard_size if shard_size is not None else get_default_shard_size()
            ),
            "sharded": True,
        }

    def _health_payload(self) -> Dict[str, object]:
        return {
            "kind": protocol.KIND_HEALTH,
            "status": "draining" if self._draining else "ok",
            "graph": {
                "name": self.graph.name,
                "n_vertices": self.graph.n_vertices,
                "n_edges": self.graph.n_edges,
            },
            "uptime_s": (
                None
                if self._started_at is None
                else round(time.monotonic() - self._started_at, 3)
            ),
            "inflight": self._inflight,
        }

    def _metrics_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"kind": protocol.KIND_METRICS}
        payload.update(self.metrics.snapshot())
        payload["cache"] = self._cache_stats()
        payload["executor"] = self._executor_info()
        payload["inflight"] = self._inflight
        payload["max_inflight"] = self.config.max_inflight
        # the shared-registry view: engine/executor/cache/server counters
        # in one merged snapshot (None when the pipeline is disabled)
        payload["telemetry"] = (
            self.telemetry.snapshot() if self.telemetry.enabled else None
        )
        return payload

    def metrics_text(self) -> str:
        """The merged observability payload as Prometheus exposition text.

        Thread-safe (the scrape endpoint calls it from HTTP handler
        threads); both serving paths — the ``metrics_text`` control kind
        and the ``/metrics`` HTTP endpoint — render through here, so
        they always agree.
        """
        return render_server_text(self._metrics_payload())

    @property
    def metrics_address(self) -> Tuple[str, int]:
        """Bound ``(host, port)`` of the ``/metrics`` scrape endpoint."""
        if self._metrics_http is None:
            raise RuntimeError("metrics endpoint is not enabled/started")
        return self._metrics_http.address

    def _update_rates(self) -> None:
        self.metrics.set_rates(
            self._window_rates.update(time.monotonic(), self._metrics_payload())
        )

    async def _rates_loop(self) -> None:
        """Periodically fold lifetime totals into windowed rate gauges."""
        interval = self.config.rate_interval_s
        while True:
            await asyncio.sleep(interval)
            try:
                self._update_rates()
            except Exception:  # pragma: no cover - defensive
                logger.exception("windowed-rate update failed")

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admit(self, raw_line: bytes) -> Union[Dict[str, object], _Pending]:
        """Parse, validate and admit one request line.

        Returns a response dict for anything answered inline (control
        kinds, malformed requests, rejections) or the enqueued
        :class:`_Pending` for an admitted query.
        """
        try:
            payload = protocol.decode_line(raw_line)
        except ValueError as error:
            self.metrics.observe_bad_request()
            return protocol.error_response(
                None, protocol.ERR_BAD_REQUEST, f"malformed request line: {error}"
            )
        request_id = payload.pop("id", None)
        kind = payload.get("kind")
        if kind == protocol.KIND_HEALTH:
            self.metrics.observe_control()
            return protocol.ok_response(request_id, self._health_payload())
        if kind == protocol.KIND_METRICS:
            self.metrics.observe_control()
            return protocol.ok_response(request_id, self._metrics_payload())
        if kind == protocol.KIND_METRICS_TEXT:
            self.metrics.observe_control()
            return protocol.ok_response(
                request_id,
                {"kind": protocol.KIND_METRICS_TEXT, "text": self.metrics_text()},
            )
        # tenant is a validated wire field that selects nothing: every
        # tenant is served by the one session
        tenant = payload.pop("tenant", "")
        if not isinstance(tenant, str):
            self.metrics.observe_bad_request()
            return protocol.error_response(
                request_id, protocol.ERR_BAD_REQUEST,
                f"tenant must be a string, got {tenant!r}",
            )
        try:
            request = request_from_dict(
                payload,
                graph=self.graph,
                default_n_samples=self.config.default_n_samples,
                default_seed=self.config.default_seed,
            )
            validate_request(self.graph, request)
        except (ValueError, TypeError, ReproError) as error:
            logger.debug("bad request %r: %s", request_id, error)
            self.metrics.observe_bad_request()
            return protocol.error_response(
                request_id, protocol.ERR_BAD_REQUEST, str(error)
            )
        # backpressure: both rejections are explicit responses — a client
        # must never hang because the server is busy or going away
        if self._draining:
            logger.warning("rejected request %r: server is draining", request_id)
            self.metrics.observe_rejected(protocol.ERR_SHUTTING_DOWN)
            return protocol.error_response(
                request_id, protocol.ERR_SHUTTING_DOWN,
                "server is draining and accepts no new work",
            )
        if self._inflight >= self.config.max_inflight:
            logger.warning(
                "rejected request %r: in-flight bound (%d) reached",
                request_id,
                self.config.max_inflight,
            )
            self.metrics.observe_rejected(protocol.ERR_OVER_CAPACITY)
            return protocol.error_response(
                request_id, protocol.ERR_OVER_CAPACITY,
                f"server is at its in-flight request bound "
                f"({self.config.max_inflight}); retry later",
            )
        loop = asyncio.get_running_loop()
        pending = _Pending(
            request_id=request_id,
            request=request,
            future=loop.create_future(),
            enqueued_at=loop.time(),
        )
        self._inflight += 1
        self.metrics.observe_admitted()
        self._queue.put_nowait(pending)
        return pending

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        connection_tasks: set = set()
        overlong = False
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # over the line limit: answer, then hang up — where
                    # the next request starts is unknown
                    overlong = True
                    self.metrics.observe_bad_request()
                    await self._write(writer, write_lock, protocol.error_response(
                        None, protocol.ERR_BAD_REQUEST,
                        f"request line exceeds {_MAX_LINE_BYTES} bytes",
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                outcome = self._admit(line)
                if isinstance(outcome, dict):
                    await self._write(writer, write_lock, outcome)
                    continue
                task = asyncio.create_task(
                    self._respond(writer, write_lock, outcome)
                )
                connection_tasks.add(task)
                self._response_tasks.add(task)
                task.add_done_callback(connection_tasks.discard)
                task.add_done_callback(self._response_tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-read; in-flight work still drains
        finally:
            # answers for a vanished client still resolve (decrementing
            # the in-flight count); only the final close is ours to do
            if connection_tasks:
                await asyncio.gather(*list(connection_tasks), return_exceptions=True)
            if overlong:
                await _linger(reader, writer)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write(self, writer, write_lock: asyncio.Lock, response: dict) -> None:
        async with write_lock:
            writer.write(protocol.encode_line(response))
            await writer.drain()

    async def _respond(self, writer, write_lock: asyncio.Lock, pending: _Pending) -> None:
        """Wait for one answer, account for it, and write it out."""
        try:
            status, payload = await pending.future
        finally:
            self._inflight -= 1
        loop = asyncio.get_running_loop()
        latency = loop.time() - pending.enqueued_at
        if status == "ok":
            body = result_to_dict(payload)
            body["latency_ms"] = round(1000.0 * latency, 3)
            response = protocol.ok_response(pending.request_id, body)
            self.metrics.observe_answered(pending.request.kind, latency)
        else:
            error_type, message = payload
            response = protocol.error_response(pending.request_id, error_type, message)
            self.metrics.observe_failed()
        try:
            await self._write(writer, write_lock, response)
        except (ConnectionError, OSError, RuntimeError):
            pass  # client disconnected before its answer was ready

    # ------------------------------------------------------------------
    # coalescing dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        window = self.config.batch_window_ms / 1000.0
        while True:
            batch = [await self._queue.get()]
            # take everything already waiting — requests that piled up
            # while the previous batch was evaluating coalesce for free
            while len(batch) < self.config.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            # then wait out the coalescing window for co-arrivals
            if window > 0 and len(batch) < self.config.max_batch:
                deadline = loop.time() + window
                while len(batch) < self.config.max_batch:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(
                            await asyncio.wait_for(self._queue.get(), remaining)
                        )
                    except asyncio.TimeoutError:
                        break
            try:
                await self._execute_batch(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()

    async def _execute_batch(self, batch: Sequence[_Pending]) -> None:
        """Evaluate one coalesced batch through the server's session."""
        self.metrics.observe_batch(len(batch))
        requests = [pending.request for pending in batch]
        try:
            results = await asyncio.get_running_loop().run_in_executor(
                self._eval_pool, self._root.batch, self.graph, requests
            )
        except ReproError as error:
            outcomes = [("error", (protocol.ERR_EVALUATION, str(error)))] * len(batch)
        except Exception as error:  # pragma: no cover - defensive
            outcomes = [("error", (protocol.ERR_INTERNAL, repr(error)))] * len(batch)
        else:
            outcomes = [("ok", result) for result in results]
        for pending, outcome in zip(batch, outcomes):
            pending.future.set_result(outcome)


async def _linger(reader, writer) -> None:
    """Half-close, then discard input until the client closes too.

    Bounded by :data:`_LINGER_S`, so a client that never stops sending
    cannot hold the connection open.
    """

    async def discard() -> None:
        while await reader.read(_MAX_LINE_BYTES):
            pass

    try:
        writer.write_eof()
        await asyncio.wait_for(discard(), _LINGER_S)
    except (asyncio.TimeoutError, OSError):
        pass


async def serve(
    graph: UncertainGraph, config: Optional[ServerConfig] = None, **overrides
) -> ReproServer:
    """Build, start and return a server (the embedding entry point)::

        server = await serve(graph, port=0, max_batch=32)
        host, port = server.address
        ...
        await server.stop()
    """
    server = ReproServer(graph, config, **overrides)
    await server.start()
    return server


def load_warm_requests(
    path, graph, default_n_samples: int, default_seed: int
) -> List[QueryRequest]:
    """Read a JSONL request file into warm-up requests (used by the CLI)."""
    requests: List[QueryRequest] = []
    for line_number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            requests.append(
                request_from_dict(
                    json.loads(line),
                    graph=graph,
                    default_n_samples=default_n_samples,
                    default_seed=default_seed,
                )
            )
        except (ValueError, TypeError) as error:
            raise ValueError(f"{path}:{line_number}: bad warm-up request: {error}")
    return requests


__all__ = [
    "ReproServer",
    "ServerConfig",
    "load_warm_requests",
    "serve",
]
