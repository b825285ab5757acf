"""The distributed coordinator: a ``RemoteExecutor`` scattering shards.

:class:`RemoteExecutor` implements the
:class:`~repro.parallel.executor.SamplingExecutor` interface — it is a
drop-in wherever a :class:`SerialExecutor`/:class:`ProcessExecutor`
goes (``Session``, ``RuntimeConfig(workers=...)``, the engine, the
service tier) — but fans shards out over worker *processes on other
machines* speaking the :mod:`repro.distributed.wire` protocol.

**The determinism contract survives the network.**  Every shard carries
its own pre-split seed, so it computes the same block on any worker; the
coordinator reduces partials **in shard order**, never completion
order.  Retries are bit-safe for the same reason: re-running a shard on
a different worker after a death, disconnect or timeout reproduces the
identical array.  Together: same bits as ``SerialExecutor`` for any
fleet size, any scheduling, any failure pattern short of exhausting the
retry budget.

Robustness model
----------------
* **Worker death / disconnect** — the link's reader thread sees EOF and
  every shard in flight on that link is reassigned (attempt count + 1).
* **Hung worker** — each dispatched shard has a deadline
  (``task_timeout``); past it the link is declared dead and dropped,
  which funnels into the same reassignment path.
* **Typed worker errors** — an ``error`` envelope consumes one attempt
  for that shard but keeps the (healthy, responsive) worker.
* **Retry budget** — a shard failing more than ``max_task_retries``
  times across distinct assignments raises
  :class:`~repro.exceptions.ShardRetryExceededError`; same-shard
  failures on different workers indicate a systematic problem retries
  cannot fix.
* **Empty fleet** — with shards pending and no workers connected the
  coordinator waits up to ``worker_wait_timeout`` for one to (re)join
  before raising :class:`~repro.exceptions.NoWorkersError`, so a worker
  restart mid-run is survivable.
* **Heartbeats** — idle links are pinged every ``heartbeat_interval``
  seconds and dropped after ``heartbeat_timeout`` of silence; busy links
  are governed by task deadlines instead (workers are single-threaded —
  a worker mid-shard legitimately answers nothing).
"""

from __future__ import annotations

import itertools
import logging
import queue
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import NoWorkersError, ShardRetryExceededError
from repro.parallel.executor import SamplingExecutor, ShardTask
from repro.telemetry import current_telemetry
from repro.distributed import wire

logger = logging.getLogger(__name__)


class _WorkerLink:
    """Coordinator-side state for one registered worker connection."""

    def __init__(
        self, channel: wire.LineChannel, index: int, name: str, pid: int, backends: List[str]
    ) -> None:
        self.channel = channel
        self.index = index
        self.name = name
        self.pid = pid
        self.backends = tuple(backends)
        #: problem digests already pushed down this connection
        self.pushed: set = set()
        self.alive = True
        self.last_seen = time.monotonic()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<WorkerLink #{self.index} {self.name} alive={self.alive}>"

    def send(self, message: Dict[str, object]) -> bool:
        """Send, reporting failure instead of raising (dead peer = False)."""
        try:
            self.channel.send(message)
            return True
        except OSError:
            return False


class _Outstanding:
    """One dispatched shard: where it ran and when it must be back."""

    __slots__ = ("shard_index", "link", "deadline", "submitted_at")

    def __init__(self, shard_index: int, link: _WorkerLink, deadline: float, submitted_at: float) -> None:
        self.shard_index = shard_index
        self.link = link
        self.deadline = deadline
        self.submitted_at = submitted_at


class RemoteExecutor(SamplingExecutor):
    """Scatter shards over remote workers; gather bit-identical partials.

    Parameters
    ----------
    host, port:
        Endpoint to listen on for worker registrations (``port=0`` binds
        an ephemeral port — read it back from :attr:`address`).
    tasks_per_worker:
        In-flight shard bound per worker (pipelining depth).  2 keeps a
        single-threaded worker busy while its previous result is on the
        wire without hoarding shards a faster worker could steal.
    task_timeout:
        Per-shard deadline in seconds; expiry drops the worker.
    heartbeat_interval / heartbeat_timeout:
        Idle-link ping cadence and silence tolerance.
    max_task_retries:
        Extra attempts a shard may consume across reassignments.
    worker_wait_timeout:
        How long ``map_shards`` tolerates an empty fleet before raising
        :class:`NoWorkersError`.
    rpc_timeout:
        Deadline for a connecting worker's registration line.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tasks_per_worker: int = 2,
        task_timeout: float = 300.0,
        heartbeat_interval: float = 2.0,
        heartbeat_timeout: float = 10.0,
        max_task_retries: int = 3,
        worker_wait_timeout: float = 60.0,
        rpc_timeout: float = 5.0,
    ) -> None:
        if tasks_per_worker <= 0:
            raise ValueError(f"tasks_per_worker must be positive, got {tasks_per_worker!r}")
        if max_task_retries < 0:
            raise ValueError(f"max_task_retries must be >= 0, got {max_task_retries!r}")
        self.tasks_per_worker = int(tasks_per_worker)
        self.task_timeout = float(task_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.max_task_retries = int(max_task_retries)
        self.worker_wait_timeout = float(worker_wait_timeout)
        self.rpc_timeout = float(rpc_timeout)

        self.closed = False
        self._closing = False
        #: lifetime counters (monotone; also mirrored into telemetry)
        self.tasks_dispatched = 0
        self.retries = 0
        self.worker_deaths = 0

        self._links: Dict[int, _WorkerLink] = {}
        self._links_lock = threading.Lock()
        self._events: "queue.Queue[Tuple[str, Optional[_WorkerLink], Optional[dict]]]" = queue.Queue()
        self._task_ids = itertools.count(1)
        self._worker_indices = itertools.count(0)
        # one map_shards at a time; close() takes it too, so closing
        # waits for an in-progress scatter/gather to drain
        self._map_lock = threading.Lock()

        self._listener = socket.create_server((host, int(port)))
        self._address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-dist-accept", daemon=True
        )
        self._accept_thread.start()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-dist-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    # introspection ----------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` workers connect to."""
        return self._address

    @property
    def workers(self) -> int:
        """Connected worker count (≥ 1 so shard planning never degenerates)."""
        with self._links_lock:
            return max(1, len(self._links))

    def worker_names(self) -> List[str]:
        with self._links_lock:
            return [link.name for link in self._links.values()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        host, port = self._address
        return f"<RemoteExecutor {host}:{port} workers={len(self._links)}>"

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` workers are registered (or raise)."""
        deadline = time.monotonic() + timeout
        while True:
            with self._links_lock:
                if len(self._links) >= count:
                    return
            if time.monotonic() >= deadline:
                raise NoWorkersError(
                    "%s:%d" % self._address, timeout
                )
            time.sleep(0.02)

    # fleet membership -------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            if self._closing:
                sock.close()
                return
            channel = wire.LineChannel(sock)
            try:
                hello = channel.recv(timeout=self.rpc_timeout)
            except Exception:
                channel.close()
                continue
            if (
                not isinstance(hello, dict)
                or hello.get("kind") != wire.MSG_REGISTER
                or hello.get("version") != wire.WIRE_VERSION
            ):
                detail = (
                    f"coordinator speaks wire protocol v{wire.WIRE_VERSION}, "
                    f"got registration {hello!r}"
                )
                try:
                    channel.send(wire.error_message(wire.ERR_VERSION, detail))
                except OSError:
                    pass
                channel.close()
                continue
            link = _WorkerLink(
                channel,
                index=next(self._worker_indices),
                name=str(hello.get("worker", "?")),
                pid=int(hello.get("pid", -1)),
                backends=list(hello.get("backends", ())),
            )
            if not link.send(wire.registered_message(link.index)):
                channel.close()
                continue
            with self._links_lock:
                self._links[link.index] = link
            reader = threading.Thread(
                target=self._reader_loop,
                args=(link,),
                name=f"repro-dist-reader-{link.index}",
                daemon=True,
            )
            reader.start()
            logger.info("worker %s (pid %d) joined as #%d", link.name, link.pid, link.index)
            tel = current_telemetry()
            if tel.enabled:
                tel.count("distributed.worker_joins")
            self._events.put(("joined", link, None))

    def _reader_loop(self, link: _WorkerLink) -> None:
        while True:
            try:
                message = link.channel.recv()
            except (ValueError, OSError):
                message = None
            if message is None:
                break
            link.last_seen = time.monotonic()
            kind = message.get("kind")
            if kind in (wire.MSG_RESULT, wire.MSG_ERROR):
                self._events.put((kind, link, message))
            elif kind == wire.MSG_PONG:
                pass  # last_seen updated above is the whole point
        self._drop_link(link, reason="connection closed")

    def _drop_link(self, link: _WorkerLink, reason: str) -> None:
        with self._links_lock:
            present = self._links.pop(link.index, None) is not None
        link.alive = False
        link.channel.close()
        if present:
            self.worker_deaths += 1
            logger.warning("worker %s (#%d) dropped: %s", link.name, link.index, reason)
            tel = current_telemetry()
            if tel.enabled:
                tel.count("distributed.worker_deaths")
            self._events.put(("dead", link, None))

    def _heartbeat_loop(self) -> None:
        while not self._closing:
            time.sleep(self.heartbeat_interval)
            if self._closing:
                return
            now = time.monotonic()
            with self._links_lock:
                links = list(self._links.values())
            for link in links:
                if not link.alive:
                    continue
                silent = now - link.last_seen
                if silent > self.heartbeat_timeout and not self._busy(link):
                    self._drop_link(
                        link, reason=f"no heartbeat for {silent:.1f}s"
                    )
                elif silent > self.heartbeat_interval:
                    link.send({"kind": wire.MSG_PING})

    def _busy(self, link: _WorkerLink) -> bool:
        """Links with shards in flight answer via results, not pongs."""
        busy = self._busy_links
        return busy is not None and link.index in busy

    #: link indices with shards in flight during the current map_shards
    _busy_links: Optional[set] = None

    # scatter / gather -------------------------------------------------
    def map_shards(self, tasks: Sequence[ShardTask]) -> List[np.ndarray]:
        tasks = list(tasks)
        if not tasks:
            return []
        if self.closed:
            raise RuntimeError("RemoteExecutor is closed")
        tel = current_telemetry()
        with self._map_lock:
            if not tel.enabled:
                return self._scatter_gather(tasks, tel)
            with tel.span(
                "distributed.map_shards",
                executor="remote",
                workers=self.workers,
                n_shards=len(tasks),
            ):
                return self._scatter_gather(tasks, tel)

    def _scatter_gather(self, tasks: List[ShardTask], tel) -> List[np.ndarray]:
        n = len(tasks)
        results: List[Optional[np.ndarray]] = [None] * n
        attempts = [0] * n
        pending: List[int] = list(range(n))  # stack; order never matters for bits
        outstanding: Dict[int, _Outstanding] = {}
        inflight_per_link: Dict[int, int] = {}
        self._busy_links = set()
        completed = 0
        fleet_empty_since: Optional[float] = None
        try:
            while completed < n:
                # 1. requeue shards stranded on links that died
                #    (scan is O(outstanding); fleets are small)
                now = time.monotonic()
                for task_id, entry in list(outstanding.items()):
                    if entry.link.alive and now < entry.deadline:
                        continue
                    del outstanding[task_id]
                    inflight_per_link[entry.link.index] = (
                        inflight_per_link.get(entry.link.index, 1) - 1
                    )
                    if entry.link.alive:
                        # deadline blown: the worker is hung, not slow —
                        # drop it so its sibling shards requeue too
                        self._drop_link(
                            entry.link,
                            reason=f"shard exceeded {self.task_timeout:.1f}s deadline",
                        )
                    self._requeue(entry.shard_index, attempts, pending, tel)
                # 2. dispatch to capacity
                for link in self._alive_links():
                    while pending and inflight_per_link.get(link.index, 0) < self.tasks_per_worker:
                        shard_index = pending.pop()
                        if not self._dispatch(link, shard_index, tasks[shard_index], outstanding, tel):
                            pending.append(shard_index)
                            break
                        inflight_per_link[link.index] = inflight_per_link.get(link.index, 0) + 1
                self._busy_links = {
                    index for index, count in inflight_per_link.items() if count > 0
                }
                # 3. empty-fleet watchdog
                if not outstanding and pending:
                    if not self._alive_links():
                        if fleet_empty_since is None:
                            fleet_empty_since = time.monotonic()
                        elif time.monotonic() - fleet_empty_since > self.worker_wait_timeout:
                            raise NoWorkersError(
                                "%s:%d" % self._address,
                                self.worker_wait_timeout,
                            )
                    else:
                        fleet_empty_since = None
                else:
                    fleet_empty_since = None
                # 4. wait for the next event, bounded by the nearest deadline
                timeout = 0.25
                if outstanding:
                    nearest = min(entry.deadline for entry in outstanding.values())
                    timeout = min(max(nearest - time.monotonic(), 0.01), 1.0)
                try:
                    kind, link, message = self._events.get(timeout=timeout)
                except queue.Empty:
                    continue
                if kind == wire.MSG_RESULT:
                    entry = outstanding.pop(int(message["id"]), None)
                    if entry is None or entry.link is not link:
                        continue  # stale: the shard was reassigned meanwhile
                    inflight_per_link[link.index] = inflight_per_link.get(link.index, 1) - 1
                    results[entry.shard_index] = wire.decode_array(message["data"])
                    completed += 1
                    if tel.enabled:
                        roundtrip = time.monotonic() - entry.submitted_at
                        seconds = float(message.get("seconds", 0.0))
                        tel.observe("distributed.shard_seconds", seconds)
                        tel.observe(
                            "distributed.queue_wait_seconds",
                            max(0.0, roundtrip - seconds),
                        )
                elif kind == wire.MSG_ERROR:
                    task_id = message.get("id")
                    entry = outstanding.pop(task_id, None) if isinstance(task_id, int) else None
                    if entry is None:
                        error = message.get("error", {})
                        logger.warning(
                            "worker %s reported: %s", link.name, error.get("message", "?")
                        )
                        continue
                    inflight_per_link[link.index] = inflight_per_link.get(link.index, 1) - 1
                    error = message.get("error", {})
                    self._requeue(
                        entry.shard_index,
                        attempts,
                        pending,
                        tel,
                        detail=f"{error.get('type', '?')}: {error.get('message', '?')}",
                    )
                # "joined"/"dead" events just wake the loop; steps 1-2
                # re-derive the fleet state from the authoritative dicts
            return results  # type: ignore[return-value]  # all slots filled
        finally:
            self._busy_links = None

    def _alive_links(self) -> List[_WorkerLink]:
        with self._links_lock:
            return [link for link in self._links.values() if link.alive]

    def _dispatch(
        self,
        link: _WorkerLink,
        shard_index: int,
        task: ShardTask,
        outstanding: Dict[int, _Outstanding],
        tel,
    ) -> bool:
        """Push (problem if new +) one task down a link; False if it died."""
        digest = wire.problem_digest(task.problem)
        if digest not in link.pushed:
            if not link.send(wire.problem_message(digest, task.problem)):
                self._drop_link(link, reason="send failed")
                return False
            link.pushed.add(digest)
        task_id = next(self._task_ids)
        message = wire.task_message(task_id, task)  # WireFormatError propagates: caller bug
        if not link.send(message):
            self._drop_link(link, reason="send failed")
            return False
        now = time.monotonic()
        outstanding[task_id] = _Outstanding(
            shard_index, link, now + self.task_timeout, now
        )
        self.tasks_dispatched += 1
        if tel.enabled:
            tel.count("distributed.tasks_dispatched")
        return True

    def _requeue(
        self,
        shard_index: int,
        attempts: List[int],
        pending: List[int],
        tel,
        detail: str = "",
    ) -> None:
        attempts[shard_index] += 1
        if attempts[shard_index] > self.max_task_retries:
            raise ShardRetryExceededError(shard_index, attempts[shard_index], detail)
        self.retries += 1
        if tel.enabled:
            tel.count("distributed.retries")
        pending.append(shard_index)

    # lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Drain, tell workers to shut down, release every thread/socket."""
        if self.closed:
            return
        self._closing = True
        with self._map_lock:  # graceful drain: let an in-flight map finish
            self.closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._links_lock:
            links = list(self._links.values())
            self._links.clear()
        for link in links:
            link.send({"kind": wire.MSG_SHUTDOWN})
            link.channel.close()
        self._accept_thread.join(timeout=2.0)
        self._heartbeat_thread.join(timeout=self.heartbeat_interval + 2.0)

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown timing
        try:
            if not self.closed:
                self.close()
        except Exception:
            pass


__all__ = ["RemoteExecutor"]
