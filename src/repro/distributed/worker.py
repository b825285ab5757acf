"""The sampling worker agent: connect, register, evaluate, stream back.

A worker is a plain blocking process with one upstream
:class:`~repro.distributed.wire.LineChannel` to its coordinator.  It
registers (protocol version + the backend registry it can serve), then
loops: decode a message, act, answer.  Shard evaluation goes through the
exact :func:`repro.parallel.run_shard` every local executor dispatches,
so a worker cannot produce different bits than an in-process run — the
wire codec round-trips problems, seeds and result arrays exactly.

Run one with::

    python -m repro.distributed.worker --connect HOST:PORT

or ``repro-flow worker --connect HOST:PORT``.
"""

from __future__ import annotations

import argparse
import logging
import os
import socket
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ReproError, TransportTimeoutError, WireFormatError
from repro.parallel.executor import run_shard
from repro.reachability.backends import backend_names
from repro.distributed import wire

logger = logging.getLogger(__name__)

#: Decoded problems kept per connection (a coordinator pushes each
#: problem once; the bound only matters for very long-lived workers).
PROBLEM_CACHE_SIZE = 128


class WorkerAgent:
    """One worker process's state machine (single-threaded, blocking).

    Parameters
    ----------
    host, port:
        The coordinator endpoint to register with.
    name:
        Worker name reported on registration (defaults to ``host:pid``).
    connect_timeout:
        Deadline for the TCP connect + registration handshake.
    shard_delay:
        Extra seconds slept before each shard evaluation — a pacing hook
        for fault-injection tests (lets a test SIGKILL the worker while a
        shard is reliably in flight).  Also read from the
        ``REPRO_WORKER_SHARD_DELAY_MS`` environment variable.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        connect_timeout: float = 10.0,
        shard_delay: float = 0.0,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.connect_timeout = float(connect_timeout)
        self.shard_delay = float(shard_delay)
        self.worker_index: Optional[int] = None
        self.shards_run = 0
        self._channel: Optional[wire.LineChannel] = None
        self._problems: "OrderedDict[int, object]" = OrderedDict()
        self._backends: Dict[str, object] = {}

    # lifecycle --------------------------------------------------------
    def run(self) -> int:
        """Register and serve until shutdown/EOF; returns an exit code."""
        try:
            channel = wire.LineChannel.connect(
                self.host, self.port, timeout=self.connect_timeout
            )
        except (OSError, TransportTimeoutError) as error:
            logger.error(
                "cannot reach coordinator at %s:%d: %s", self.host, self.port, error
            )
            return 1
        self._channel = channel
        try:
            channel.send(
                wire.register_message(self.name, os.getpid(), list(backend_names()))
            )
            ack = channel.recv(timeout=self.connect_timeout)
            if ack is None or ack.get("kind") != wire.MSG_REGISTERED or not ack.get("ok"):
                logger.error("registration rejected by %s: %r", channel.peer, ack)
                return 1
            self.worker_index = int(ack.get("worker_index", -1))
            logger.info(
                "worker %s registered as #%d with %s",
                self.name,
                self.worker_index,
                channel.peer,
            )
            self._serve(channel)
            return 0
        except TransportTimeoutError as error:
            logger.error("registration with %s timed out: %s", channel.peer, error)
            return 1
        except OSError:
            # the coordinator went away mid-send; a worker restart (or
            # supervisor) re-registers — exiting cleanly is the contract
            logger.info("coordinator connection lost; exiting")
            return 0
        finally:
            channel.close()
            self._channel = None

    def stop(self) -> None:
        """Unblock :meth:`run` from another thread / signal handler."""
        channel = self._channel
        if channel is not None:
            channel.close()

    # the dispatch loop ------------------------------------------------
    def _serve(self, channel: wire.LineChannel) -> None:
        while True:
            try:
                message = channel.recv()
            except ValueError as error:
                channel.send(wire.error_message(wire.ERR_BAD_MESSAGE, str(error)))
                continue
            if message is None or message.get("kind") == wire.MSG_SHUTDOWN:
                logger.info(
                    "worker %s draining after %d shard(s)", self.name, self.shards_run
                )
                return
            self._dispatch(channel, message)

    def _dispatch(self, channel: wire.LineChannel, message: Dict[str, object]) -> None:
        kind = message.get("kind")
        if kind == wire.MSG_TASK:
            self._handle_task(channel, message)
        elif kind == wire.MSG_PROBLEM:
            self._handle_problem(channel, message)
        elif kind == wire.MSG_PING:
            channel.send({"kind": wire.MSG_PONG, "id": message.get("id")})
        else:
            channel.send(
                wire.error_message(
                    wire.ERR_BAD_MESSAGE, f"unknown message kind {kind!r}"
                )
            )

    def _handle_problem(self, channel: wire.LineChannel, message: Dict[str, object]) -> None:
        try:
            digest = int(message["digest"])
            problem = wire.decode_problem(message["problem"])
        except (KeyError, TypeError, ValueError, WireFormatError) as error:
            channel.send(
                wire.error_message(wire.ERR_BAD_MESSAGE, f"bad problem push: {error}")
            )
            return
        self._problems[digest] = problem
        self._problems.move_to_end(digest)
        while len(self._problems) > PROBLEM_CACHE_SIZE:
            self._problems.popitem(last=False)

    def _handle_task(self, channel: wire.LineChannel, message: Dict[str, object]) -> None:
        task_id = message.get("id")
        try:
            task_id, task = wire.decode_task(message, self._problems, self._backends)
        except WireFormatError as error:
            text = str(error)
            error_type = wire.ERR_BAD_MESSAGE
            for tag in (wire.ERR_UNKNOWN_PROBLEM, wire.ERR_UNKNOWN_BACKEND):
                if text.startswith(tag):
                    error_type, text = tag, text[len(tag) + 2 :]
                    break
            channel.send(
                wire.error_message(
                    error_type, text, task_id if isinstance(task_id, int) else None
                )
            )
            return
        if self.shard_delay > 0:
            time.sleep(self.shard_delay)
        started = time.perf_counter()
        try:
            result = run_shard(task)
        except (ReproError, ValueError, TypeError, MemoryError) as error:
            channel.send(
                wire.error_message(
                    wire.ERR_EVALUATION, f"{type(error).__name__}: {error}", task_id
                )
            )
            return
        self.shards_run += 1
        channel.send(
            wire.result_message(task_id, result, time.perf_counter() - started)
        )


def _parse_connect(spec: str) -> Tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"--connect expects HOST:PORT, got {spec!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--connect expects a numeric port, got {spec!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Sampling worker agent for a repro.distributed coordinator.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        type=_parse_connect,
        help="coordinator endpoint to register with",
    )
    parser.add_argument(
        "--name", default=None, help="worker name reported to the coordinator"
    )
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="TCP connect + registration deadline (default: 10)",
    )
    parser.add_argument(
        "--shard-delay-ms",
        type=float,
        default=None,
        metavar="MS",
        help="sleep this long before evaluating each shard (fault-injection "
        "pacing hook; also via REPRO_WORKER_SHARD_DELAY_MS)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.distributed.worker``."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    delay_ms = args.shard_delay_ms
    if delay_ms is None:
        delay_ms = float(os.environ.get("REPRO_WORKER_SHARD_DELAY_MS", "0") or 0)
    host, port = args.connect
    agent = WorkerAgent(
        host,
        port,
        name=args.name,
        connect_timeout=args.connect_timeout,
        shard_delay=delay_ms / 1000.0,
    )
    try:
        return agent.run()
    except KeyboardInterrupt:
        return 0


__all__ = ["PROBLEM_CACHE_SIZE", "WorkerAgent", "build_parser", "main"]

if __name__ == "__main__":
    raise SystemExit(main())
