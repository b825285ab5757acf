"""The distributed executor's versioned JSONL wire protocol.

One JSON object per ``\\n``-terminated line, in both directions, reusing
the codec of :mod:`repro.server.protocol` — a worker needs nothing
beyond a line-oriented socket and a JSON parser.  Message ``kind``s:

================  ====  =====================================================
kind              dir   payload
================  ====  =====================================================
``register``      w→c   protocol version, worker name, pid, backend names
``registered``    c→w   acceptance + the worker's fleet index
``problem``       c→w   a full :class:`SamplingProblem` keyed by its content
                        digest (pushed once per connection, before the first
                        task that references it)
``task``          c→w   one :class:`~repro.parallel.ShardTask`: problem
                        digest, world count, the shard's pre-split
                        SeedSequence (entropy + spawn key), backend name
``result``        w→c   the shard's boolean matrix as a base64 ``.npy``
                        payload plus the in-worker runtime
``error``         w→c   typed error envelope (same shape as the serving
                        tier's: ``{"type": ..., "message": ...}``)
``ping``/``pong``  both  heartbeat
``shutdown``      c→w   drain and exit
================  ====  =====================================================

**Determinism on the wire.**  Arrays travel as base64 of their ``.npy``
serialization (:func:`numpy.save`), which round-trips dtype, shape and
bytes exactly; seeds travel as the *(entropy, spawn key)* pair that
defines a :class:`numpy.random.SeedSequence`, which reconstructs the
identical stream on any machine.  A shard evaluated remotely therefore
returns byte-for-byte what :class:`~repro.parallel.SerialExecutor` would
have produced locally.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import socket
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import TransportTimeoutError, WireFormatError
from repro.parallel.executor import ShardTask
from repro.reachability.backends import backend_names
from repro.reachability.backends.base import SamplingProblem
from repro.server.protocol import decode_line, encode_line

#: Protocol version; a worker and coordinator must agree exactly.
WIRE_VERSION = 2

# message kinds ---------------------------------------------------------
MSG_REGISTER = "register"
MSG_REGISTERED = "registered"
MSG_PROBLEM = "problem"
MSG_TASK = "task"
MSG_RESULT = "result"
MSG_ERROR = "error"
MSG_PING = "ping"
MSG_PONG = "pong"
MSG_SHUTDOWN = "shutdown"

#: Error ``type`` values in worker error envelopes.
ERR_VERSION = "version_mismatch"
ERR_BAD_MESSAGE = "bad_message"
ERR_UNKNOWN_PROBLEM = "unknown_problem"
ERR_UNKNOWN_BACKEND = "unknown_backend"
ERR_EVALUATION = "evaluation_failed"


# array / seed / problem codecs ----------------------------------------
def encode_array(array: np.ndarray) -> str:
    """Serialize an array to base64 ``.npy`` bytes (exact round-trip)."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return base64.b64encode(buffer.getvalue()).decode("ascii")


def decode_array(payload: str) -> np.ndarray:
    """Inverse of :func:`encode_array` (``WireFormatError`` on garbage)."""
    try:
        raw = base64.b64decode(payload.encode("ascii"), validate=True)
        return np.load(io.BytesIO(raw), allow_pickle=False)
    except (ValueError, OSError) as error:
        raise WireFormatError(f"undecodable array payload: {error}") from error


def encode_seed_sequence(seed: np.random.SeedSequence) -> Dict[str, object]:
    """The *(entropy, spawn key)* pair that reconstructs ``seed`` exactly."""
    entropy = seed.entropy
    if isinstance(entropy, (list, tuple)):
        entropy = [int(word) for word in entropy]
    elif entropy is not None:
        entropy = int(entropy)
    return {
        "entropy": entropy,
        "spawn_key": [int(key) for key in seed.spawn_key],
        "pool_size": int(seed.pool_size),
    }


def decode_seed_sequence(payload: Dict[str, object]) -> np.random.SeedSequence:
    """Rebuild the identical :class:`~numpy.random.SeedSequence`."""
    try:
        return np.random.SeedSequence(
            entropy=payload["entropy"],
            spawn_key=tuple(payload.get("spawn_key", ())),
            pool_size=int(payload.get("pool_size", 4)),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise WireFormatError(f"undecodable seed payload {payload!r}") from error


def problem_digest(problem: SamplingProblem) -> int:
    """Stable 128-bit content digest of an indexed sampling problem.

    Hashes the vertex-id mapping, both endpoint arrays, the probability
    array and the source index — everything a shard's result is a
    function of besides its seed — so a problem is pushed to each worker
    connection exactly once however many shards reference it.  Cached on
    the (frozen) problem instance.
    """
    cached = problem.__dict__.get("_wire_digest")
    if cached is None:
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update(repr(problem.vertex_ids).encode("utf-8"))
        hasher.update(np.ascontiguousarray(problem.edge_u).tobytes())
        hasher.update(np.ascontiguousarray(problem.edge_v).tobytes())
        hasher.update(np.ascontiguousarray(problem.probabilities).tobytes())
        hasher.update(str(int(problem.source)).encode("utf-8"))
        cached = int.from_bytes(hasher.digest(), "little")
        object.__setattr__(problem, "_wire_digest", cached)
    return cached


def encode_problem(problem: SamplingProblem) -> Dict[str, object]:
    """Serialize a :class:`SamplingProblem` (vertex ids must be JSON-safe)."""
    payload = {
        "vertex_ids": list(problem.vertex_ids),
        "edge_u": encode_array(problem.edge_u),
        "edge_v": encode_array(problem.edge_v),
        "probabilities": encode_array(problem.probabilities),
        "source": int(problem.source),
    }
    try:
        json.dumps(payload["vertex_ids"])
    except (TypeError, ValueError) as error:
        raise WireFormatError(
            f"vertex ids are not JSON-representable and cannot cross the "
            f"wire: {error}"
        ) from error
    return payload


def decode_problem(payload: Dict[str, object]) -> SamplingProblem:
    """Inverse of :func:`encode_problem` (layout is rebuilt worker-side)."""
    try:
        return SamplingProblem(
            vertex_ids=tuple(payload["vertex_ids"]),
            edge_u=decode_array(payload["edge_u"]),
            edge_v=decode_array(payload["edge_v"]),
            probabilities=decode_array(payload["probabilities"]),
            source=int(payload["source"]),
        )
    except (KeyError, TypeError) as error:
        raise WireFormatError(f"undecodable problem payload: {error}") from error


def encode_backend(backend: Optional[object]) -> Optional[str]:
    """A backend crosses the wire as its registry name (``None`` = raw flips)."""
    if backend is None:
        return None
    name = getattr(backend, "name", None)
    if not isinstance(name, str) or name not in backend_names():
        raise WireFormatError(
            f"backend {backend!r} has no registry name and cannot be shipped "
            f"to remote workers; register it (repro.reachability.backends."
            f"register_backend) on every worker and pass the named backend"
        )
    return name


# message builders ------------------------------------------------------
def register_message(worker: str, pid: int, backends: List[str]) -> Dict[str, object]:
    return {
        "kind": MSG_REGISTER,
        "version": WIRE_VERSION,
        "worker": worker,
        "pid": int(pid),
        "backends": list(backends),
    }


def registered_message(worker_index: int) -> Dict[str, object]:
    return {"kind": MSG_REGISTERED, "ok": True, "worker_index": int(worker_index)}


def problem_message(digest: int, problem: SamplingProblem) -> Dict[str, object]:
    return {"kind": MSG_PROBLEM, "digest": int(digest), "problem": encode_problem(problem)}


def task_message(task_id: int, task: ShardTask) -> Dict[str, object]:
    return {
        "kind": MSG_TASK,
        "id": int(task_id),
        "problem": problem_digest(task.problem),
        "n_samples": int(task.n_samples),
        "seed": encode_seed_sequence(task.seed),
        "backend": encode_backend(task.backend),
    }


def result_message(task_id: int, array: np.ndarray, seconds: float) -> Dict[str, object]:
    return {
        "kind": MSG_RESULT,
        "id": int(task_id),
        "data": encode_array(array),
        "seconds": float(seconds),
    }


def error_message(error_type: str, message: str, task_id: Optional[int] = None) -> Dict[str, object]:
    envelope: Dict[str, object] = {
        "kind": MSG_ERROR,
        "error": {"type": error_type, "message": message},
    }
    if task_id is not None:
        envelope["id"] = int(task_id)
    return envelope


def decode_task(
    message: Dict[str, object], problems: Dict[int, SamplingProblem], backends: Dict[str, object]
) -> Tuple[int, ShardTask]:
    """Rebuild a :class:`ShardTask` worker-side from a ``task`` message.

    ``problems`` maps pushed problem digests to decoded problems;
    ``backends`` is the worker's cache of instantiated registry backends
    (missing names are resolved and cached here).  Raises
    :class:`WireFormatError` tagged via its message for the unknown-
    problem / unknown-backend cases so the worker can answer with the
    matching typed envelope.
    """
    from repro.reachability.backends import make_backend

    try:
        task_id = int(message["id"])
        digest = int(message["problem"])
        n_samples = int(message["n_samples"])
        seed = decode_seed_sequence(message["seed"])
        backend_name = message.get("backend")
    except (KeyError, TypeError, ValueError) as error:
        raise WireFormatError(f"malformed task message: {error}") from error
    problem = problems.get(digest)
    if problem is None:
        raise WireFormatError(f"{ERR_UNKNOWN_PROBLEM}: no pushed problem with digest {digest}")
    backend = None
    if backend_name is not None:
        backend = backends.get(backend_name)
        if backend is None:
            try:
                backend = make_backend(backend_name)
            except (ValueError, TypeError) as error:
                raise WireFormatError(f"{ERR_UNKNOWN_BACKEND}: {error}") from error
            backends[backend_name] = backend
    return task_id, ShardTask(
        problem=problem, n_samples=n_samples, seed=seed, backend=backend
    )


# transport -------------------------------------------------------------
class LineChannel:
    """One JSONL-over-TCP connection: locked writes, blocking framed reads.

    Thin and symmetric — both the coordinator's per-worker links and the
    worker's single upstream connection are a ``LineChannel``.  ``send``
    serializes whole lines under a lock so concurrent senders (the
    dispatch loop, the heartbeat thread) never interleave
    bytes; ``recv`` returns ``None`` on EOF (the peer died or closed) and
    raises :class:`TransportTimeoutError` when a read deadline passes.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._send_lock = threading.Lock()
        self.closed = False

    @classmethod
    def connect(
        cls, host: str, port: int, timeout: Optional[float] = None
    ) -> "LineChannel":
        """Open a channel to ``host:port`` (``TransportTimeoutError`` on delay)."""
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except socket.timeout as error:
            raise TransportTimeoutError(
                f"connecting to {host}:{port}", timeout or 0.0
            ) from error
        sock.settimeout(None)
        return cls(sock)

    @property
    def peer(self) -> str:
        try:
            host, port = self._sock.getpeername()[:2]
            return f"{host}:{port}"
        except OSError:
            return "<closed>"

    def send(self, message: Dict[str, object]) -> None:
        """Write one message line atomically (``OSError`` if the peer died)."""
        line = encode_line(message)
        with self._send_lock:
            self._sock.sendall(line)

    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, object]]:
        """Read one message; ``None`` on EOF.

        A ``timeout`` arms a read deadline for this call only (used for
        the registration handshake); the steady-state loops read blocking
        and rely on EOF — a died peer closes the socket promptly, and
        hangs are governed by the coordinator's task deadlines instead of
        per-read timers.
        """
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            line = self._reader.readline()
        except socket.timeout as error:
            raise TransportTimeoutError("reading a protocol line", timeout or 0.0) from error
        finally:
            if timeout is not None:
                self._sock.settimeout(None)
        if not line:
            return None
        return decode_line(line)

    def close(self) -> None:
        """Close both directions (idempotent; unblocks a reader on recv)."""
        self.closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


__all__ = [
    "ERR_BAD_MESSAGE",
    "ERR_EVALUATION",
    "ERR_UNKNOWN_BACKEND",
    "ERR_UNKNOWN_PROBLEM",
    "ERR_VERSION",
    "LineChannel",
    "MSG_ERROR",
    "MSG_PING",
    "MSG_PONG",
    "MSG_PROBLEM",
    "MSG_REGISTER",
    "MSG_REGISTERED",
    "MSG_RESULT",
    "MSG_SHUTDOWN",
    "MSG_TASK",
    "WIRE_VERSION",
    "decode_array",
    "decode_problem",
    "decode_seed_sequence",
    "decode_task",
    "encode_array",
    "encode_backend",
    "encode_problem",
    "encode_seed_sequence",
    "error_message",
    "problem_digest",
    "problem_message",
    "register_message",
    "registered_message",
    "result_message",
    "task_message",
]
