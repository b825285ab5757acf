"""``repro.runtime`` — scoped runtime configuration.

The estimation stack has five runtime knobs: the sampling backend, the
sharded-sampling executor and its shard size, the world cache and the
telemetry pipeline.  None of them is an argument of the estimators,
selectors or the batch evaluator; they come from the session active
when those objects sample.  This module is where sessions are built:

* :class:`RuntimeConfig` — a frozen dataclass holding the five knobs.
* :class:`Session` — one merged configuration plus the resources it
  owns (an executor built from a worker count, a private world cache, a
  metrics pipeline), scoped with contextvars and drained on close.
* :func:`session` — the one-liner entry point::

      import repro
      from repro.selection import make_selector

      with repro.session(backend="naive", workers=4):
          result = make_selector("FT+M", n_samples=1000, seed=7).select(
              graph, query, budget=20
          )

A session sets *where* work runs, never *what* is computed: the sample
budget and seed are arguments of each call (of
:class:`~repro.reachability.engine.SamplingEngine`, the selectors,
:class:`~repro.service.evaluator.BatchEvaluator` requests and
:func:`~repro.experiments.harness.evaluate_flow`).
:meth:`Session.expected_flow` is the one workload method left on the
session, a pass-through to the engine with the engine's own signature.

Scoping
-------
Sessions are **contextvar-scoped**: entering ``with repro.session(...)``
activates the configuration for the current thread (or asyncio task)
only, nested sessions merge over their parents field by field, and
exiting restores the enclosing configuration exactly — which makes
configuration safe in threaded services where two requests must not see
each other's knobs.  ``with session:`` ties the scope to the session's
*lifecycle* (the last exit closes it); a long-lived session shared
across sequential requests should instead use ``with
session.activate():``, which scopes without closing — the owner calls
:meth:`Session.close` at shutdown.

A session is the only place the sampling backend, the executor and the
shard size are set: every mechanism-level object (``SamplingEngine``,
the selectors, ``BatchEvaluator``, ``EvaluationContext``,
``ComponentSampler``, the experiment harness) reads them from the
session active when it samples, in one step — innermost active session,
else the built-in library default.  The one exception is
``SamplingEngine(backend)``, which pins a backend for that engine; a
batch evaluator request has no backend of its own.  ``cache=None``
arguments resolve the same way; an explicit cache wins.  There is no
process-wide store to assign.

Determinism
-----------
A session changes *where* configuration comes from, never *what* is
computed: for a fixed ``(seed, backend, shard plan)``, a call inside a
session reproduces the exact bits of the same call with that backend and
shard plan pinned directly (pinned by ``tests/test_runtime_scoping.py``).

Lifecycle
---------
A session built with an integer ``workers`` spec owns the resulting
executor, and one built with an integer ``world_cache`` bound owns that
private cache; :meth:`Session.close` (or context-manager exit) shuts the
pool down and drops the cache's entries.  Shared instances passed in are
left running for their owners.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro._runtime_state import (
    UNSET,
    EffectiveConfig,
    activate,
    current_effective,
    current_session,
    deactivate,
    pop_entry,
    push_entry,
)
from repro.parallel.executor import (
    ExecutorLike,
    SamplingExecutor,
    get_default_executor,
    make_executor,
)
from repro.parallel.plan import check_shard_size, get_default_shard_size
from repro.reachability.backends import backend_names, get_default_backend
from repro.reachability.engine import SamplingEngine
from repro.reachability.estimators import FlowEstimate
from repro.rng import SeedLike
from repro.service.cache import CacheLike, WorldCache
from repro.telemetry import NULL_TELEMETRY, Telemetry, get_default_telemetry
from repro.types import Edge, VertexId


@dataclass(frozen=True)
class RuntimeConfig:
    """Every runtime knob of the estimation stack in one frozen object.

    Each field defaults to ``None`` = "unset": resolution falls through
    to the enclosing session, then the built-in library default — so a
    config only pins what it names.

    Attributes
    ----------
    backend:
        Sampling-backend registry name (see
        :data:`repro.reachability.backends.BACKEND_NAMES`); built-in
        default ``"csr"``.
    workers:
        Sharded-sampling spec: ``None`` leaves the knob unset (inherit
        from the enclosing session — outside any session, the unsharded
        historical stream), ``0`` pins **explicitly unsharded**
        sampling even inside an outer sharded session, a positive worker
        count builds an executor the session *owns* and closes (``1`` =
        sharded serial reference, more = process pool), and a
        :class:`~repro.parallel.SamplingExecutor` instance is shared.
    shard_size:
        Worlds per shard when an executor is active: a positive ``int``
        (a bool or a fractional size is refused, not truncated).  Part of
        the determinism key ``(seed, n_samples, shard_size)``.
    world_cache:
        World-cache spec for service-backed evaluation: ``None`` shares
        the ambient default cache, ``0`` disables caching, a positive
        integer builds a session-private cache with that entry bound
        (owned: dropped at :meth:`Session.close`), an instance is shared.
    telemetry:
        Observability spec: ``None`` inherits the ambient pipeline
        (normally disabled), ``True`` builds a session-owned
        metrics-only :class:`~repro.telemetry.Telemetry` (closed with
        the session), ``False`` pins telemetry **off** even inside an
        enabled outer scope, an instance is shared.  Pass a
        :class:`~repro.telemetry.profile.ProfilingTelemetry` instance to
        profile: every span then also carries CPU time, tracemalloc
        allocation deltas and GC-collection counts (results stay
        bit-for-bit identical; profiling only adds measurement).
    """

    backend: Optional[str] = None
    workers: ExecutorLike = None
    shard_size: Optional[int] = None
    world_cache: CacheLike = None
    telemetry: Optional[object] = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            if not isinstance(self.backend, str):
                raise TypeError(
                    f"RuntimeConfig.backend must be a registry name or None, "
                    f"got {self.backend!r}"
                )
            if self.backend not in backend_names():
                raise ValueError(
                    f"unknown sampling backend {self.backend!r}; "
                    f"expected one of {backend_names()}"
                )
        if isinstance(self.workers, bool):
            raise TypeError("RuntimeConfig.workers must be a count or executor, not bool")
        if isinstance(self.workers, int) and self.workers < 0:
            raise ValueError(
                f"RuntimeConfig.workers must be >= 0 (0 pins unsharded sampling), "
                f"got {self.workers!r}"
            )
        if self.workers is not None and not isinstance(self.workers, (int, SamplingExecutor)):
            raise TypeError(
                f"cannot interpret {self.workers!r} as a workers/executor spec"
            )
        if self.shard_size is not None:
            check_shard_size(self.shard_size, "RuntimeConfig.shard_size")
        if isinstance(self.world_cache, bool):
            raise TypeError("RuntimeConfig.world_cache must be a bound or cache, not bool")
        if isinstance(self.world_cache, int) and self.world_cache < 0:
            raise ValueError(
                f"RuntimeConfig.world_cache must be >= 0, got {self.world_cache!r}"
            )
        if self.world_cache is not None and not isinstance(self.world_cache, (int, WorldCache)):
            raise TypeError(
                f"cannot interpret {self.world_cache!r} as a world-cache spec"
            )
        if self.telemetry is not None and not isinstance(self.telemetry, (bool, Telemetry)):
            raise TypeError(
                f"RuntimeConfig.telemetry must be None, a bool or a Telemetry "
                f"instance, got {self.telemetry!r}"
            )

    def replace(self, **changes) -> "RuntimeConfig":
        """Return a copy with the named fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe summary of the config (for BENCH payloads and logs).

        Executor and cache instances are reduced to their worker count /
        entry bound, a telemetry instance to whether it is enabled.
        """
        workers = self.workers
        if isinstance(workers, SamplingExecutor):
            workers = workers.workers
        cache = self.world_cache
        if isinstance(cache, WorldCache):
            cache = cache.max_entries
        telemetry = self.telemetry
        if isinstance(telemetry, Telemetry):
            telemetry = telemetry.enabled
        return {
            "backend": self.backend,
            "workers": workers,
            "shard_size": self.shard_size,
            "world_cache": cache,
            "telemetry": telemetry,
        }


class Session:
    """A scoped runtime: one resolved configuration plus owned resources.

    Build one from a :class:`RuntimeConfig` (and/or keyword overrides)
    and use it as a context manager — activating it for the current
    thread so every library call inside resolves its unspecified knobs
    from it — or, for a session shared across requests, scope each
    request with :meth:`activate`.

    Parameters
    ----------
    config:
        Base configuration (defaults to an all-unset
        :class:`RuntimeConfig`).
    **overrides:
        Field overrides applied on top of ``config`` via
        :meth:`RuntimeConfig.replace`.

    Notes
    -----
    An integer ``workers`` spec builds an executor the session **owns**
    (its process pool is shut down by :meth:`close` / context exit); an
    integer ``world_cache`` bound builds an owned private cache (cleared
    at close).  Instances passed in are shared and left alone.  A closed
    session refuses further use.
    """

    def __init__(self, config: Optional[RuntimeConfig] = None, **overrides) -> None:
        base = config if config is not None else RuntimeConfig()
        if not isinstance(base, RuntimeConfig):
            raise TypeError(f"config must be a RuntimeConfig or None, got {base!r}")
        if overrides:
            base = base.replace(**overrides)
        self.config = base
        # workers == 0 pins explicitly unsharded sampling (an effective
        # executor of None, overriding any enclosing session's pool)
        self._force_unsharded = base.workers == 0 and isinstance(base.workers, int)
        # a count builds an executor here, so the session owns (and
        # closes) it; instances are shared
        self._owns_executor = isinstance(base.workers, int) and base.workers > 0
        self._executor: Optional[SamplingExecutor] = (
            None if self._force_unsharded else make_executor(base.workers)
        )
        spec = base.world_cache
        self._owns_cache = isinstance(spec, int) and spec > 0
        if spec is None:
            self._cache = UNSET  # defer to the enclosing session / shared default
        elif isinstance(spec, WorldCache):
            self._cache = spec
        elif spec == 0:
            self._cache = None  # caching explicitly disabled in this scope
        else:
            self._cache = WorldCache(max_entries=spec)
        tspec = base.telemetry
        self._owns_telemetry = tspec is True
        if tspec is None:
            self._telemetry = UNSET  # inherit the ambient pipeline
        elif tspec is False:
            self._telemetry = NULL_TELEMETRY  # pinned off in this scope
        elif tspec is True:
            self._telemetry = Telemetry()
        else:
            self._telemetry = tspec
        # lifecycle bookkeeping: activation tokens must be reset in the
        # context that created them, so entries live on a context-local
        # stack (see _runtime_state.push_entry); the entry and in-flight
        # counts are shared across threads so a session used concurrently
        # only releases its resources after the last exit AND the last
        # in-flight activation have drained — close() marks the
        # session closed immediately (rejecting new work) but never pulls
        # the pool out from under a running call
        self._entry_lock = threading.Lock()
        self._entry_count = 0
        self._inflight = 0
        self._close_pending = False
        self._released = False
        self.closed = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else ("active" if self._entry_count else "idle")
        return f"<Session {state} config={self.config.as_dict()!r}>"

    # ------------------------------------------------------------------
    # scoping
    # ------------------------------------------------------------------
    def _effective_now(self) -> EffectiveConfig:
        """Merge this session's pinned knobs over the enclosing activation."""
        outer = current_effective()

        def merged(own, field):
            if own is not UNSET:
                return own
            return getattr(outer, field) if outer is not None else UNSET

        cfg = self.config
        if self._force_unsharded:
            executor = None  # workers=0: pinned unsharded, never inherited
        elif self._executor is not None:
            executor = self._executor
        else:
            executor = UNSET
        return EffectiveConfig(
            backend=merged(cfg.backend if cfg.backend is not None else UNSET, "backend"),
            executor=merged(executor, "executor"),
            shard_size=merged(
                cfg.shard_size if cfg.shard_size is not None else UNSET, "shard_size"
            ),
            world_cache=merged(self._cache, "world_cache"),
            telemetry=merged(self._telemetry, "telemetry"),
        )

    @contextlib.contextmanager
    def _use(self):
        """Activate the session for one call or :meth:`activate` scope.

        Registers the scope as in-flight so a concurrent :meth:`close`
        (or the owner's ``with`` exit) defers resource release until the
        call completes instead of shutting the pool down underneath it.
        """
        with self._entry_lock:
            if self.closed:
                raise RuntimeError("this Session is closed; build a new one")
            self._inflight += 1
        token = activate(self, self._effective_now())
        try:
            yield
        finally:
            deactivate(token)
            with self._entry_lock:
                self._inflight -= 1
                release = self._take_release_locked()
            if release:
                self._release_resources()

    def __enter__(self) -> "Session":
        with self._entry_lock:
            if self.closed:
                raise RuntimeError("this Session is closed; build a new one")
            self._entry_count += 1
        token = activate(self, self._effective_now())
        push_entry(self, token)
        return self

    def __exit__(self, *exc_info) -> None:
        deactivate(pop_entry(self))
        with self._entry_lock:
            self._entry_count -= 1
            last_exit = self._entry_count == 0
        if last_exit:
            self.close()

    @contextlib.contextmanager
    def activate(self):
        """Make the session ambient for a scope *without* lifecycle ownership.

        ``with session:`` ties activation to the session's lifecycle —
        the last exit closes it, which is right for the common
        one-session-per-scope use but wrong for a session shared across
        sequential requests (the first quiet moment would shut the pool
        down).  ``with session.activate():`` is the sharing-safe
        spelling: it scopes the configuration exactly like ``with
        session:`` but never closes; whoever built the session calls
        :meth:`close` when the service shuts down.  A :meth:`close`
        arriving while the scope is open only marks the session closed;
        its resources are released when the scope ends.
        """
        with self._use():
            yield self

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def executor(self) -> Optional[SamplingExecutor]:
        """The session's resolved executor (``None`` when deferred/unsharded)."""
        return self._executor

    @property
    def world_cache(self) -> Optional[WorldCache]:
        """The session's own cache (``None`` when deferred or disabled)."""
        return self._cache if self._cache is not UNSET else None

    @property
    def telemetry(self) -> Optional[Telemetry]:
        """The session's resolved pipeline (``None`` when inherited)."""
        return self._telemetry if self._telemetry is not UNSET else None

    def close(self) -> None:
        """Close the session and release owned resources (idempotent).

        The session is marked closed immediately — new ``with`` entries,
        :meth:`activate` scopes and calls are rejected — but resource
        release (shutting down an owned executor's worker processes,
        dropping an owned private cache's entries) is deferred until every
        in-flight scope and every open ``with`` entry has drained, so a
        concurrent request on a shared session completes instead of
        losing its pool mid-computation.  Shared executor/cache instances
        are left running for their owners.  Exiting the outermost ``with
        session:`` block calls this automatically.
        """
        with self._entry_lock:
            self.closed = True
            self._close_pending = True
            release = self._take_release_locked()
        if release:
            self._release_resources()

    def _take_release_locked(self) -> bool:
        """Claim the one-shot resource release if everything has drained."""
        ready = (
            self._close_pending
            and not self._released
            and self._inflight == 0
            and self._entry_count == 0
        )
        if ready:
            self._released = True
        return ready

    def _release_resources(self) -> None:
        if self._owns_executor and self._executor is not None:
            self._executor.close()
        if self._owns_cache and isinstance(self._cache, WorldCache):
            self._cache.clear()
        if self._owns_telemetry and isinstance(self._telemetry, Telemetry):
            self._telemetry.close()

    # ------------------------------------------------------------------
    # the one workload method
    # ------------------------------------------------------------------
    def expected_flow(
        self,
        graph,
        query: VertexId,
        n_samples: int = 1000,
        seed: SeedLike = None,
        edges: Optional[Iterable[Edge]] = None,
        include_query: bool = False,
    ) -> FlowEstimate:
        """:meth:`SamplingEngine.expected_flow
        <repro.reachability.engine.SamplingEngine.expected_flow>` run
        inside this session, with the engine's own signature and defaults.

        Activates the session for the call (so a concurrent :meth:`close`
        waits for it); the backend, executor and shard size come from
        this session.
        """
        with self._use():
            return SamplingEngine().expected_flow(
                graph,
                query,
                n_samples=n_samples,
                seed=seed,
                edges=edges,
                include_query=include_query,
            )


def session(config: Optional[RuntimeConfig] = None, **overrides) -> Session:
    """Build a :class:`Session` from a config and/or keyword overrides.

    The canonical entry point::

        with repro.session(backend="naive", workers=2):
            result = make_selector("FT+M", seed=7).select(graph, query, budget=20)
    """
    return Session(config, **overrides)


def current_config() -> RuntimeConfig:
    """Snapshot the fully resolved ambient configuration.

    Collapses the resolution chain (active session → built-in defaults)
    into one concrete :class:`RuntimeConfig`: ``workers`` holds the
    resolved executor instance (``None`` for unsharded) and ``telemetry``
    the resolved pipeline (``telemetry.profiling`` says whether it
    profiles).
    ``world_cache`` is the session's cache instance, ``0`` when a session
    disabled caching, or ``None`` for the shared default cache —
    snapshotting is read-only and never creates that lazy default.  Used
    by the benchmark suite to record the runtime every BENCH JSON was
    measured under.
    """
    effective = current_effective()
    cache = effective.world_cache if effective is not None else UNSET
    if cache is UNSET:
        cache = None  # the shared default cache
    elif cache is None:
        cache = 0  # caching disabled in this scope
    return RuntimeConfig(
        backend=get_default_backend(),
        workers=get_default_executor(),
        shard_size=get_default_shard_size(),
        world_cache=cache,
        telemetry=get_default_telemetry(),
    )


__all__ = [
    "RuntimeConfig",
    "Session",
    "current_config",
    "current_session",
    "session",
]
