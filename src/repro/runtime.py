"""``repro.runtime`` — the unified, scoped Session API.

Four generations of scaling work (pluggable sampling backends, CRN
candidate scoring, sharded executors, the batched query service) each
added its own knob, threaded as the same six kwargs through every entry
point.  This module collapses that surface into one typed, scoped
runtime object:

* :class:`RuntimeConfig` — a frozen dataclass bundling every knob:
  sampling backend, CRN mode, workers/executor spec, shard size, the
  default sample budget (fixed or ``"auto"`` with
  :class:`~repro.parallel.AdaptiveSettings`), the default seed, and the
  world-cache spec.
* :class:`Session` — a facade that owns the resolved executor and world
  cache for one scope and exposes the full workload as methods:
  :meth:`~Session.expected_flow`, :meth:`~Session.pair_reachability`,
  :meth:`~Session.component_reachability`, :meth:`~Session.select`,
  :meth:`~Session.batch`, :meth:`~Session.evaluate_flow`,
  :meth:`~Session.run_figure`.
* :func:`session` — the one-liner entry point::

      import repro

      with repro.session(backend="naive", workers=4, seed=7) as s:
          flow = s.expected_flow(graph, query, n_samples=2000)
          result = s.select(graph, query, budget=20, algorithm="FT+M")

Scoping
-------
Sessions are **contextvar-scoped**: entering ``with repro.session(...)``
activates the configuration for the current thread (or asyncio task)
only, nested sessions merge over their parents field by field, and
exiting restores the enclosing configuration exactly — which makes
configuration safe in threaded services where two requests must not see
each other's knobs.  ``with session:`` ties the scope to the session's
*lifecycle* (the last exit closes it); a long-lived session shared
across sequential requests should instead call its workload methods
directly (each call scopes itself) or use ``with session.activate():``,
which scopes without closing — the owner calls :meth:`Session.close`
at shutdown.  Inside an active session, every mechanism-level entry
point (``SamplingEngine``, ``make_selector``, ``BatchEvaluator``,
``EvaluationContext``, ``ComponentSampler``, the experiment harness)
resolves its unspecified ``backend=None`` / ``crn=None`` /
``executor=None`` / ``shard_size=None`` / ``cache=None`` arguments from
the session, so existing code composes with sessions without signature
changes.

Resolution order for every knob: explicit call argument → innermost
active session → built-in library default.  A session is the only place
a knob is set; there is no process-wide store to assign.

Determinism
-----------
A session changes *where* configuration comes from, never *what* is
computed: for a fixed ``(seed, backend, shard plan)``, every ``Session``
method reproduces the exact bits of the corresponding
``SamplingEngine`` / selector / service call (pinned by
``tests/test_runtime_scoping.py``).

Lifecycle
---------
A session built with an integer ``workers`` spec owns the resulting
executor, and one built with an integer ``world_cache`` bound owns that
private cache; :meth:`Session.close` (or context-manager exit) shuts the
pool down and drops the cache's entries.  Shared instances passed in are
left running for their owners, mirroring
:class:`~repro.service.BatchEvaluator`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

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
from repro.parallel.adaptive import AdaptiveSettings
from repro.parallel.executor import (
    ExecutorLike,
    SamplingExecutor,
    make_executor,
)
from repro.parallel.plan import check_sample_count, check_shard_size, get_default_shard_size
from repro.reachability.backends import backend_names, get_default_backend
from repro.reachability.engine import SamplingEngine
from repro.reachability.estimators import FlowEstimate, ReachabilityEstimate
from repro.rng import SeedLike
from repro.selection.base import SelectionResult
from repro.selection.registry import get_default_crn, make_selector
from repro.service.cache import CacheLike, WorldCache
from repro.service.evaluator import BatchEvaluator
from repro.service.requests import QueryRequest, QueryResult
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
    crn:
        Common-random-numbers candidate scoring for the sampling-based
        selectors; built-in default ``True``.  ``False`` restores the
        paper's literal per-candidate resampling reference mode.
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
    n_samples:
        Default Monte-Carlo sample budget for session methods: a
        positive integer, or ``"auto"`` for adaptive CI-driven stopping
        (see :class:`~repro.parallel.AdaptiveSettings`).
    adaptive:
        Stopping rule used when ``n_samples="auto"``.
    seed:
        Default seed for session methods that are not handed one: a
        non-negative ``int`` or a :class:`numpy.random.Generator`.
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
        enabled outer scope, an instance is shared.
    profile:
        Resource profiling: ``True`` makes the session's telemetry a
        :class:`~repro.telemetry.profile.ProfilingTelemetry`, so every
        span additionally carries CPU time, tracemalloc allocation
        deltas and GC-collection counts.  Requires telemetry (combining
        ``profile=True`` with ``telemetry=False`` raises); when the
        ``telemetry`` field names an instance it must already be a
        profiling pipeline.  ``None``/``False`` leave the pipeline
        exactly as the ``telemetry`` field says — results are
        bit-for-bit identical either way, profiling only adds
        measurement.
    """

    backend: Optional[str] = None
    crn: Optional[bool] = None
    workers: ExecutorLike = None
    shard_size: Optional[int] = None
    n_samples: Optional[object] = None
    adaptive: Optional[AdaptiveSettings] = None
    seed: SeedLike = None
    world_cache: CacheLike = None
    telemetry: Optional[object] = None
    profile: Optional[bool] = None

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
        if self.crn is not None and not isinstance(self.crn, bool):
            raise TypeError(f"RuntimeConfig.crn must be a bool or None, got {self.crn!r}")
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
        if self.n_samples is not None:
            check_sample_count(self.n_samples, allow_auto=True, name="RuntimeConfig.n_samples")
        if self.seed is not None and not isinstance(self.seed, np.random.Generator):
            if isinstance(self.seed, bool) or not isinstance(self.seed, int):
                raise TypeError(
                    f"RuntimeConfig.seed must be None, an int or a numpy Generator, "
                    f"got {self.seed!r}"
                )
            if self.seed < 0:
                raise ValueError(f"RuntimeConfig.seed must be >= 0, got {self.seed!r}")
        if self.adaptive is not None and not isinstance(self.adaptive, AdaptiveSettings):
            raise TypeError(
                f"RuntimeConfig.adaptive must be AdaptiveSettings or None, "
                f"got {self.adaptive!r}"
            )
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
        if self.profile is not None and not isinstance(self.profile, bool):
            raise TypeError(
                f"RuntimeConfig.profile must be a bool or None, got {self.profile!r}"
            )
        if self.profile:
            if self.telemetry is False:
                raise ValueError(
                    "RuntimeConfig.profile=True requires telemetry; "
                    "telemetry=False pins the pipeline off"
                )
            if isinstance(self.telemetry, Telemetry) and not getattr(
                self.telemetry, "profiling", False
            ):
                raise ValueError(
                    "RuntimeConfig.profile=True with a telemetry instance "
                    "requires a ProfilingTelemetry; got "
                    f"{type(self.telemetry).__name__}"
                )

    def replace(self, **changes) -> "RuntimeConfig":
        """Return a copy with the named fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe summary of the config (for BENCH payloads and logs).

        Executor and cache instances are reduced to their worker count /
        entry bound; a non-integer seed is rendered as its ``repr``.
        """
        workers = self.workers
        if isinstance(workers, SamplingExecutor):
            workers = workers.workers
        cache = self.world_cache
        if isinstance(cache, WorldCache):
            cache = cache.max_entries
        seed = self.seed
        if seed is not None and not isinstance(seed, int):
            seed = repr(seed)
        adaptive = (
            dataclasses.asdict(self.adaptive) if self.adaptive is not None else None
        )
        telemetry = self.telemetry
        if isinstance(telemetry, Telemetry):
            telemetry = telemetry.enabled
        return {
            "backend": self.backend,
            "crn": self.crn,
            "workers": workers,
            "shard_size": self.shard_size,
            "n_samples": self.n_samples,
            "adaptive": adaptive,
            "seed": seed,
            "world_cache": cache,
            "telemetry": telemetry,
            "profile": self.profile,
        }


class Session:
    """A scoped runtime: one resolved configuration plus owned resources.

    Build one from a :class:`RuntimeConfig` (and/or keyword overrides)
    and either use it as a context manager — activating it for the
    current thread so every library call inside resolves its unspecified
    knobs from it — or call its workload methods directly; each method
    activates the session for the duration of the call.

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
        if base.profile:
            # profiling needs a profiling span pipeline: build an owned
            # one for None/True specs; a passed instance is already a
            # ProfilingTelemetry (validated by RuntimeConfig) and shared
            from repro.telemetry.profile import ProfilingTelemetry

            if tspec is None or tspec is True:
                self._owns_telemetry = True
                self._telemetry = ProfilingTelemetry()
            else:
                self._owns_telemetry = False
                self._telemetry = tspec
        else:
            self._owns_telemetry = tspec is True
            if tspec is None:
                self._telemetry = UNSET  # inherit the ambient pipeline
            elif tspec is False:
                self._telemetry = NULL_TELEMETRY  # pinned off in this scope
            elif tspec is True:
                self._telemetry = Telemetry()
            else:
                self._telemetry = tspec
        self._evaluator: Optional[BatchEvaluator] = None
        # lifecycle bookkeeping: activation tokens must be reset in the
        # context that created them, so entries live on a context-local
        # stack (see _runtime_state.push_entry); the entry and in-flight
        # counts are shared across threads so a session used concurrently
        # only releases its resources after the last exit AND the last
        # in-flight workload call have drained — close() marks the
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
            crn=merged(cfg.crn if cfg.crn is not None else UNSET, "crn"),
            executor=merged(executor, "executor"),
            shard_size=merged(
                cfg.shard_size if cfg.shard_size is not None else UNSET, "shard_size"
            ),
            world_cache=merged(self._cache, "world_cache"),
            telemetry=merged(self._telemetry, "telemetry"),
            n_samples=merged(
                cfg.n_samples if cfg.n_samples is not None else UNSET, "n_samples"
            ),
            adaptive=merged(
                cfg.adaptive if cfg.adaptive is not None else UNSET, "adaptive"
            ),
            seed=merged(cfg.seed if cfg.seed is not None else UNSET, "seed"),
        )

    @contextlib.contextmanager
    def _use(self):
        """Activate the session for the duration of one method call.

        Registers the call as in-flight so a concurrent :meth:`close`
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
        :meth:`close` when the service shuts down.  (Calling the
        session's workload methods directly is equally safe — each call
        activates the session just for its own duration.)
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

    @property
    def evaluator(self) -> BatchEvaluator:
        """The session's lazily built batch evaluator (shared by :meth:`batch`).

        Built with all-unset specs, so it resolves backend, executor,
        shard size and cache from this session at every call — use it
        inside ``with session:`` (or via :meth:`batch` / :meth:`warm`,
        which activate the session themselves).  The lazy build is
        guarded so concurrent first calls from a shared session get one
        evaluator (and therefore one set of stats), not two.

        Admission control lives in :meth:`_use` — this property only
        refuses once the session's resources are actually *released*, so
        a ``batch()`` call admitted before a concurrent :meth:`close`
        still reaches its evaluator and completes (the documented drain
        guarantee).
        """
        with self._entry_lock:
            if self._released:
                raise RuntimeError("this Session is closed; build a new one")
            if self._evaluator is None:
                self._evaluator = BatchEvaluator()
            return self._evaluator

    def close(self) -> None:
        """Close the session and release owned resources (idempotent).

        The session is marked closed immediately — new ``with`` entries
        and workload calls are rejected — but resource release (shutting
        down an owned executor's worker processes, dropping an owned
        private cache's entries) is deferred until every in-flight
        workload call and every open ``with`` entry has drained, so a
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
        if self._evaluator is not None:
            self._evaluator.close()
            self._evaluator = None
        if self._owns_executor and self._executor is not None:
            self._executor.close()
        if self._owns_cache and isinstance(self._cache, WorldCache):
            self._cache.clear()
        if self._owns_telemetry and isinstance(self._telemetry, Telemetry):
            self._telemetry.close()

    # ------------------------------------------------------------------
    # knob resolution for the workload methods.  All four helpers run
    # inside ``_use()``, so ``current_effective()`` is this session's view
    # merged over its parents — nested sessions inherit the policy fields
    # (n_samples, adaptive, seed) exactly like the ambient knobs.
    # ------------------------------------------------------------------
    @staticmethod
    def _effective_field(field):
        effective = current_effective()
        value = getattr(effective, field) if effective is not None else UNSET
        return None if value is UNSET else value

    def _resolve_samples(self, n_samples):
        """Explicit argument → session chain → library default (1000)."""
        if n_samples is not None:
            return n_samples
        inherited = self._effective_field("n_samples")
        return inherited if inherited is not None else 1000

    def _resolve_int_samples(self, n_samples, default: int) -> int:
        value = n_samples if n_samples is not None else self._effective_field("n_samples")
        if value is None:
            return default
        if isinstance(value, str):
            raise ValueError(
                "adaptive n_samples='auto' applies to the estimators; pass an "
                "integer n_samples for selection/evaluation"
            )
        return int(value)

    def _resolve_seed(self, seed: SeedLike) -> SeedLike:
        return seed if seed is not None else self._effective_field("seed")

    def _resolve_adaptive(self, adaptive):
        return adaptive if adaptive is not None else self._effective_field("adaptive")

    # ------------------------------------------------------------------
    # the workload
    # ------------------------------------------------------------------
    def expected_flow(
        self,
        graph,
        query: VertexId,
        n_samples=None,
        seed: SeedLike = None,
        edges: Optional[Iterable[Edge]] = None,
        include_query: bool = False,
        adaptive: Optional[AdaptiveSettings] = None,
    ) -> FlowEstimate:
        """Monte-Carlo expected information flow under this session's config.

        Resolves ``n_samples``, ``seed`` and ``adaptive`` from the session
        chain, then calls :meth:`SamplingEngine.expected_flow
        <repro.reachability.engine.SamplingEngine.expected_flow>`, whose
        backend, executor and shard size resolve from this session.
        """
        with self._use():
            return SamplingEngine().expected_flow(
                graph,
                query,
                n_samples=self._resolve_samples(n_samples),
                seed=self._resolve_seed(seed),
                edges=edges,
                include_query=include_query,
                adaptive=self._resolve_adaptive(adaptive),
            )

    def pair_reachability(
        self,
        graph,
        source: VertexId,
        target: VertexId,
        n_samples=None,
        seed: SeedLike = None,
        edges: Optional[Iterable[Edge]] = None,
        adaptive: Optional[AdaptiveSettings] = None,
    ) -> ReachabilityEstimate:
        """Two-terminal reachability ``P(source ↔ target)`` under this session."""
        with self._use():
            return SamplingEngine().pair_reachability(
                graph,
                source,
                target,
                n_samples=self._resolve_samples(n_samples),
                seed=self._resolve_seed(seed),
                edges=edges,
                adaptive=self._resolve_adaptive(adaptive),
            )

    def component_reachability(
        self,
        graph,
        anchor: VertexId,
        vertices: Iterable[VertexId],
        edges: Iterable[Edge],
        n_samples=None,
        seed: SeedLike = None,
    ) -> Dict[VertexId, float]:
        """Per-vertex reachability of one edge-induced component."""
        with self._use():
            return SamplingEngine().component_reachability(
                graph,
                anchor,
                vertices,
                edges,
                n_samples=self._resolve_int_samples(n_samples, 1000),
                seed=self._resolve_seed(seed),
            )

    def select(
        self,
        graph,
        query: VertexId,
        budget: int,
        algorithm: str = "FT+M",
        n_samples=None,
        seed: SeedLike = None,
        **selector_options,
    ) -> SelectionResult:
        """Run one of the paper's edge-selection algorithms under this session.

        Builds the selector through
        :func:`repro.selection.make_selector` with the session's
        resolved sample budget and seed; every other knob (backend, CRN
        mode, executor, shard size) resolves from the active session
        unless overridden via ``selector_options``.
        """
        with self._use():
            selector = make_selector(
                algorithm,
                n_samples=self._resolve_int_samples(n_samples, 1000),
                seed=self._resolve_seed(seed),
                **selector_options,
            )
            return selector.select(graph, query, budget)

    def batch(
        self, graph, requests: Sequence[QueryRequest], warm: bool = False
    ) -> List[QueryResult]:
        """Answer a mixed batch of service queries under this session.

        Routes through the session's shared :attr:`evaluator`, so
        successive batches reuse the session's world cache; ``warm=True``
        pre-samples every needed world batch first (the answering pass is
        then served entirely from cache).
        """
        with self._use():
            evaluator = self.evaluator
            if warm:
                evaluator.warm(graph, requests)
            return evaluator.evaluate(graph, requests)

    def warm(self, graph, requests: Sequence[QueryRequest]) -> Dict[str, float]:
        """Pre-sample every world batch a request batch will need."""
        with self._use():
            return self.evaluator.warm(graph, requests)

    def evaluate_flow(
        self,
        graph,
        edges: Iterable[Edge],
        query: VertexId,
        n_samples=None,
        exact_threshold: int = 14,
        seed: SeedLike = None,
        include_query: bool = False,
    ) -> float:
        """Independently evaluate the expected flow of a selected edge set.

        The harness yardstick
        (:func:`repro.experiments.harness.evaluate_flow`) run under this
        session; its historical defaults (1000 samples, seed 12345) apply
        when neither the call nor the config pins them.
        """
        with self._use():
            from repro.experiments.harness import evaluate_flow

            resolved_seed = self._resolve_seed(seed)
            return evaluate_flow(
                graph,
                edges,
                query,
                n_samples=self._resolve_int_samples(n_samples, 1000),
                exact_threshold=exact_threshold,
                seed=resolved_seed if resolved_seed is not None else 12345,
                include_query=include_query,
            )

    def run_figure(self, figure: str, config=None):
        """Reproduce one of the paper's figures under this session.

        Dispatches through :func:`repro.experiments.figures.run_figure`:
        ``figure`` is a key of ``ALL_FIGURES`` and ``config`` an optional
        :class:`~repro.experiments.ExperimentConfig` forwarded to figures
        that accept one.
        """
        with self._use():
            from repro.experiments.figures import run_figure

            return run_figure(figure, config)


def session(config: Optional[RuntimeConfig] = None, **overrides) -> Session:
    """Build a :class:`Session` from a config and/or keyword overrides.

    The canonical entry point::

        with repro.session(backend="naive", workers=2, seed=7) as s:
            result = s.select(graph, query, budget=20)
    """
    return Session(config, **overrides)


def current_config() -> RuntimeConfig:
    """Snapshot the fully resolved ambient configuration.

    Collapses the resolution chain (active session → built-in defaults)
    into one concrete :class:`RuntimeConfig`: ``workers`` holds the
    resolved executor instance (``None`` for unsharded), ``telemetry``
    the resolved pipeline and ``profile`` whether it is a profiling one.
    ``world_cache`` is the session's cache instance, ``0`` when a session
    disabled caching, or ``None`` for the shared default cache —
    snapshotting is read-only and never creates that lazy default.  Used
    by the benchmark suite to record the runtime every BENCH JSON was
    measured under.
    """
    effective = current_effective()

    def pinned(field):
        value = getattr(effective, field) if effective is not None else UNSET
        return None if value is UNSET else value

    cache = effective.world_cache if effective is not None else UNSET
    if cache is UNSET:
        cache = None  # the shared default cache
    elif cache is None:
        cache = 0  # caching disabled in this scope
    telemetry = get_default_telemetry()
    return RuntimeConfig(
        backend=get_default_backend(),
        crn=get_default_crn(),
        workers=pinned("executor"),
        shard_size=get_default_shard_size(),
        n_samples=pinned("n_samples"),
        adaptive=pinned("adaptive"),
        seed=pinned("seed"),
        world_cache=cache,
        telemetry=telemetry,
        profile=bool(getattr(telemetry, "profiling", False)),
    )


__all__ = [
    "RuntimeConfig",
    "Session",
    "current_config",
    "current_session",
    "session",
]
