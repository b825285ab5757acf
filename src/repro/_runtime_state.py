"""Internal state behind :mod:`repro.runtime`: defaults store + active session.

This module is deliberately dependency-free (it imports nothing from the
rest of the library) so that the low-level configuration points — the
backend registry, the shard planner, the executor factory, the selection
registry and the world cache — can consult it without import cycles.
User-facing API lives in :mod:`repro.runtime`; nothing here is public.

Two pieces of state live here:

* :data:`defaults` — the **one** process-wide fallback store.  Each field
  is ``None`` until something assigns it, meaning "use the library's
  built-in default".
* the **active session** — a :class:`contextvars.ContextVar` holding the
  innermost :class:`repro.runtime.Session` activation.  Contextvars make
  scoping both thread-safe and ``asyncio``-safe: a session entered in one
  thread (or task) is invisible to every other, and nested activations
  restore the previous one exactly.

Resolution order for every knob is therefore: explicit call argument →
innermost active session (already merged over its parents at activation
time) → :data:`defaults` → built-in library default.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar, Token
from typing import Any, Callable, Optional

#: Sentinel for "this activation does not pin the knob — fall through to
#: the process-wide defaults store".  Distinct from ``None`` because
#: ``None`` is meaningful for some knobs (executor ``None`` = unsharded,
#: world cache ``None`` = caching disabled).
UNSET: Any = type("_Unset", (), {"__repr__": lambda self: "<UNSET>"})()


class RuntimeDefaults:
    """The process-wide fallback configuration store.

    Every field is ``None`` until assigned; ``None`` means "defer to the
    library's built-in default" (``csr`` backend, CRN scoring on,
    unsharded sampling, 256-world shards, lazily created shared world
    cache).  Assign fields directly (``repro.runtime.defaults.backend =
    "naive"``) for a process-wide override, or use a scoped
    :func:`repro.session` — which always wins over this store.

    Values are validated where they are consumed (e.g. an unknown backend
    name raises at the next ``make_backend`` resolution).
    """

    __slots__ = ("backend", "crn", "executor", "shard_size", "world_cache", "telemetry")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Restore the pristine state (every knob back to built-in defaults).

        Does not close a previously stored executor or clear a stored
        cache — the store never owns resources, callers do.
        """
        self.backend: Optional[str] = None
        self.crn: Optional[bool] = None
        self.executor: Optional[object] = None
        self.shard_size: Optional[int] = None
        self.world_cache: Optional[object] = None
        self.telemetry: Optional[object] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"<RuntimeDefaults {fields}>"


#: The one process-wide defaults store (see :class:`RuntimeDefaults`).
defaults = RuntimeDefaults()

_STORE_LOCK = threading.Lock()


def resolve_field(field: str, builtin: Any) -> Any:
    """Resolve one knob through the documented chain, in one place.

    Innermost active session (merged view) → ``defaults.<field>`` →
    ``builtin``.  The shared implementation guarantees every knob follows
    the same resolution order.
    """
    effective = current_effective()
    if effective is not None:
        value = getattr(effective, field)
        if value is not UNSET:
            return value
    stored = getattr(defaults, field)
    return stored if stored is not None else builtin


def normalize_store_field(
    field: str,
    needs_normalize: Callable[[Any], bool],
    normalize: Callable[[Any], Any],
) -> Any:
    """Read ``defaults.<field>``, normalizing raw specs once under one lock.

    The store accepts whatever users assign (worker counts, cache entry
    bounds, ...); the resolution points turn such raw specs into live
    objects exactly once and pin the result back, double-checked under a
    shared lock so concurrent first resolutions cannot build duplicate
    resources (e.g. two process pools from one ``defaults.executor = 4``).
    """
    stored = getattr(defaults, field)
    if needs_normalize(stored):
        with _STORE_LOCK:
            stored = getattr(defaults, field)
            if needs_normalize(stored):
                stored = normalize(stored)
                setattr(defaults, field, stored)
    return stored


class EffectiveConfig:
    """One activation's merged view of the session-scoped knobs.

    Built by :meth:`repro.runtime.Session` activation from its own
    :class:`~repro.runtime.RuntimeConfig` merged over the enclosing
    activation; fields the whole session chain leaves unset stay
    :data:`UNSET` and resolution falls through to :data:`defaults`.
    ``executor`` and ``world_cache`` hold *resolved* objects (or ``None``
    for "explicitly unsharded"/"caching disabled"), never raw specs, and
    ``telemetry`` holds a resolved ``repro.telemetry.Telemetry`` pipeline
    (the disabled singleton when a session pins telemetry off).
    The ambient knobs are what the library-wide ``get_default_*``
    resolution points consult; ``n_samples``, ``adaptive`` and ``seed``
    are the call-policy fields only Session methods read — carried here
    so nested sessions inherit them too.
    """

    __slots__ = (
        "backend",
        "crn",
        "executor",
        "shard_size",
        "world_cache",
        "telemetry",
        "n_samples",
        "adaptive",
        "seed",
    )

    def __init__(
        self,
        backend: Any = UNSET,
        crn: Any = UNSET,
        executor: Any = UNSET,
        shard_size: Any = UNSET,
        world_cache: Any = UNSET,
        telemetry: Any = UNSET,
        n_samples: Any = UNSET,
        adaptive: Any = UNSET,
        seed: Any = UNSET,
    ) -> None:
        self.backend = backend
        self.crn = crn
        self.executor = executor
        self.shard_size = shard_size
        self.world_cache = world_cache
        self.telemetry = telemetry
        self.n_samples = n_samples
        self.adaptive = adaptive
        self.seed = seed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"<EffectiveConfig {fields}>"


class _Activation:
    """One entry of the session stack: the session plus its merged view."""

    __slots__ = ("session", "effective")

    def __init__(self, session: object, effective: EffectiveConfig) -> None:
        self.session = session
        self.effective = effective


_ACTIVE: ContextVar[Optional[_Activation]] = ContextVar("repro_active_session", default=None)


def current_session() -> Optional[object]:
    """Return the innermost active :class:`repro.runtime.Session`, if any."""
    activation = _ACTIVE.get()
    return None if activation is None else activation.session


def current_effective() -> Optional[EffectiveConfig]:
    """Return the innermost activation's merged knob view, if any."""
    activation = _ACTIVE.get()
    return None if activation is None else activation.effective


def activate(session: object, effective: EffectiveConfig) -> Token:
    """Push a session activation; returns the token that restores the prior one."""
    return _ACTIVE.set(_Activation(session, effective))


def deactivate(token: Token) -> None:
    """Pop a session activation, restoring exactly the enclosing state."""
    _ACTIVE.reset(token)


# One context-local stack of (session, token) pairs for Session's
# ``with`` protocol.  A single module-level ContextVar — rather than one
# per Session instance — keeps a long-lived thread's Context from
# accumulating an unbounded set of dead ContextVar entries as sessions
# come and go (ContextVars can never be removed from a Context).
_ENTRY_STACK: ContextVar[tuple] = ContextVar("repro_session_entry_stack", default=())


def push_entry(session: object, token: Token) -> None:
    """Record a ``with session:`` entry in the current context."""
    _ENTRY_STACK.set(_ENTRY_STACK.get() + ((session, token),))


def pop_entry(session: object) -> Token:
    """Pop the current context's innermost entry, which must be ``session``.

    ``with`` blocks are well-nested per context, so the top of the stack
    always belongs to the session being exited; anything else means the
    session was never entered in this context (e.g. entered in one
    thread, exited in another).
    """
    stack = _ENTRY_STACK.get()
    if not stack or stack[-1][0] is not session:
        raise RuntimeError("this Session is not active in the current context")
    _ENTRY_STACK.set(stack[:-1])
    return stack[-1][1]
