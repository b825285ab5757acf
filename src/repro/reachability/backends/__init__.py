"""Registry of possible-world sampling backends.

Mirrors :mod:`repro.selection.registry`: backends are identified by a
short name so the experiment harness, the CLI, the benchmarks and the
estimators share one source of truth for their configuration.  The
library ships:

* ``"naive"`` — one Python BFS per sampled world; the behavioural
  reference (:class:`~repro.reachability.backends.naive.NaiveSamplingBackend`);
* ``"csr"`` — the default: frontier-sparse propagation over the
  precomputed CSR layout shared through :mod:`repro.reachability.layout`,
  with an optional compiled numba kernel
  (:class:`~repro.reachability.backends.csr.CSRSamplingBackend`);
* ``"csr-numba"`` — the CSR backend pinned to the compiled kernel; only
  registered when the numba availability probe passes (see
  :func:`backend_availability` for the why-unavailable reason
  otherwise).

All consume the random stream identically, so for the same seed they
return the same worlds and therefore bit-for-bit identical estimates.
Third-party backends can be added with :func:`register_backend`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from repro._runtime_state import resolve_field
from repro.reachability.backends.base import SamplingBackend, SamplingProblem
from repro.reachability.backends.csr import (
    CSRSamplingBackend,
    NumbaCSRSamplingBackend,
    numba_unavailable_reason,
)
from repro.reachability.backends.naive import NaiveSamplingBackend

#: Accepted forms of a backend specification: a registry name, an already
#: constructed backend instance, or ``None`` for the default.
BackendLike = Union[None, str, SamplingBackend]

#: Backend used when nothing else pins one — neither an explicit call
#: argument, nor an active :func:`repro.session`, nor
#: ``repro.runtime.defaults.backend``.
DEFAULT_BACKEND = "csr"

_FACTORIES: Dict[str, Callable[[], SamplingBackend]] = {}

#: Known-but-unavailable backend names mapped to a human-readable reason
#: (e.g. ``"csr-numba" -> "numba is not installed"``).  These names are
#: deliberately *not* registered, so CLI choices, test parametrization
#: and ``BACKEND_NAMES`` only ever list backends that actually work.
_UNAVAILABLE: Dict[str, str] = {}


def get_default_backend() -> str:
    """Return the name every ``backend=None`` call currently resolves to.

    Resolution order: the innermost active :func:`repro.session` (if it
    pins a backend) → ``repro.runtime.defaults.backend`` →
    :data:`DEFAULT_BACKEND`.
    """
    return resolve_field("backend", DEFAULT_BACKEND)


def register_backend(
    name: str, factory: Optional[Callable[[], SamplingBackend]] = None, replace: bool = False
) -> Callable:
    """Register a backend factory under ``name``.

    Usable directly (``register_backend("mine", MyBackend)``) or as a
    class decorator (``@register_backend("mine")``).  Re-registering an
    existing name raises unless ``replace`` is True.
    """

    def decorator(target: Callable[[], SamplingBackend]) -> Callable[[], SamplingBackend]:
        if not replace and name in _FACTORIES:
            raise ValueError(f"sampling backend {name!r} is already registered")
        _FACTORIES[name] = target
        return target

    if factory is not None:
        return decorator(factory)
    return decorator


def backend_names() -> Tuple[str, ...]:
    """Return the names of all registered backends (registration order)."""
    return tuple(_FACTORIES)


def backend_availability() -> Dict[str, Optional[str]]:
    """Map every known backend name to ``None`` (available) or a reason.

    Registered backends map to ``None``; known-but-unregistered ones
    (an optional dependency failed its import probe) map to the
    human-readable why-unavailable string the probe produced.  The
    ``repro-flow backends`` CLI subcommand prints this verbatim.
    """
    availability: Dict[str, Optional[str]] = {name: None for name in _FACTORIES}
    availability.update(_UNAVAILABLE)
    return availability


def make_backend(backend: BackendLike = None) -> SamplingBackend:
    """Resolve a backend name / instance / ``None`` into a backend instance.

    ``None`` resolves to the current default (active session →
    ``repro.runtime.defaults`` → :data:`DEFAULT_BACKEND`); instances of
    the :class:`SamplingBackend` protocol pass through unchanged so
    callers can share a configured backend object.  Anything else —
    including an object lacking ``propagate_reachability`` — raises
    :class:`TypeError`.
    """
    if backend is None:
        backend = get_default_backend()
    if isinstance(backend, str):
        try:
            factory = _FACTORIES[backend]
        except KeyError:
            reason = _UNAVAILABLE.get(backend)
            if reason is not None:
                raise ValueError(
                    f"sampling backend {backend!r} is unavailable: {reason}"
                ) from None
            raise ValueError(
                f"unknown sampling backend {backend!r}; expected one of {backend_names()}"
            ) from None
        return factory()
    if isinstance(backend, SamplingBackend):
        return backend
    raise TypeError(f"cannot interpret {backend!r} as a sampling backend")


register_backend("naive", NaiveSamplingBackend)
register_backend("csr", CSRSamplingBackend)
_numba_probe = numba_unavailable_reason()
if _numba_probe is None:
    register_backend("csr-numba", NumbaCSRSamplingBackend)
else:
    _UNAVAILABLE["csr-numba"] = _numba_probe

#: The built-in backend names, for CLI choices and test parametrization.
#: Only backends that actually work in this environment appear here
#: (``csr-numba`` joins when numba is importable).
BACKEND_NAMES: Tuple[str, ...] = backend_names()

__all__ = [
    "BACKEND_NAMES",
    "BackendLike",
    "CSRSamplingBackend",
    "DEFAULT_BACKEND",
    "NaiveSamplingBackend",
    "NumbaCSRSamplingBackend",
    "SamplingBackend",
    "SamplingProblem",
    "backend_availability",
    "backend_names",
    "get_default_backend",
    "make_backend",
    "numba_unavailable_reason",
    "register_backend",
]
