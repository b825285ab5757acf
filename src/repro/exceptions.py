"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class GraphError(ReproError):
    """Base class for errors concerning the uncertain graph model."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex referenced by the caller does not exist in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} does not exist in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced by the caller does not exist in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) does not exist in the graph")
        self.u = u
        self.v = v


class DuplicateVertexError(GraphError, ValueError):
    """An attempt was made to add a vertex that already exists."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} already exists in the graph")
        self.vertex = vertex


class DuplicateEdgeError(GraphError, ValueError):
    """An attempt was made to add an edge that already exists."""

    def __init__(self, u: object, v: object, where: str = "the graph") -> None:
        super().__init__(f"edge ({u!r}, {v!r}) already exists in {where}")
        self.u = u
        self.v = v


class InvalidProbabilityError(GraphError, ValueError):
    """An edge probability falls outside the half-open interval (0, 1]."""

    def __init__(self, value: float) -> None:
        super().__init__(
            f"edge probability must lie in (0, 1], got {value!r}"
        )
        self.value = value


class InvalidWeightError(GraphError, ValueError):
    """A vertex weight is negative or not a finite number."""

    def __init__(self, value: float) -> None:
        super().__init__(
            f"vertex weight must be a non-negative finite number, got {value!r}"
        )
        self.value = value


class SelfLoopError(GraphError, ValueError):
    """Self loops carry no information flow and are rejected."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"self loop on vertex {vertex!r} is not allowed")
        self.vertex = vertex


class FTreeError(ReproError):
    """Base class for F-tree structural errors."""


class FTreeInvariantError(FTreeError):
    """An internal consistency check of the F-tree failed."""


class DisconnectedInsertionError(FTreeError, ValueError):
    """An edge insertion would leave the inserted edge disconnected from Q.

    The F-tree only represents the connected component of the query
    vertex, so at least one endpoint of every inserted edge must already
    be known to the tree (paper Section 5.4, Case I is excluded).
    """

    def __init__(self, u: object, v: object) -> None:
        super().__init__(
            f"neither endpoint of edge ({u!r}, {v!r}) is connected to the query vertex"
        )
        self.u = u
        self.v = v


class SelectionError(ReproError):
    """Base class for edge-selection failures."""


class BudgetError(SelectionError, ValueError):
    """The requested edge budget is invalid (negative, or zero where unsupported)."""

    def __init__(self, budget: int) -> None:
        super().__init__(f"edge budget must be a non-negative integer, got {budget!r}")
        self.budget = budget


class EstimationError(ReproError):
    """Base class for reachability-estimation failures."""


class SampleSizeError(EstimationError, ValueError):
    """The number of Monte-Carlo samples requested is not a positive integer."""

    def __init__(self, n_samples: int) -> None:
        super().__init__(f"sample size must be a positive integer, got {n_samples!r}")
        self.n_samples = n_samples


class ExactEnumerationError(EstimationError, ValueError):
    """Exact possible-world enumeration was requested on a graph that is too large."""

    def __init__(self, n_edges: int, limit: int) -> None:
        super().__init__(
            f"exact enumeration over 2^{n_edges} possible worlds exceeds the limit of 2^{limit}"
        )
        self.n_edges = n_edges
        self.limit = limit


class ExecutorError(ReproError):
    """Base class for sharded-sampling executor failures."""


class WorkerCrashedError(ExecutorError, RuntimeError):
    """A worker process died mid-batch (OOM kill, SIGKILL, hard crash).

    The executor discards its broken pool when raising this, so the
    *next* ``map_shards`` call transparently rebuilds a fresh pool —
    retrying the same request is safe and yields the same bits (every
    shard carries its own pre-split seed).
    """

    def __init__(self, workers: int, detail: str = "") -> None:
        hint = f" ({detail})" if detail else ""
        super().__init__(
            f"a sampling worker process died mid-batch{hint}; this usually "
            f"means the OS killed it (out-of-memory) or it crashed hard. "
            f"The broken {workers}-worker pool has been discarded — retrying "
            f"the call rebuilds a fresh pool and produces identical results; "
            f"if it recurs, lower the worker count or shard size to reduce "
            f"per-worker memory"
        )
        self.workers = workers


class TransportTimeoutError(ReproError, TimeoutError):
    """A network read/connect deadline expired before the peer answered.

    Raised by the serving tier's :class:`~repro.server.ServerClient` on
    read/connect timeouts — one typed error for "the server went quiet",
    so callers can retry without string-matching socket errors.
    """

    def __init__(self, operation: str, timeout: float) -> None:
        super().__init__(
            f"{operation} timed out after {timeout:.1f}s; the peer may be "
            f"dead, partitioned or overloaded — raise the timeout or check "
            f"the remote endpoint"
        )
        self.operation = operation
        self.timeout = timeout


class DatasetError(ReproError):
    """A named dataset is unknown or could not be generated/loaded."""


class ExperimentError(ReproError):
    """An experiment configuration is inconsistent or an experiment run failed."""
