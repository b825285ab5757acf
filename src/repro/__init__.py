"""repro — Information Flow Maximization in Probabilistic Graphs.

A reproduction of Frey, Züfle, Emrich & Renz, *"Efficient Information
Flow Maximization in Probabilistic Graphs"* (IEEE TKDE 30(5), 2018 /
ICDE 2018 extended abstract).

Quickstart
----------
>>> from repro import erdos_renyi_graph, make_selector
>>> graph = erdos_renyi_graph(200, average_degree=4, seed=7)
>>> selector = make_selector("FT+M", n_samples=200, seed=7)
>>> result = selector.select(graph, query=0, budget=15)
>>> result.n_selected
15

The package is organised as:

* :mod:`repro.graph` — the uncertain graph model, possible worlds and
  synthetic generators;
* :mod:`repro.algorithms` — deterministic graph algorithms (BFS, Tarjan
  biconnected components, Dijkstra, spanning trees);
* :mod:`repro.reachability` — Monte-Carlo, exact and analytic estimators
  of reachability probability and expected information flow;
* :mod:`repro.ftree` — the F-tree decomposition (the paper's core
  contribution);
* :mod:`repro.selection` — the edge-selection algorithms compared in the
  paper's evaluation;
* :mod:`repro.datasets` — named datasets (synthetic surrogates of the
  paper's real networks);
* :mod:`repro.parallel` — sharded possible-world sampling with
  deterministic seed-splitting, process-pool executors and adaptive
  CI-driven stopping;
* :mod:`repro.service` — the batched multi-query evaluation service:
  mixed batches of flow/reachability queries planned onto shared world
  batches, with a digest-keyed LRU world cache;
* :mod:`repro.server` — the async serving tier: a JSONL-over-TCP front
  end that coalesces concurrently-arriving queries into shared
  evaluation batches, with admission control and a health/metrics
  surface;
* :mod:`repro.digest` — the stable content-hashing scheme shared by the
  F-tree memo, the layout cache and the world cache;
* :mod:`repro.lru` — the one bounded, thread-safe LRU those three
  content-addressed caches are built on;
* :mod:`repro.runtime` — the unified Session API: one frozen
  :class:`~repro.runtime.RuntimeConfig` bundling every runtime knob
  (backend, CRN mode, workers, shard size, sample/seed policy, world
  cache) and a contextvar-scoped :class:`~repro.runtime.Session` facade
  (``with repro.session(...):``), the one place runtime knobs are set;
* :mod:`repro.telemetry` — the unified observability layer: a
  thread-safe metrics registry plus nested tracing spans, resolved like
  every other runtime knob and instrumented through engine, executor,
  caches, service and server (disabled by default at zero cost);
* :mod:`repro.experiments` — the harness that regenerates every figure
  of the evaluation section.
"""

import logging as _logging

from repro.types import Edge, VertexId
from repro.graph import (
    UncertainGraph,
    PossibleWorld,
    enumerate_worlds,
    erdos_renyi_graph,
    partitioned_graph,
    wsn_graph,
    grid_road_graph,
    social_circle_graph,
    collaboration_graph,
    preferential_attachment_graph,
)
from repro.reachability import (
    exact_expected_flow,
    mono_connected_expected_flow,
)
from repro.parallel import (
    AdaptiveSettings,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.service import (
    BatchEvaluator,
    QueryRequest,
    QueryResult,
    WorldCache,
)
from repro.server import ReproServer, ServerClient, ServerConfig
from repro.ftree import FTree, ComponentSampler, MemoCache, build_ftree
from repro.selection import (
    DijkstraSelector,
    NaiveGreedySelector,
    FTreeGreedySelector,
    RandomSelector,
    exhaustive_optimal_selection,
    make_selector,
    ALGORITHM_NAMES,
    SelectionResult,
)
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    current_telemetry,
    traced,
)
from repro import runtime
from repro.runtime import RuntimeConfig, Session, current_config, session

# library convention: the embedding application decides where log records
# go; without a configured handler the repro tree stays silent
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

__version__ = "1.0.0"

__all__ = [
    "Edge",
    "VertexId",
    "UncertainGraph",
    "PossibleWorld",
    "enumerate_worlds",
    "erdos_renyi_graph",
    "partitioned_graph",
    "wsn_graph",
    "grid_road_graph",
    "social_circle_graph",
    "collaboration_graph",
    "preferential_attachment_graph",
    "exact_expected_flow",
    "mono_connected_expected_flow",
    "AdaptiveSettings",
    "ProcessExecutor",
    "SerialExecutor",
    "make_executor",
    "BatchEvaluator",
    "QueryRequest",
    "QueryResult",
    "WorldCache",
    "ReproServer",
    "ServerClient",
    "ServerConfig",
    "FTree",
    "ComponentSampler",
    "MemoCache",
    "build_ftree",
    "DijkstraSelector",
    "NaiveGreedySelector",
    "FTreeGreedySelector",
    "RandomSelector",
    "exhaustive_optimal_selection",
    "make_selector",
    "ALGORITHM_NAMES",
    "SelectionResult",
    "MetricsRegistry",
    "Telemetry",
    "current_telemetry",
    "traced",
    "runtime",
    "RuntimeConfig",
    "Session",
    "current_config",
    "session",
    "__version__",
]
