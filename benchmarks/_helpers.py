"""Shared helpers for the benchmark suite (imported by the bench modules).

Every benchmark regenerates the data behind one figure of the paper's
evaluation at a scaled-down size (see DESIGN.md §4 and EXPERIMENTS.md).
Set the environment variable ``REPRO_BENCH_SCALE`` to a value above 1.0
to move the instances towards the paper's original scale.

Each benchmark case runs one selection algorithm on one sweep point; the
wall-clock time is measured by pytest-benchmark and the resulting
expected information flow is attached as ``extra_info`` so that both of
the paper's series (flow and runtime) can be read from one benchmark
run.
"""

from __future__ import annotations

import os
import platform
from typing import Dict, Optional

from repro.experiments.harness import evaluate_flow, pick_query_vertex
from repro.graph.uncertain_graph import UncertainGraph
from repro.parallel.plan import DEFAULT_SHARD_SIZE
from repro.runtime import current_config
from repro.selection.registry import make_selector
from repro.types import VertexId


def bench_scale() -> float:
    """Read the global benchmark scale factor (default 1.0)."""
    try:
        return max(0.1, float(os.environ.get("REPRO_BENCH_SCALE", "1.0")))
    except ValueError:
        return 1.0


def bench_environment(
    workers: Optional[int] = None, shard_size: Optional[int] = None
) -> Dict[str, object]:
    """Machine/parallelism context attached to every BENCH JSON payload.

    Perf trajectories are only comparable across machines when the
    payload says how many cores the run had and how the sampling was
    sharded — a 4-worker speedup measured on a 1-core container is not a
    regression, it is a different machine.  ``runtime_config`` records
    the fully resolved :class:`repro.runtime.RuntimeConfig` the numbers
    were measured under (active session → built-in defaults), with the
    benchmark's ``workers`` / ``shard_size`` overlaid, since a bench that
    shards opens its own inner sessions rather than running under one.
    """
    runtime_config = current_config().as_dict()
    if workers is not None:
        runtime_config["workers"] = workers
    if shard_size is not None:
        runtime_config["shard_size"] = shard_size
    return {
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "shard_size": (
            shard_size if shard_size is not None else (DEFAULT_SHARD_SIZE if workers else None)
        ),
        "bench_scale": bench_scale(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "runtime_config": runtime_config,
    }


def scaled(value: int, minimum: int = 4) -> int:
    """Scale an instance-size parameter by ``REPRO_BENCH_SCALE``."""
    return max(minimum, int(round(value * bench_scale())))


#: algorithms benchmarked on most figures (Naive only joins the smallest ones)
FT_ALGORITHMS = ("Dijkstra", "FT", "FT+M", "FT+M+CI", "FT+M+DS", "FT+M+CI+DS")


def run_selection_benchmark(
    benchmark,
    graph: UncertainGraph,
    algorithm: str,
    budget: int,
    n_samples: int = 120,
    seed: int = 7,
    query: Optional[VertexId] = None,
) -> None:
    """Benchmark one selection run and record its evaluated flow.

    The selection itself is what the paper times; the flow of the
    selected subgraph is re-evaluated once outside the timed section
    with a shared, higher-precision estimator.
    """
    query = pick_query_vertex(graph) if query is None else query
    selector = make_selector(algorithm, n_samples=n_samples, seed=seed)

    result_holder: Dict[str, object] = {}

    def run():
        result_holder["result"] = selector.select(graph, query, budget)
        return result_holder["result"]

    benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    result = result_holder["result"]
    flow = evaluate_flow(
        graph, result.selected_edges, query, n_samples=max(400, n_samples), seed=123
    )
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["graph"] = graph.name
    benchmark.extra_info["n_vertices"] = graph.n_vertices
    benchmark.extra_info["n_edges"] = graph.n_edges
    benchmark.extra_info["budget"] = budget
    benchmark.extra_info["expected_flow"] = round(flow, 4)
    benchmark.extra_info["edges_selected"] = result.n_selected
    for key, value in bench_environment().items():
        benchmark.extra_info[key] = value
