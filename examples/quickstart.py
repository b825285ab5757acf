#!/usr/bin/env python3
"""Quickstart: maximise information flow towards a query vertex.

Generates a small uncertain graph, runs the paper's main algorithm
(FT+M: greedy edge selection on the F-tree with memoization) next to the
two baselines (Dijkstra spanning tree, Naive whole-graph sampling), and
prints the expected information flow and runtime of each.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import repro
from repro.experiments.harness import evaluate_flow, pick_query_vertex
from repro.experiments.reporting import format_table
from repro.reachability import SamplingEngine
from repro.reachability.confidence import wilson_confidence_interval

# All runtime knobs live in one scoped configuration object,
# repro.RuntimeConfig, activated with `with repro.session(...)`:
#
#   * backend     — possible-world sampling backend: "csr" (the default:
#                   frontier-sparse bit-packed propagation over the cached
#                   CSR graph layout) or "naive" (one BFS per world, the
#                   readable reference).
#                   "csr-numba" appears too when numba is installed; run
#                   `repro-flow backends` to list availability.  All
#                   yield bit-for-bit identical estimates for the same
#                   seed.
#   * workers     — sharded parallel sampling: a worker count (the
#                   session owns and closes the pool) or a shared
#                   ProcessExecutor instance.  Results are bit-for-bit
#                   identical for any worker count at a fixed
#                   (seed, n_samples, shard_size).
#   * world_cache — digest-keyed LRU world cache for the batched query
#                   service (an entry bound, 0 to disable, or a shared
#                   WorldCache instance).
#   * telemetry   — the observability pipeline (see steps 5 and 6).
#
# The sample budget (a fixed number of worlds, as in the paper) and the
# seed are not runtime knobs: they are arguments of each call.
#
# Sessions scope cleanly (contextvar-based): they nest, restore the
# enclosing configuration on exit, and are invisible to other threads.
# The mechanism-level API (make_selector, SamplingEngine, BatchEvaluator,
# EvaluationContext, ...) takes no backend, workers or shard-size
# arguments: it samples with those of the session active when it runs:
#
#     with repro.session(backend="naive", workers=4):
#         selector = repro.make_selector("FT+M", n_samples=1000, seed=7)
#         result = selector.select(graph, query, budget)   # 4-way sharded, naive backend
#
# A session is the only place these knobs are set: outside every session
# the built-in defaults apply (csr backend, unsharded).


def main() -> None:
    # 1. an uncertain graph with a locality structure (the paper's "partitioned"
    #    scheme): 300 vertices, degree 6, edge probabilities uniform in (0, 1],
    #    vertex weights uniform in [0, 10]
    graph = repro.partitioned_graph(300, degree=6, seed=42)
    query = pick_query_vertex(graph)
    budget = 20
    print(f"graph: {graph.n_vertices} vertices / {graph.n_edges} edges, "
          f"query vertex {query}, budget k={budget}\n")

    # 2. run three algorithms on the same instance inside one session;
    #    every selection and evaluation below would take its backend,
    #    workers, ... from that session
    rows = []
    with repro.session():
        for name in ("Dijkstra", "Naive", "FT+M"):
            n_samples = 100 if name == "Naive" else 300
            selector = repro.make_selector(name, n_samples=n_samples, seed=7)
            result = selector.select(graph, query, budget)
            # evaluate every result with the same independent estimator
            flow = evaluate_flow(graph, result.selected_edges, query, n_samples=800, seed=1)
            rows.append(
                {
                    "algorithm": result.algorithm,
                    "edges used": result.n_selected,
                    "expected flow": flow,
                    "runtime [s]": result.elapsed_seconds,
                }
            )

    # 3. report
    print(format_table(rows, title="Expected information flow towards the query vertex"))
    print(
        "\nThe greedy selections reach a clearly higher expected flow than the Dijkstra\n"
        "spanning tree at the same edge budget.  Every greedy selector scores a round's\n"
        "candidates on one shared batch of possible worlds (common random numbers),\n"
        "so even the Naive whole-graph greedy is fast here."
    )

    # 4. two-terminal reachability at the paper's fixed budget of 1000
    #    worlds, with the Wilson interval of the estimate
    target = next(iter(graph.neighbors(query)))
    estimate = SamplingEngine().pair_reachability(graph, query, target, n_samples=1000, seed=7)
    interval = wilson_confidence_interval(estimate.successes, estimate.n_samples, alpha=0.05)
    print(
        f"\nPair reachability: P({query} <-> {target}) = {estimate.probability:.3f} "
        f"from {estimate.n_samples} worlds, 95% CI [{interval.lower:.3f}, {interval.upper:.3f}]."
    )

    # 5. telemetry: the same knob resolution enables the unified
    #    observability layer for one scope — spans trace where the time
    #    went, counters tell how much work each layer did.  Telemetry is
    #    off by default and costs nothing when off; switching it on never
    #    changes a result.
    from repro.telemetry import InMemoryExporter, Telemetry, format_span_tree

    memory = InMemoryExporter()
    tel = Telemetry(exporters=[memory])
    with repro.session(telemetry=tel) as s:
        s.expected_flow(graph, query, n_samples=800, seed=7)
    counters = tel.snapshot()["counters"]
    print(
        f"\nTelemetry: {counters.get('engine.worlds_sampled', 0)} worlds sampled in "
        f"{counters.get('engine.sample_calls', 0)} engine call(s); span tree:"
    )
    print(format_span_tree(memory.spans[-1]))

    # 6. profiling: a ProfilingTelemetry pipeline makes every span also
    #    record CPU time, allocation deltas and GC collections — the
    #    hot-span table ranks where the resources went, and the collapsed
    #    stacks feed flamegraph.pl / speedscope.  Like tracing, profiling
    #    never changes a sampled result.
    from repro.telemetry.profile import (
        ProfilingTelemetry,
        format_collapsed,
        format_hot_spans,
    )

    profile_memory = InMemoryExporter()
    profile_tel = ProfilingTelemetry(exporters=[profile_memory])
    with repro.session(telemetry=profile_tel) as s:
        s.expected_flow(graph, query, n_samples=800, seed=7)
    profile_tel.close()
    print("\nProfiling: hot spans by self time (CPU / alloc / gc per span):")
    print(format_hot_spans(profile_memory.spans, limit=5))
    folded = format_collapsed(profile_memory.spans).splitlines()
    print(f"collapsed stacks for a flamegraph ({len(folded)} lines), e.g.:")
    print(f"  {folded[0]}")


if __name__ == "__main__":
    main()
