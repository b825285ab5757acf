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
from repro.experiments.harness import pick_query_vertex
from repro.experiments.reporting import format_table

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
#   * crn         — common-random-numbers candidate scoring (default
#                   True): one shared batch of possible worlds per greedy
#                   selection round.  crn=False restores the paper's
#                   literal resample-per-candidate reference mode.
#   * workers     — sharded parallel sampling: a worker count (the
#                   session owns and closes the pool) or a shared
#                   ProcessExecutor instance.  Results are bit-for-bit
#                   identical for any worker count at a fixed
#                   (seed, n_samples, shard_size).
#   * n_samples   — default Monte-Carlo budget for the session's methods;
#                   "auto" switches to adaptive CI-driven stopping.
#   * seed        — default seed for the session's methods.
#   * world_cache — digest-keyed LRU world cache for the batched query
#                   service (an entry bound, 0 to disable, or a shared
#                   WorldCache instance).
#
# Sessions scope cleanly (contextvar-based): they nest, restore the
# enclosing configuration on exit, and are invisible to other threads.
# The mechanism-level API (make_selector, SamplingEngine, BatchEvaluator,
# EvaluationContext, ...) takes no backend, workers or shard-size
# arguments: it samples with those of the session active when it runs,
# so both styles compose:
#
#     with repro.session(backend="naive", workers=4):
#         selector = repro.make_selector("FT+M", n_samples=1000, seed=7)
#         result = selector.select(graph, query, budget)   # 4-way sharded, naive backend
#
# A session is the only place these knobs are set: outside every session
# the built-in defaults apply (csr backend, CRN scoring, unsharded).


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
    #    every selection and evaluation below inherits the session's seed
    #    policy and would inherit backend/workers/... the same way
    rows = []
    with repro.session(seed=7) as s:
        for name in ("Dijkstra", "Naive", "FT+M"):
            n_samples = 100 if name == "Naive" else 300
            result = s.select(graph, query, budget, algorithm=name, n_samples=n_samples)
            # evaluate every result with the same independent estimator
            flow = s.evaluate_flow(graph, result.selected_edges, query,
                                   n_samples=800, seed=1)
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
        "spanning tree at the same edge budget.  With the default CRN candidate scoring\n"
        "even the Naive whole-graph greedy is fast here; rerun inside\n"
        "repro.session(crn=False) to see the paper's literal per-candidate resampling cost."
    )

    # 4. adaptive sampling: a session whose default budget is "auto" stops
    #    as soon as the estimate is tight enough instead of always paying
    #    a fixed cost
    target = next(iter(graph.neighbors(query)))
    settings = repro.AdaptiveSettings(target_width=0.05, alpha=0.05, max_samples=4000)
    with repro.session(n_samples="auto", adaptive=settings, seed=7) as s:
        estimate = s.pair_reachability(graph, query, target)
    print(
        f"\nAdaptive sampling: P({query} <-> {target}) = {estimate.probability:.3f} "
        f"pinned to a {settings.target_width}-wide CI after {estimate.n_samples} of "
        f"{settings.max_samples} allowed worlds."
    )

    # 5. telemetry: the same knob resolution enables the unified
    #    observability layer for one scope — spans trace where the time
    #    went, counters tell how much work each layer did.  Telemetry is
    #    off by default and costs nothing when off; switching it on never
    #    changes a result.
    from repro.telemetry import InMemoryExporter, Telemetry, format_span_tree

    memory = InMemoryExporter()
    tel = Telemetry(exporters=[memory])
    with repro.session(telemetry=tel, seed=7) as s:
        s.expected_flow(graph, query, n_samples=800)
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
    with repro.session(telemetry=profile_tel, seed=7) as s:
        s.expected_flow(graph, query, n_samples=800)
    profile_tel.close()
    print("\nProfiling: hot spans by self time (CPU / alloc / gc per span):")
    print(format_hot_spans(profile_memory.spans, limit=5))
    folded = format_collapsed(profile_memory.spans).splitlines()
    print(f"collapsed stacks for a flamegraph ({len(folded)} lines), e.g.:")
    print(f"  {folded[0]}")


if __name__ == "__main__":
    main()
