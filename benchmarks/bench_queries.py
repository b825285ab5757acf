#!/usr/bin/env python3
"""Micro-benchmark: batched multi-query evaluation versus per-query calls.

Measures the amortization the :mod:`repro.service` subsystem exists for,
on the Fig. 5 graph-size sweep (Erdős graphs, degree 6 — the paper's
no-locality scheme).  The workload is 64 mixed queries per graph — for
each of four query vertices, one expected-flow query and fifteen pair
reachabilities towards distinct targets, all at the same (seed,
n_samples) — answered three ways:

1. **per-query** — one ``SamplingEngine`` estimator call per query, the
   pre-service baseline: 64 independent sampling runs;
2. **batched (cold)** — one ``BatchEvaluator.evaluate`` call with an
   empty world cache: the planner groups the 64 queries onto 4 shared
   world batches (one per query vertex), so sampling runs 4 times and
   everything else is column gathers;
3. **batched + cached (warm)** — the same call again with the cache
   populated: zero sampling, answers served entirely from cached worlds.

The three result sets must be **bit-for-bit identical** (the service
determinism contract); the run aborts if they are not.

Acceptance (ISSUE 4): batched+cached must be >= 5x faster than the
per-query baseline at 64 queries on every Fig. 5 size (PASS/FAIL on
capable hardware, recorded as SKIPPED with the reason otherwise — this
benchmark has no multi-core requirement, so it is expected to run
everywhere).

CI-smokeable like the other plain-script benchmarks::

    PYTHONPATH=src python benchmarks/bench_queries.py                # full sweep
    PYTHONPATH=src python benchmarks/bench_queries.py --quick        # CI smoke
    PYTHONPATH=src python benchmarks/bench_queries.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Tuple

from _helpers import bench_environment
from repro.graph.generators import erdos_renyi_graph
from repro.reachability.engine import SamplingEngine
from repro.service import BatchEvaluator, QueryRequest, WorldCache

#: Fig. 5 graph-size sweep (scaled down, degree 6 => |E| ~ 3*|V|).
FULL_SIZES = (150, 300, 600)
QUICK_SIZES = (60,)

FULL_SAMPLES = 1000
QUICK_SAMPLES = 150

#: The amortization workload: |SOURCES| query vertices, each asked one
#: expected-flow query plus (QUERIES_PER_SOURCE - 1) pair queries.
N_QUERIES = 64
N_SOURCES = 4
QUERIES_PER_SOURCE = N_QUERIES // N_SOURCES

TARGET_SPEEDUP = 5.0
SEED = 7


def build_workload(graph, n_samples: int) -> List[QueryRequest]:
    """64 mixed queries over four sources (deterministic, graph-agnostic)."""
    vertices = list(graph.vertices())
    sources = vertices[:N_SOURCES]
    requests: List[QueryRequest] = []
    for source_index, source in enumerate(sources):
        requests.append(
            QueryRequest(
                kind="expected_flow", source=source, n_samples=n_samples, seed=SEED
            )
        )
        targets = [
            vertex
            for vertex in vertices
            if vertex != source
        ][source_index : source_index + QUERIES_PER_SOURCE - 1]
        for target in targets:
            requests.append(
                QueryRequest(
                    kind="pair_reachability",
                    source=source,
                    target=target,
                    n_samples=n_samples,
                    seed=SEED,
                )
            )
    assert len(requests) == N_QUERIES
    return requests


def run_per_query(graph, requests) -> Tuple[float, list]:
    """The baseline: one estimator call per request."""
    engine = SamplingEngine()
    started = time.perf_counter()
    answers = []
    for request in requests:
        if request.kind == "expected_flow":
            answers.append(
                engine.expected_flow(
                    graph,
                    request.source,
                    n_samples=request.n_samples,
                    seed=request.seed,
                )
            )
        else:
            answers.append(
                engine.pair_reachability(
                    graph,
                    request.source,
                    request.target,
                    n_samples=request.n_samples,
                    seed=request.seed,
                )
            )
    return time.perf_counter() - started, answers

def check_equal(requests, answers, results, label: str) -> None:
    """Abort unless batched results equal the per-query answers bit-for-bit."""
    for request, answer, result in zip(requests, answers, results):
        batched = result.flow if request.kind == "expected_flow" else result.reachability
        if batched != answer:
            raise SystemExit(
                f"{label}: batched answer diverged from the single-query "
                f"estimator for {request!r}: {batched!r} != {answer!r}"
            )


def bench_sizes(sizes, n_samples: int) -> List[dict]:
    rows: List[dict] = []
    for size in sizes:
        graph = erdos_renyi_graph(size, average_degree=6.0, seed=size)
        requests = build_workload(graph, n_samples)

        per_query_seconds, answers = run_per_query(graph, requests)

        evaluator = BatchEvaluator(cache=WorldCache(max_entries=32))
        started = time.perf_counter()
        cold_results = evaluator.evaluate(graph, requests)
        cold_seconds = time.perf_counter() - started

        started = time.perf_counter()
        warm_results = evaluator.evaluate(graph, requests)
        warm_seconds = time.perf_counter() - started

        check_equal(requests, answers, cold_results, f"|V|={size} cold")
        check_equal(requests, answers, warm_results, f"|V|={size} warm")
        if not all(result.from_cache for result in warm_results):
            raise SystemExit(f"|V|={size}: warm pass was not fully served from cache")

        plan = evaluator.plan(graph, requests)
        rows.append(
            {
                "n_vertices": graph.n_vertices,
                "n_edges": graph.n_edges,
                "n_samples": n_samples,
                "n_queries": len(requests),
                "world_batches": len(plan.groups),
                "amortization": plan.amortization,
                "per_query_seconds": per_query_seconds,
                "batched_cold_seconds": cold_seconds,
                "batched_warm_seconds": warm_seconds,
                "cold_speedup": per_query_seconds / cold_seconds,
                "warm_speedup": per_query_seconds / warm_seconds,
                "cache": evaluator.cache_stats(),
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="tiny instance + 150 samples (CI smoke test)"
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write the benchmark rows to this JSON file"
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    n_samples = QUICK_SAMPLES if args.quick else FULL_SAMPLES

    rows = bench_sizes(sizes, n_samples)
    header = (
        f"{'|V|':>6} {'|E|':>6} {'queries':>8} {'batches':>8} "
        f"{'per-query [s]':>14} {'cold [s]':>9} {'warm [s]':>9} "
        f"{'cold spd':>9} {'warm spd':>9}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n_vertices']:>6} {row['n_edges']:>6} {row['n_queries']:>8} "
            f"{row['world_batches']:>8} {row['per_query_seconds']:>14.3f} "
            f"{row['batched_cold_seconds']:>9.3f} {row['batched_warm_seconds']:>9.3f} "
            f"{row['cold_speedup']:>8.1f}x {row['warm_speedup']:>8.1f}x"
        )

    report = {
        "bench": "batched_query_service",
        "sizes": list(sizes),
        "n_samples": n_samples,
        "n_queries": N_QUERIES,
        "n_sources": N_SOURCES,
        "target_speedup": TARGET_SPEEDUP,
        "environment": bench_environment(),
        "rows": rows,
    }

    exit_code = 0
    if not args.quick:
        worst = min(row["warm_speedup"] for row in rows)
        status = "PASS" if worst >= TARGET_SPEEDUP else "FAIL"
        report["acceptance"] = {
            "gate": f"batched+cached >= {TARGET_SPEEDUP}x per-query at {N_QUERIES} queries",
            "worst_warm_speedup": worst,
            "worst_cold_speedup": min(row["cold_speedup"] for row in rows),
            "status": status,
        }
        print(
            f"\nacceptance (batched+cached >= {TARGET_SPEEDUP}x per-query at "
            f"{N_QUERIES} queries, all Fig. 5 sizes): {status} (worst {worst:.1f}x)"
        )
        if status == "FAIL":
            exit_code = 1

    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"\nBENCH JSON written to {args.json}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
