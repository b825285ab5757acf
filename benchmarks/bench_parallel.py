#!/usr/bin/env python3
"""Micro-benchmark: parallel sharded sampling and adaptive CI stopping.

Two measurements on the Fig. 5 graph-size sweep (Erdős graphs, degree 6
— the paper's no-locality scheme):

1. **Sharded fan-out** — times whole-graph Monte-Carlo flow estimation
   (:meth:`repro.reachability.engine.SamplingEngine.expected_flow`) on
   the *naive* backend under the serial reference executor and under
   process pools of 2 and 4 workers, all at the same
   ``(seed, n_samples, shard_size)``.  The flows must be bit-for-bit
   identical across worker counts (the :mod:`repro.parallel` determinism
   contract); the run aborts if they are not.  The acceptance case is
   the |E| ≈ 1800 instance (|V| = 600) at 5000 samples: 4 workers must
   be ≥ 2.5x faster than 1 worker — enforced only when the machine
   actually has ≥ 4 CPUs, and recorded as skipped otherwise (the BENCH
   JSON carries ``cpu_count`` so trajectories stay comparable).

2. **Adaptive stopping** — estimates a two-terminal reachability with
   ``n_samples="auto"`` (Wilson interval, target width 0.02, capped at
   the fixed budget) and reports how much of the fixed 5000-sample
   budget the adaptive stopper actually spent.  Acceptance: at least one
   Fig. 5 size reaches the target width with ≤ 60% of the fixed budget.

Like the other plain-script benchmarks this is CI-smokeable::

    PYTHONPATH=src python benchmarks/bench_parallel.py                # full sweep
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick        # CI smoke
    PYTHONPATH=src python benchmarks/bench_parallel.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

import repro
from _helpers import bench_environment
from repro.graph.generators import erdos_renyi_graph
from repro.parallel import AdaptiveSettings, ProcessExecutor, SerialExecutor
from repro.reachability.confidence import proportion_interval_function
from repro.reachability.engine import SamplingEngine

#: Fig. 5 graph-size sweep (scaled down, degree 6 ⇒ |E| ≈ 3·|V|).
FULL_SIZES = (150, 300, 600)
QUICK_SIZES = (60,)

FULL_SAMPLES = 5000
QUICK_SAMPLES = 400

#: Worlds per shard (fixed: shard size is part of the determinism key).
SHARD_SIZE = 256

#: Process-pool worker counts measured against the serial reference.
WORKER_COUNTS = (2, 4)

#: Acceptance thresholds (see ISSUE 3).
TARGET_SPEEDUP = 2.5
ADAPTIVE_TARGET_WIDTH = 0.02
ADAPTIVE_BUDGET_FRACTION = 0.6

SEED = 7
BACKEND = "naive"


def _pick_adaptive_target(graph, source):
    """The neighbour of ``source`` joined by the most reliable edge.

    A high-reachability pair is exactly where adaptive stopping should
    beat a fixed budget: the Wilson interval around a fraction near 1
    tightens far faster than the worst-case (p = 0.5) sizing a fixed
    budget has to assume.
    """
    best, best_probability = None, -1.0
    for neighbor in graph.neighbors(source):
        probability = graph.probability(source, neighbor)
        if probability > best_probability:
            best, best_probability = neighbor, probability
    return best


def bench_sharded(sizes, n_samples: int) -> List[dict]:
    """Time serial versus process-pool sharded sampling; verify invariance."""
    rows: List[dict] = []
    for size in sizes:
        graph = erdos_renyi_graph(size, average_degree=6.0, seed=size)
        query = 0
        row = {
            "n_vertices": graph.n_vertices,
            "n_edges": graph.n_edges,
            "n_samples": n_samples,
            "shard_size": SHARD_SIZE,
            "backend": BACKEND,
        }
        flows = {}

        engine = SamplingEngine(BACKEND)
        started = time.perf_counter()
        with repro.session(workers=SerialExecutor(), shard_size=SHARD_SIZE):
            estimate = engine.expected_flow(graph, query, n_samples=n_samples, seed=SEED)
        row["serial_seconds"] = time.perf_counter() - started
        flows["serial"] = estimate.expected_flow

        for workers in WORKER_COUNTS:
            with ProcessExecutor(workers) as pool, repro.session(
                workers=pool, shard_size=SHARD_SIZE
            ):
                # warm the pool on a tiny request so process start-up is
                # not billed to the measured run
                engine.expected_flow(graph, query, n_samples=SHARD_SIZE, seed=SEED)
                started = time.perf_counter()
                estimate = engine.expected_flow(graph, query, n_samples=n_samples, seed=SEED)
                row[f"workers{workers}_seconds"] = time.perf_counter() - started
                flows[f"workers{workers}"] = estimate.expected_flow
            row[f"workers{workers}_speedup"] = (
                row["serial_seconds"] / row[f"workers{workers}_seconds"]
            )

        if len(set(flows.values())) != 1:
            raise SystemExit(
                f"worker counts disagree on the same (seed, n_samples, shard_size): {flows!r}"
            )
        row["expected_flow"] = flows["serial"]
        rows.append(row)
    return rows


def bench_adaptive(sizes, fixed_budget: int) -> List[dict]:
    """Adaptive CI-driven stopping versus the paper's fixed sample budget."""
    settings = AdaptiveSettings(
        target_width=ADAPTIVE_TARGET_WIDTH,
        alpha=0.05,
        method="wilson",
        max_samples=fixed_budget,
        min_samples=min(100, fixed_budget),
    )
    rows: List[dict] = []
    for size in sizes:
        graph = erdos_renyi_graph(size, average_degree=6.0, seed=size)
        source = 0
        target = _pick_adaptive_target(graph, source)
        if target is None:
            print(f"  |V|={graph.n_vertices}: source {source} is isolated, skipping")
            continue
        estimate = SamplingEngine().pair_reachability(
            graph, source, target, n_samples="auto", seed=SEED, adaptive=settings
        )
        width = proportion_interval_function(settings.method)(
            estimate.successes, estimate.n_samples, alpha=settings.alpha
        ).width
        rows.append(
            {
                "n_vertices": graph.n_vertices,
                "n_edges": graph.n_edges,
                "target": target,
                "probability": estimate.probability,
                "fixed_budget": fixed_budget,
                "samples_used": estimate.n_samples,
                "budget_fraction": estimate.n_samples / fixed_budget,
                "ci_width": width,
                "target_width": settings.target_width,
                "converged": width <= settings.target_width,
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="tiny instance + 400 samples (CI smoke test)"
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write the benchmark rows to this JSON file"
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    n_samples = QUICK_SAMPLES if args.quick else FULL_SAMPLES

    sharded = bench_sharded(sizes, n_samples)
    header = (
        f"{'|V|':>6} {'|E|':>6} {'samples':>8} {'serial [s]':>11} "
        + " ".join(f"{f'{w}w [s]':>9} {f'{w}w spd':>8}" for w in WORKER_COUNTS)
        + f" {'flow':>10}"
    )
    print(header)
    print("-" * len(header))
    for row in sharded:
        print(
            f"{row['n_vertices']:>6} {row['n_edges']:>6} {row['n_samples']:>8} "
            f"{row['serial_seconds']:>11.3f} "
            + " ".join(
                f"{row[f'workers{w}_seconds']:>9.3f} {row[f'workers{w}_speedup']:>7.2f}x"
                for w in WORKER_COUNTS
            )
            + f" {row['expected_flow']:>10.3f}"
        )

    adaptive = bench_adaptive(sizes, n_samples)
    print(
        f"\nadaptive (wilson, width <= {ADAPTIVE_TARGET_WIDTH}, "
        f"cap {n_samples}):"
    )
    for row in adaptive:
        print(
            f"  |V|={row['n_vertices']:>4}  p^={row['probability']:.4f}  "
            f"used {row['samples_used']:>5}/{row['fixed_budget']} "
            f"({row['budget_fraction']:.0%})  width={row['ci_width']:.4f}  "
            f"{'converged' if row['converged'] else 'hit cap'}"
        )

    report = {
        "bench": "parallel_sharded_sampling",
        "sizes": list(sizes),
        "n_samples": n_samples,
        "backend": BACKEND,
        "worker_counts": list(WORKER_COUNTS),
        "target_speedup": TARGET_SPEEDUP,
        "adaptive_target_width": ADAPTIVE_TARGET_WIDTH,
        "adaptive_budget_fraction": ADAPTIVE_BUDGET_FRACTION,
        "environment": bench_environment(workers=max(WORKER_COUNTS), shard_size=SHARD_SIZE),
        "sharded_rows": sharded,
        "adaptive_rows": adaptive,
    }

    exit_code = 0
    if not args.quick:
        acceptance = {}
        cpu_count = os.cpu_count() or 1
        speedup_cases = [r for r in sharded if r["n_edges"] >= 1500 and r["n_samples"] >= 5000]
        worst: Optional[float] = (
            min(r["workers4_speedup"] for r in speedup_cases) if speedup_cases else None
        )
        if worst is None:
            acceptance["speedup"] = {"status": "SKIPPED (no qualifying instance)"}
        elif cpu_count < 4:
            acceptance["speedup"] = {
                "worst_4worker_speedup": worst,
                "status": f"SKIPPED (cpu_count={cpu_count} < 4)",
            }
            print(
                f"\nacceptance (4 workers >= {TARGET_SPEEDUP}x at |E| >= 1500, 5000 samples): "
                f"SKIPPED — only {cpu_count} CPU(s) available (measured {worst:.2f}x)"
            )
        else:
            status = "PASS" if worst >= TARGET_SPEEDUP else "FAIL"
            acceptance["speedup"] = {"worst_4worker_speedup": worst, "status": status}
            print(
                f"\nacceptance (4 workers >= {TARGET_SPEEDUP}x at |E| >= 1500, 5000 samples): "
                f"{status} (worst {worst:.2f}x)"
            )
            if status == "FAIL":
                exit_code = 1

        good = [
            r
            for r in adaptive
            if r["converged"] and r["budget_fraction"] <= ADAPTIVE_BUDGET_FRACTION
        ]
        status = "PASS" if good else "FAIL"
        acceptance["adaptive"] = {
            "status": status,
            "best_budget_fraction": min((r["budget_fraction"] for r in adaptive), default=None),
        }
        print(
            f"acceptance (width {ADAPTIVE_TARGET_WIDTH} using <= "
            f"{ADAPTIVE_BUDGET_FRACTION:.0%} of the budget on >= 1 size): {status}"
        )
        if not good:
            exit_code = 1
        report["acceptance"] = acceptance

    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"\nBENCH JSON written to {args.json}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
