#!/usr/bin/env python3
"""Micro-benchmark: parallel sharded sampling.

Times whole-graph Monte-Carlo flow estimation
(:meth:`repro.reachability.engine.SamplingEngine.expected_flow`) on the
Fig. 5 graph-size sweep (Erdős graphs, degree 6 — the paper's
no-locality scheme) and the *naive* backend, under the serial reference
executor and under process pools of 2 and 4 workers, all at the same
``(seed, n_samples, shard_size)``.  The flows must be bit-for-bit
identical across worker counts (the :mod:`repro.parallel` determinism
contract); the run aborts if they are not.  The acceptance case is the
|E| ≈ 1800 instance (|V| = 600) at 5000 samples: 4 workers must be
≥ 2.5x faster than 1 worker — enforced only when the machine actually
has ≥ 4 CPUs, and recorded as skipped otherwise (the BENCH JSON carries
``cpu_count`` so trajectories stay comparable).

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
from repro.parallel import ProcessExecutor, SerialExecutor
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

SEED = 7
BACKEND = "naive"


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

    report = {
        "bench": "parallel_sharded_sampling",
        "sizes": list(sizes),
        "n_samples": n_samples,
        "backend": BACKEND,
        "worker_counts": list(WORKER_COUNTS),
        "target_speedup": TARGET_SPEEDUP,
        "environment": bench_environment(workers=max(WORKER_COUNTS), shard_size=SHARD_SIZE),
        "sharded_rows": sharded,
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

        report["acceptance"] = acceptance

    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"\nBENCH JSON written to {args.json}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
