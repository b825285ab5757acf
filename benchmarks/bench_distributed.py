#!/usr/bin/env python3
"""Micro-benchmark: the distributed executor over loopback worker fleets.

Times whole-graph Monte-Carlo flow estimation
(:meth:`repro.reachability.engine.SamplingEngine.expected_flow`) on
the *naive* backend under the serial reference executor and under
:class:`repro.distributed.RemoteExecutor` fronting local subprocess
fleets of 2 and 3 workers, all at the same
``(seed, n_samples, shard_size)``.

The numbers measure the wire-protocol overhead of the distributed tier
on a single machine — the point of the benchmark is not the speedup
(loopback fleets on a small container are mostly overhead) but the
**hard invariance gate**: the flows must be bit-for-bit identical across
every fleet size, and the run aborts with a non-zero exit if they are
not.  The ``remote{N}_speedup`` ratios feed the CI regression diff
(:mod:`check_regression`) so a wire-protocol slowdown shows up as a
ratio shift even on heterogeneous runners.

Like the other plain-script benchmarks this is CI-smokeable::

    PYTHONPATH=src python benchmarks/bench_distributed.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_distributed.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_distributed.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List

from _helpers import bench_environment
from repro.distributed import local_fleet
from repro.graph.generators import erdos_renyi_graph
from repro.parallel import SerialExecutor
from repro.reachability.engine import SamplingEngine

#: Fig. 5 graph-size sweep (scaled down, degree 6 ⇒ |E| ≈ 3·|V|).
FULL_SIZES = (150, 300, 600)
QUICK_SIZES = (60,)

FULL_SAMPLES = 5000
QUICK_SAMPLES = 400

#: Worlds per shard (fixed: shard size is part of the determinism key).
SHARD_SIZE = 256

#: Loopback fleet sizes measured against the serial reference.
FLEET_SIZES = (2, 3)

SEED = 7
BACKEND = "naive"


def bench_remote(sizes, n_samples: int) -> List[dict]:
    """Time serial versus remote-fleet sharded sampling; verify invariance."""
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

        started = time.perf_counter()
        serial = SamplingEngine(BACKEND, executor=SerialExecutor(), shard_size=SHARD_SIZE)
        estimate = serial.expected_flow(graph, query, n_samples=n_samples, seed=SEED)
        row["serial_seconds"] = time.perf_counter() - started
        flows["serial"] = estimate.expected_flow

        for n_workers in FLEET_SIZES:
            with local_fleet(n_workers) as fleet:
                remote = SamplingEngine(BACKEND, executor=fleet.executor, shard_size=SHARD_SIZE)
                # warm the fleet on a tiny request so worker start-up and
                # the one-time problem push are not billed to the run
                remote.expected_flow(graph, query, n_samples=SHARD_SIZE, seed=SEED)
                started = time.perf_counter()
                estimate = remote.expected_flow(graph, query, n_samples=n_samples, seed=SEED)
                row[f"remote{n_workers}_seconds"] = time.perf_counter() - started
                flows[f"remote{n_workers}"] = estimate.expected_flow
                row[f"remote{n_workers}_tasks"] = fleet.executor.tasks_dispatched
            row[f"remote{n_workers}_speedup"] = (
                row["serial_seconds"] / row[f"remote{n_workers}_seconds"]
            )

        if len(set(flows.values())) != 1:
            raise SystemExit(
                f"fleet sizes disagree on the same (seed, n_samples, shard_size): {flows!r}"
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

    rows = bench_remote(sizes, n_samples)
    header = (
        f"{'|V|':>6} {'|E|':>6} {'samples':>8} {'serial [s]':>11} "
        + " ".join(f"{f'{n}wkr [s]':>9} {f'{n}wkr spd':>8}" for n in FLEET_SIZES)
        + f" {'flow':>10}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n_vertices']:>6} {row['n_edges']:>6} {row['n_samples']:>8} "
            f"{row['serial_seconds']:>11.3f} "
            + " ".join(
                f"{row[f'remote{n}_seconds']:>9.3f} {row[f'remote{n}_speedup']:>7.2f}x"
                for n in FLEET_SIZES
            )
            + f" {row['expected_flow']:>10.3f}"
        )
    print(
        "\ninvariance gate: serial and every fleet size agree bit-for-bit "
        "(the run would have aborted otherwise)"
    )

    report = {
        "bench": "distributed_remote_executor",
        "sizes": list(sizes),
        "n_samples": n_samples,
        "backend": BACKEND,
        "fleet_sizes": list(FLEET_SIZES),
        "environment": bench_environment(workers=max(FLEET_SIZES), shard_size=SHARD_SIZE),
        "rows": rows,
    }
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"BENCH JSON written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
