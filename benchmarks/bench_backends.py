#!/usr/bin/env python3
"""Micro-benchmark: naive vs CSR possible-world sampling.

Times :meth:`repro.reachability.engine.SamplingEngine.expected_flow`
with every registered backend on the Fig. 5 graph-size sweep (Erdős
graphs, degree 6 — the paper's no-locality scheme) and reports the
speedup of each backend over the naive per-world-BFS reference.

A plain script, so CI can smoke-run it::

    PYTHONPATH=src python benchmarks/bench_backends.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_backends.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_backends.py --json out.json

All backends draw the identical possible worlds per seed, so the
printed flow estimates double as a cross-backend consistency check: a
mismatch means a backend broke the random-stream contract, and the run
aborts.

Acceptance gates (full sweep only, on the 1000-sample rows):

* ``csr`` must be >= 5x over ``naive`` at |E| >= 500 and >= 6x at
  |E| >= 900;
* ``csr-numba`` must be >= 3.2x over the csr numpy path when numba is
  importable — otherwise the report carries an explicit SKIPPED record
  with the probe's reason instead of silently omitting the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.graph.generators import erdos_renyi_graph
from repro.reachability.backends import BACKEND_NAMES
from repro.reachability.backends.csr import CSRSamplingBackend, numba_unavailable_reason
from repro.reachability.engine import SamplingEngine
from repro.runtime import current_config

#: Fig. 5 graph-size sweep (scaled down, degree 6 ⇒ |E| ≈ 3·|V|).
FULL_SIZES = (150, 300, 600)
QUICK_SIZES = (60,)

FULL_SAMPLES = 1000
QUICK_SAMPLES = 100

#: csr-vs-naive gate on the 1000-sample rows: ``(edge floor, target)``
#: tiers, the highest floor a row reaches setting its target.
CSR_TARGETS = ((500, 5.0), (900, 6.0))
#: csr-numba-vs-csr-numpy gate (compiled kernel, when numba imports).
NUMBA_TARGET_RATIO = 3.2

#: Repeats per timing (best-of); the naive reference is slow enough that
#: one run is already stable, the fast backends need a few to shake off
#: allocator noise on small instances.
REPEATS = {"naive": 1}
DEFAULT_REPEATS = 3


def bench_environment() -> Dict[str, object]:
    """Machine context recorded with the report.

    Speedups are only comparable across machines when the report says
    how many cores the run had; ``runtime_config`` is the resolved
    :class:`repro.runtime.RuntimeConfig` the numbers were measured under.
    """
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "runtime_config": current_config().as_dict(),
    }


def time_backend(graph, query, backend, n_samples: int, seed: int = 7):
    """Return (best-of-N elapsed seconds, flow estimate) for one backend."""
    best = float("inf")
    flow = None
    for _ in range(REPEATS.get(backend, DEFAULT_REPEATS)):
        started = time.perf_counter()
        estimate = SamplingEngine(backend).expected_flow(
            graph, query, n_samples=n_samples, seed=seed
        )
        best = min(best, time.perf_counter() - started)
        flow = estimate.expected_flow
    return best, flow


def run(sizes, n_samples: int) -> List[dict]:
    """Benchmark every backend on every graph size; return report rows."""
    rows: List[dict] = []
    for size in sizes:
        graph = erdos_renyi_graph(size, average_degree=6.0, seed=size)
        query = 0
        row = {"n_vertices": graph.n_vertices, "n_edges": graph.n_edges, "n_samples": n_samples}
        flows = {}
        for backend in BACKEND_NAMES:
            elapsed, flow = time_backend(graph, query, backend, n_samples)
            row[f"{backend}_seconds"] = elapsed
            flows[backend] = flow
        baseline = row["naive_seconds"]
        for backend in BACKEND_NAMES:
            if backend != "naive":
                row[f"{backend}_speedup"] = baseline / row[f"{backend}_seconds"]
        if "csr-numba" in BACKEND_NAMES:
            # with numba importable the "csr" name runs the kernel too, so
            # the compiled-kernel gate times the numpy path explicitly
            numpy_seconds, flow = time_backend(
                graph, query, CSRSamplingBackend(use_numba=False), n_samples
            )
            flows["csr-numpy"] = flow
            row["csr-numpy_seconds"] = numpy_seconds
            row["csr_numba_vs_csr"] = numpy_seconds / row["csr-numba_seconds"]
        if len(set(flows.values())) != 1:
            raise SystemExit(f"backends disagree on the same seed: {flows!r}")
        row["expected_flow"] = flows["naive"]
        rows.append(row)
    return rows


def measure_telemetry_overhead(sizes, n_samples: int) -> dict:
    """Time the csr backend with telemetry off (the default) and on.

    With telemetry off every hot call site calls the no-op methods of
    ``NULL_TELEMETRY`` — that must cost nothing measurable (the repo's acceptance
    bar keeps the default-path timings within noise of the pre-telemetry
    baseline).  The enabled number shows what a metrics-only pipeline
    costs when actually switched on.
    """
    import repro

    size = max(sizes)
    graph = erdos_renyi_graph(size, average_degree=6.0, seed=size)
    disabled_seconds, _ = time_backend(graph, 0, "csr", n_samples)
    with repro.session(telemetry=True):
        enabled_seconds, _ = time_backend(graph, 0, "csr", n_samples)
    return {
        "backend": "csr",
        "n_vertices": graph.n_vertices,
        "n_samples": n_samples,
        "disabled_seconds": disabled_seconds,
        "enabled_seconds": enabled_seconds,
        "overhead_ratio": enabled_seconds / disabled_seconds,
    }


def csr_target(n_edges: int) -> Optional[float]:
    """The csr-vs-naive target for an instance size (``None`` = ungated)."""
    targets = [target for floor, target in CSR_TARGETS if n_edges >= floor]
    return targets[-1] if targets else None


def check_gates(rows: List[dict]) -> List[dict]:
    """Evaluate the acceptance gates; return PASS/FAIL/SKIPPED records."""
    gates: List[dict] = []

    csr_rows = [r for r in rows if csr_target(r["n_edges"]) and r["n_samples"] >= 1000]
    if csr_rows:
        worst = min(csr_rows, key=lambda r: r["csr_speedup"] / csr_target(r["n_edges"]))
        target = csr_target(worst["n_edges"])
        gates.append(
            {
                "gate": "csr_vs_naive",
                "target": target,
                "n_edges": worst["n_edges"],
                "worst": worst["csr_speedup"],
                "status": "PASS" if worst["csr_speedup"] >= target else "FAIL",
            }
        )

    numba_reason = numba_unavailable_reason()
    if numba_reason is not None:
        gates.append(
            {
                "gate": "csr_numba_vs_csr",
                "target": NUMBA_TARGET_RATIO,
                "status": "SKIPPED",
                "reason": numba_reason,
            }
        )
    else:
        numba_rows = [
            r
            for r in rows
            if r["n_edges"] >= 500 and r["n_samples"] >= 1000 and "csr_numba_vs_csr" in r
        ]
        if numba_rows:
            worst = min(r["csr_numba_vs_csr"] for r in numba_rows)
            gates.append(
                {
                    "gate": "csr_numba_vs_csr",
                    "target": NUMBA_TARGET_RATIO,
                    "worst": worst,
                    "status": "PASS" if worst >= NUMBA_TARGET_RATIO else "FAIL",
                }
            )
    return gates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="tiny instance + 100 samples (CI smoke test)"
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write rows + gates + environment as JSON",
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    n_samples = QUICK_SAMPLES if args.quick else FULL_SAMPLES

    rows = run(sizes, n_samples)
    header = f"{'|V|':>6} {'|E|':>6} {'samples':>8} " + " ".join(
        f"{name + ' [s]':>14}" for name in BACKEND_NAMES
    ) + f" {'csr x':>8} {'flow':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['n_vertices']:>6} {row['n_edges']:>6} {row['n_samples']:>8} "
            + " ".join(f"{row[f'{name}_seconds']:>14.4f}" for name in BACKEND_NAMES)
            + f" {row['csr_speedup']:>7.1f}x"
            + f" {row['expected_flow']:>10.3f}"
        )

    overhead = measure_telemetry_overhead(sizes, n_samples)
    print(
        f"\ntelemetry (csr, |V|={overhead['n_vertices']}, {n_samples} samples): "
        f"disabled {overhead['disabled_seconds']:.4f}s, "
        f"enabled {overhead['enabled_seconds']:.4f}s "
        f"({overhead['overhead_ratio'] - 1.0:+.1%} when switched on)"
    )

    gates = check_gates(rows) if not args.quick else []
    for gate in gates:
        if gate["status"] == "SKIPPED":
            print(f"\ngate {gate['gate']} (>= {gate['target']:.1f}x): SKIPPED — {gate['reason']}")
        else:
            print(
                f"\ngate {gate['gate']} (>= {gate['target']:.1f}x): "
                f"{gate['status']} (worst {gate['worst']:.2f}x)"
            )

    if args.json is not None:
        payload: Dict[str, object] = {
            "benchmark": "bench_backends",
            "mode": "quick" if args.quick else "full",
            "backends": list(BACKEND_NAMES),
            "numba_unavailable_reason": numba_unavailable_reason(),
            "environment": bench_environment(),
            "rows": rows,
            "telemetry_overhead": overhead,
            "gates": gates,
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {args.json}")

    return 1 if any(g["status"] == "FAIL" for g in gates) else 0


if __name__ == "__main__":
    sys.exit(main())
