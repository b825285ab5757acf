#!/usr/bin/env python3
"""Micro-benchmark: CRN evaluation contexts versus per-candidate resampling.

Times the Naive greedy and FT+Lazy greedy selectors in both sampling
modes — ``crn`` (one shared batch of possible worlds per selection
round, scored through :class:`repro.reachability.context.EvaluationContext`
/ the component sampler's keyed streams) and ``resample`` (a fresh world
batch per probed candidate, the paper's literal scheme) — on the Fig. 5
graph-size sweep (Erdős graphs, degree 6) at equal sample counts and
budgets, and reports the speedup of CRN over resampling.

Like ``bench_backends.py`` this is a plain script so CI can smoke-run
it, and it can emit its rows as a JSON artifact::

    PYTHONPATH=src python benchmarks/bench_selection.py                 # full sweep
    PYTHONPATH=src python benchmarks/bench_selection.py --quick         # CI smoke
    PYTHONPATH=src python benchmarks/bench_selection.py --json out.json

Both modes run the same greedy on the same graph, so the reported flows
double as a sanity check: CRN must reach a flow at least comparable to
resampling (it removes cross-candidate noise; it never trades quality
for speed).  The run fails if CRN selections differ across backends for
the same seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List

import repro
from _helpers import bench_environment
from repro.graph.generators import erdos_renyi_graph
from repro.reachability.backends import BACKEND_NAMES, DEFAULT_BACKEND
from repro.selection.greedy_naive import NaiveGreedySelector
from repro.selection.lazy_greedy import LazyGreedySelector

#: Fig. 5 graph-size sweep (scaled down, degree 6 ⇒ |E| ≈ 3·|V|).
FULL_SIZES = (150, 300, 600)
QUICK_SIZES = (60,)

FULL_SAMPLES = 1000
QUICK_SAMPLES = 100

FULL_BUDGET = 12
QUICK_BUDGET = 4

#: The acceptance case: >= 5x for Naive greedy at 1000 samples, >= 500 edges.
TARGET_SPEEDUP = 5.0

SEED = 7


def _make_selector(algorithm: str, n_samples: int, crn: bool):
    if algorithm == "Naive":
        return NaiveGreedySelector(n_samples=n_samples, seed=SEED, crn=crn)
    if algorithm == "FT+Lazy":
        return LazyGreedySelector(n_samples=n_samples, seed=SEED, crn=crn)
    raise ValueError(algorithm)


def _check_cross_backend(
    algorithm: str, graph, query, budget: int, n_samples: int, reference_edges
) -> None:
    """CRN selections must be identical across backends for the same seed.

    ``reference_edges`` is the already-timed run on the default backend,
    so only the non-default backends are re-run.
    """
    for backend in BACKEND_NAMES:
        if backend == DEFAULT_BACKEND:
            continue
        with repro.session(backend=backend):
            selector = _make_selector(algorithm, n_samples, crn=True)
            edges = selector.select(graph, query, budget).selected_edges
        if edges != reference_edges:
            raise SystemExit(
                f"{algorithm}: CRN selections disagree across backends on the same seed"
            )


def run(sizes, n_samples: int, budget: int) -> List[dict]:
    """Benchmark both algorithms in both modes on every graph size."""
    rows: List[dict] = []
    for size in sizes:
        graph = erdos_renyi_graph(size, average_degree=6.0, seed=size)
        query = 0
        for algorithm in ("Naive", "FT+Lazy"):
            row = {
                "algorithm": algorithm,
                "n_vertices": graph.n_vertices,
                "n_edges": graph.n_edges,
                "n_samples": n_samples,
                "budget": budget,
            }
            crn_edges = None
            for mode, crn in (("crn", True), ("resample", False)):
                selector = _make_selector(algorithm, n_samples, crn=crn)
                started = time.perf_counter()
                result = selector.select(graph, query, budget)
                row[f"{mode}_seconds"] = time.perf_counter() - started
                row[f"{mode}_flow"] = result.expected_flow
                row[f"{mode}_selected"] = result.n_selected
                if crn:
                    crn_edges = result.selected_edges
            row["speedup"] = row["resample_seconds"] / row["crn_seconds"]
            _check_cross_backend(algorithm, graph, query, budget, n_samples, crn_edges)
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="tiny instance + 100 samples (CI smoke test)"
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write the benchmark rows to this JSON file"
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    n_samples = QUICK_SAMPLES if args.quick else FULL_SAMPLES
    budget = QUICK_BUDGET if args.quick else FULL_BUDGET

    rows = run(sizes, n_samples, budget)
    header = (
        f"{'algorithm':>9} {'|V|':>6} {'|E|':>6} {'samples':>8} {'k':>4} "
        f"{'crn [s]':>10} {'resample [s]':>13} {'speedup':>9} {'crn flow':>10} {'res flow':>10}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['algorithm']:>9} {row['n_vertices']:>6} {row['n_edges']:>6} "
            f"{row['n_samples']:>8} {row['budget']:>4} {row['crn_seconds']:>10.4f} "
            f"{row['resample_seconds']:>13.4f} {row['speedup']:>8.1f}x "
            f"{row['crn_flow']:>10.3f} {row['resample_flow']:>10.3f}"
        )

    report = {
        "bench": "selection_crn_vs_resample",
        "sizes": list(sizes),
        "n_samples": n_samples,
        "budget": budget,
        "target_speedup": TARGET_SPEEDUP,
        "environment": bench_environment(),
        "rows": rows,
    }
    exit_code = 0
    if not args.quick:
        acceptance = [
            r for r in rows
            if r["algorithm"] == "Naive" and r["n_edges"] >= 500 and r["n_samples"] >= 1000
        ]
        worst = min(r["speedup"] for r in acceptance) if acceptance else None
        if worst is not None:
            status = "PASS" if worst >= TARGET_SPEEDUP else "FAIL"
            report["acceptance"] = {"worst_naive_speedup": worst, "status": status}
            print(
                f"\nacceptance (Naive >= {TARGET_SPEEDUP:.0f}x on 1000-sample, >= 500-edge "
                f"cases): {status} (worst {worst:.1f}x)"
            )
            exit_code = 0 if worst >= TARGET_SPEEDUP else 1
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"\nBENCH JSON written to {args.json}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
