#!/usr/bin/env python3
"""The repository benchmark: the paper's selection runs, served queries and
sharded estimation, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload ftm-probe --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload's fixed trace list twice, untraced and
then traced (spans recorded around the library's public layer
functions, see ``tracing.py``), prints the layer table sorted by self
time, writes the spans to ``perfbench/out/`` and reports the per-layer
metrics.  Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads, metrics and the layer-to-metric map are described in
``perfbench/meta.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

UNITS = {
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ops_per_s": "1/s",
    "flow": "weight",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> (unit, span whose self time it is, or None)
LAYER_METRICS = {
    "selection.probes": ("count", None),
    "selection.round_s": ("s", None),
    "ftree.clone_s": ("s", "ftree.clone"),
    "ftree.insert_s": ("s", "ftree.insert"),
    "ftree.reach_self_s": ("s", "ftree.reach"),
    "sampler.memo_hits": ("count", None),
    "sampler.memo_hit_rate": ("ratio", None),
    "sampler.exact_s": ("s", "sampler.exact"),
    "sampler.exact_components": ("count", None),
    "sampler.worlds_enumerated": ("count", None),
    "sampler.sampled_s": ("s", "sampler.sampled"),
    "sampler.sampled_components": ("count", None),
    "sampler.sampled_edges": ("count", None),
    "layout.s": ("s", "layout.graph_layout"),
    "layout.hit_rate": ("ratio", None),
    "engine.sample_s": ("s", "engine.sample_worlds"),
    "engine.flips_s": ("s", "engine.flips"),
    "engine.propagate_s": ("s", "engine.propagate"),
    "engine.aggregate_s": ("s", "engine.aggregate"),
    "engine.worlds": ("count", None),
    "service.plan_s": ("s", "service.plan"),
    "service.evaluate_s": ("s", "service.evaluate"),
    "service.groups": ("count", None),
    "service.amortization": ("ratio", None),
    "cache.hits": ("count", None),
    "cache.misses": ("count", None),
    "cache.hit_rate": ("ratio", None),
    "cache.evictions": ("count", None),
    "cache.bytes": ("bytes", None),
    "server.overhead_ms": ("ms", None),
    "server.batch_mean": ("req/batch", None),
    "server.rejections": ("count", None),
    "executor.map_shards_s": ("s", "executor.map_shards"),
    "executor.shards": ("count", None),
    "executor.efficiency": ("ratio", None),
    "trace.overhead": ("ratio", None),
    "trace.unattributed_share": ("ratio", None),
}

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced_run(workload):
    """Time the fixed trace list untraced, then traced; return the layer values.

    Both passes start from a fresh set-up and an empty layout cache, so
    their counts are those of the fixed list alone.
    """
    import tracing
    from repro.reachability.layout import get_default_layout_cache
    from workloads import QueryServe, Rounds, SelectionWorkload, ShardedFlow

    layout_cache = get_default_layout_cache()
    tracer = tracing.Tracer()
    count = workload.trace_ops
    untraced, traced = Rounds(), Rounds()
    extras = {}

    if isinstance(workload, QueryServe):
        import asyncio

        async def main():
            state = await workload.setup_async()
            try:
                await workload.run(state, untraced, count)
            finally:
                await workload.teardown_async(state)
            layout_cache.clear()
            state = await workload.setup_async()
            try:
                with tracing.instrument(tracer):
                    start = time.perf_counter()
                    failed = await workload.run(state, traced, count)
                    end = time.perf_counter()
                graph, cache, server, _ = state
                stats = cache.stats()
                snapshot = server.metrics.snapshot()
            finally:
                await workload.teardown_async(state)
            evaluated = sum(seconds * n for seconds, n in tracer.evaluations)
            answered = sum(n for _, n in tracer.evaluations)
            extras.update({
                "cache.hits": stats["hits"],
                "cache.misses": stats["misses"],
                "cache.hit_rate": stats["hit_rate"],
                "cache.evictions": stats["evictions"],
                "cache.bytes": stats["cached_worlds"] * graph.n_vertices,
                "server.overhead_ms": 1000.0 * (
                    sum(traced.raw) / len(traced.raw) - ratio(evaluated, answered)
                ),
                "server.batch_mean": snapshot["coalescing"]["mean_batch_size"] or 0.0,
                "server.rejections": float(sum(snapshot["requests"]["rejected"].values())),
            })
            return failed, start, end

        failed, start, end = asyncio.run(main())
    elif isinstance(workload, ShardedFlow):
        serial = Rounds()
        for rounds, workers in ((untraced, workload.workers), (serial, 1)):
            state = workload.setup(workers)
            try:
                workload.run(state, rounds, count)
            finally:
                workload.teardown(state)
        layout_cache.clear()
        state = workload.setup()
        try:
            with tracing.instrument(tracer):
                start = time.perf_counter()
                failed = workload.run(state, traced, count)
                end = time.perf_counter()
        finally:
            workload.teardown(state)
        extras["executor.efficiency"] = serial.busy / (workload.workers * untraced.busy)
    else:
        assert isinstance(workload, SelectionWorkload)
        layout_cache.clear()
        workload.run(workload.setup(), untraced, count)
        layout_cache.clear()
        state = workload.setup()
        with tracing.instrument(tracer):
            start = time.perf_counter()
            results, failed = workload.run(state, traced, count)
            end = time.perf_counter()
        failed += sum(workload.check(state, slot, r) is None for slot, r in enumerate(results))
        extras.update(workload.layer_extras(results))

    layout_stats = layout_cache.stats()
    self_times = tracer.self_times()
    counts = tracer.counts
    values = {}
    for name, (unit, span) in LAYER_METRICS.items():
        if span is not None:
            values[name] = self_times.get(span, (0, 0.0))[1]
        else:
            values[name] = float(counts.get(name, 0))
    values["sampler.memo_hit_rate"] = ratio(counts["sampler.memo_hits"], counts["sampler.memo_lookups"])
    values["layout.hit_rate"] = layout_stats["hit_rate"]
    values["service.amortization"] = ratio(counts["service.planned_requests"], counts["service.groups"])
    values.update(extras)
    values["trace.overhead"] = traced.busy / untraced.busy - 1.0
    values["trace.unattributed_share"] = 1.0 - tracer.covered_seconds(start, end) / (end - start)
    return values, len(traced.latencies), failed, tracer, tracing.layer_table(tracer, start, end)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no library sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)

    if args.trace:
        values, attempted, failed, tracer, table = traced_run(workload)
        print(f"layer table: {args.workload}, seed {args.seed}, {attempted} operations")
        print(table)
        tracer.dump(
            os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.jsonl"),
            {"workload": args.workload, "seed": args.seed},
        )
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        result = workload.e2e(args.seconds)
        attempted, failed = result["attempted"], result["failed"]
        print(f"{args.workload}: seed {args.seed}, {attempted} operations, "
              f"measured p50 {result['measured_p50_ms']:.3f} ms, "
              f"host speed {result['host_speed']:.3f} of reference")
        values = dict(result["metrics"], peak_rss_mb=peak_rss_mb())
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
