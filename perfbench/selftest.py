#!/usr/bin/env python3
"""Benchmark self-test: count-type layer metrics must repeat exactly.

Runs the traced run of each workload twice at the default seed recorded
in ``perfbench/meta.json`` and compares every per-layer metric whose unit
is ``count`` (probes, memo hits, exact and sampled components, worlds
enumerated, cache hits and misses, shards ...).  Counts that repeat
exactly can back a claim on their own; this is what checks that they do.

    python3 perfbench/selftest.py                 # every workload
    python3 perfbench/selftest.py ft-wsn          # one workload

Exits 1 when a count differs between the two runs or a run is incorrect.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced(workload: str, seed: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv) -> int:
    with open(os.path.join(HERE, "meta.json"), encoding="utf-8") as handle:
        meta = json.load(handle)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    seed = meta["default_seed"]
    names = argv or list(meta["workloads"])
    ok = True
    for name in names:
        first, second = traced(name, seed), traced(name, seed)
        reported = {k: m["unit"] for k, m in first["metrics"].items()}
        if reported != declared:
            ok = False
            print(f"{name}: per-layer names or units differ from BENCHMARK.json")
        counts = sorted(k for k, m in first["metrics"].items() if m["unit"] == "count")
        differing = [k for k in counts
                     if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        correct = first["correct"] and second["correct"]
        ok &= correct and not differing
        print(f"{name}: {len(counts)} counts, "
              f"{'all repeat' if not differing else 'differ: ' + ', '.join(differing)}"
              f"{'' if correct else ', INCORRECT output'}")
        for key in counts:
            print(f"  {key:<28} {first['metrics'][key]['value']:>14g} "
                  f"{second['metrics'][key]['value']:>14g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
