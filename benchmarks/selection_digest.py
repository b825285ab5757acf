#!/usr/bin/env python3
"""Cross-commit selection check: two SHA-1s per (workload, seed) over a pool of selections.

Runs every input of the ``ftm-probe`` and ``ft-wsn`` benchmark pools
once, with the workload's own graphs, query vertices, selectors and
selector seeds (``perfbench/workloads.py``, imported unchanged), and
hashes each selection in pool order twice: ``edges_sha1`` over the
selected edges only, ``sha1`` over the edges and
``float.hex(expected_flow)``.  Two commits that pick the same edges
print the same ``edges_sha1``; two whose selections agree bit for bit
also print the same ``sha1``.  Seeds 1 and 9001 cover 1,664 selections.

Run from the repository root::

    python benchmarks/selection_digest.py                  # print the digests as JSON
    python benchmarks/selection_digest.py --check benchmarks/SELECTION_DIGEST.json

``--check`` exits 1 when either hash of any key differs from the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOAD_NAMES = ("ftm-probe", "ft-wsn")
SEEDS = (1, 9001)


def digest(workload) -> Dict[str, object]:
    """Run the workload's pool once; return the selection count and its two SHA-1s."""
    graphs, queries, selectors = workload.setup()
    sha, edges_sha = hashlib.sha1(), hashlib.sha1()
    for slot, (graph_index, _) in enumerate(workload.inputs):
        result = selectors[slot].select(graphs[graph_index], queries[slot], workload.budget)
        edges = ";".join(f"{edge.u!r},{edge.v!r}" for edge in result.selected_edges)
        sha.update(f"{edges}|{float.hex(result.expected_flow)}\n".encode())
        edges_sha.update(f"{edges}\n".encode())
    return {
        "edges_sha1": edges_sha.hexdigest(),
        "selections": workload.pool,
        "sha1": sha.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="JSON", help="compare against a recorded digest file")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    digests = {
        f"{name}/{seed}": digest(workloads.WORKLOADS[name](seed))
        for name in WORKLOAD_NAMES
        for seed in SEEDS
    }
    print(json.dumps(digests, indent=2, sort_keys=True))
    if args.check is None:
        return 0
    with open(args.check, encoding="utf-8") as handle:
        expected = json.load(handle)
    differing = sorted(key for key in expected.keys() | digests.keys()
                       if expected.get(key) != digests.get(key))
    for key in differing:
        print(f"differs: {key}: expected {expected.get(key)}, got {digests.get(key)}",
              file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
