#!/usr/bin/env python3
"""Regenerate every checked-in ``BENCH_*.json`` baseline in one pass.

Each baseline is the ``--quick --json`` report of one benchmark script;
:mod:`check_regression` diffs fresh CI runs against these files.  After
a deliberate performance change (or a report-format change that breaks
the diff with exit code 2), rerun this script and commit the refreshed
JSON alongside the code change::

    python benchmarks/refresh_baselines.py            # all baselines
    python benchmarks/refresh_baselines.py --only parallel server

Baselines are recorded with ``--quick`` so a refresh stays cheap and the
rows match what CI measures.  Only the dimensionless ratio fields are
ever compared (see check_regression.py), so the machine recording the
baseline does not need to resemble the CI runner.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: baseline name -> benchmark script that produces it
BASELINES = {
    "backends": "bench_backends.py",
    "queries": "bench_queries.py",
    "parallel": "bench_parallel.py",
    "server": "bench_server.py",
}


def refresh(name: str) -> bool:
    script = BENCH_DIR / BASELINES[name]
    target = BENCH_DIR / f"BENCH_{name}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(BENCH_DIR), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    print(f"=== {script.name} --quick --json {target.name}")
    completed = subprocess.run(
        [sys.executable, str(script), "--quick", "--json", str(target)],
        cwd=REPO_ROOT,
        env=env,
    )
    if completed.returncode != 0:
        print(f"ERROR: {script.name} exited {completed.returncode}; {target.name} not trusted")
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        nargs="+",
        choices=sorted(BASELINES),
        default=None,
        metavar="NAME",
        help=f"refresh only these baselines (choices: {', '.join(sorted(BASELINES))})",
    )
    args = parser.parse_args(argv)
    names = args.only if args.only else list(BASELINES)
    failures = [name for name in names if not refresh(name)]
    if failures:
        print(f"\n{len(failures)} baseline(s) failed to refresh: {', '.join(failures)}")
        return 1
    print(f"\nrefreshed {len(names)} baseline(s): {', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
