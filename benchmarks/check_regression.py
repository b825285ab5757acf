#!/usr/bin/env python3
"""Compare a fresh benchmark ``--json`` report against a baseline.

CI runs the backend benchmark on every push and diffs the dimensionless
speedup ratios (``*_speedup``) against the checked-in
``BENCH_backends.json``.  Ratios rather than raw seconds are compared
because CI machines differ from the machine the baseline was recorded
on — a slower runner scales every backend equally, but a real
regression moves one side relative to the other.

A fresh ratio more than 25% below its baseline ratio fails the check.
Rows are matched on ``(n_vertices, n_samples)``; a fresh report with
*no* overlapping rows fails loudly rather than passing vacuously.
Ratio fields missing on either side (e.g. ``csr-numba_speedup`` when
numba is absent) are ignored, so the same baseline serves both the
plain and the numba CI legs::

    PYTHONPATH=src python benchmarks/bench_backends.py --quick --json fresh.json
    python benchmarks/check_regression.py benchmarks/BENCH_backends.json fresh.json

Exit codes separate the two failure families: **1** means a genuine
ratio regression; **2** means the comparison itself could not run — a
missing or unparseable JSON file, no overlapping rows, or no shared
ratio fields (stale baseline / wrong file pairing).  After a deliberate
performance or report-format change, re-record the baseline from the
quick rows CI measures and commit it with the change::

    PYTHONPATH=src python benchmarks/bench_backends.py --quick --json benchmarks/BENCH_backends.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: Allowed fractional drop of a ratio below its baseline.
TOLERANCE = 0.25

#: Only the dimensionless speedup fields participate in the diff.
RATIO_SUFFIX = "_speedup"

#: Re-records the checked-in baseline (see the module docstring).
REFRESH_COMMAND = (
    "PYTHONPATH=src python benchmarks/bench_backends.py --quick "
    "--json benchmarks/BENCH_backends.json"
)


def ratio_fields(row: dict) -> Dict[str, float]:
    return {
        key: float(value)
        for key, value in row.items()
        if key.endswith(RATIO_SUFFIX) and isinstance(value, (int, float))
    }


def index_rows(report: dict) -> Dict[Tuple[int, int], dict]:
    """Rows keyed by ``(n_vertices, n_samples)``."""
    return {(row["n_vertices"], row["n_samples"]): row for row in report.get("rows", [])}


class ComparisonUnusableError(Exception):
    """The diff could not run at all (as opposed to finding a regression).

    Raised for disjoint row sets or overlapping rows with no shared
    ratio fields — both mean the baseline and the fresh report do not
    describe the same benchmark (stale baseline, wrong file pairing),
    not that performance moved.  Mapped to exit code 2.
    """


def compare(baseline: dict, fresh: dict) -> List[str]:
    """Return a list of human-readable failure messages (empty = pass).

    Raises :class:`ComparisonUnusableError` when the two reports have
    nothing comparable.
    """
    failures: List[str] = []
    baseline_rows = index_rows(baseline)
    fresh_rows = index_rows(fresh)
    overlap = sorted(set(baseline_rows) & set(fresh_rows))
    if not overlap:
        raise ComparisonUnusableError(
            "no overlapping (n_vertices, n_samples) rows between "
            f"the baseline rows {sorted(baseline_rows)} and the fresh rows "
            f"{sorted(fresh_rows)}; the baseline is stale or the files are "
            f"mismatched — regenerate with '{REFRESH_COMMAND}'"
        )

    compared = 0
    for key in overlap:
        base_ratios = ratio_fields(baseline_rows[key])
        fresh_ratios = ratio_fields(fresh_rows[key])
        for field in sorted(set(base_ratios) & set(fresh_ratios)):
            compared += 1
            floor = base_ratios[field] * (1.0 - TOLERANCE)
            if fresh_ratios[field] < floor:
                failures.append(
                    f"row |V|={key[0]} samples={key[1]} {field}: "
                    f"{fresh_ratios[field]:.2f}x < {floor:.2f}x "
                    f"(baseline {base_ratios[field]:.2f}x - {TOLERANCE:.0%})"
                )
    if compared == 0:
        raise ComparisonUnusableError(
            "overlapping rows share no ratio fields — nothing was compared; "
            "the baseline and fresh report come from different benchmarks, "
            "or the baseline predates the current report format — regenerate "
            f"with '{REFRESH_COMMAND}'"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="checked-in baseline JSON")
    parser.add_argument("fresh", type=Path, help="report from this run's --json")
    args = parser.parse_args(argv)

    reports = {}
    for label, path in (("baseline", args.baseline), ("fresh", args.fresh)):
        try:
            reports[label] = json.loads(path.read_text())
        except FileNotFoundError:
            hint = (
                f" — regenerate the checked-in baseline with '{REFRESH_COMMAND}'"
                if label == "baseline"
                else " — run the benchmark with --json first"
            )
            print(f"ERROR: {label} report {path} does not exist{hint}")
            return 2
        except (OSError, ValueError) as error:
            print(f"ERROR: {label} report {path} is not readable JSON: {error}")
            return 2
    try:
        failures = compare(reports["baseline"], reports["fresh"])
    except ComparisonUnusableError as error:
        print(f"ERROR: cannot compare {args.fresh} against {args.baseline}: {error}")
        return 2
    if failures:
        print(f"PERF REGRESSION vs {args.baseline}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"no ratio regression vs {args.baseline} (tolerance {TOLERANCE:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
