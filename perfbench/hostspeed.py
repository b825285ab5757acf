"""Host-speed normalization of measured times.

On a shared host the speed of a core drifts: the same fixed loop runs
up to ~1.6x slower for seconds to minutes at a time, in CPU time as
much as in wall time.  The benchmark therefore runs a short fixed
reference kernel right before and after every timed round of
operations and scales the round's times by
``REFERENCE_SECONDS / kernel time``.  The kernel does interpreter-bound
dict, set and list work plus a little NumPy, like the library's hot
paths, but never calls the library.  Reported times are thus
"milliseconds at reference host speed": drift cancels, while a change
in the library's own speed does not.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Kernel time on a quiet core of the reference host (see meta.json).
REFERENCE_SECONDS = 0.00125

_ARRAY = np.arange(4096, dtype=np.float64)


class HostSpeed:
    """Kernel timings around timed rounds, and the resulting scale factors."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = self.sample()

    def kernel(self) -> float:
        """Fixed work; returns a checksum so nothing is optimized away."""
        table = {}
        seen = set()
        total = 0
        for i in range(6000):
            key = (i * 7919) % 1021
            table[key] = table.get(key, 0) + i
            if key not in seen:
                seen.add(key)
            total += len(table)
        values = sorted(table.values())
        vector = np.sqrt(_ARRAY * _ARRAY + 1.0)
        return total + values[-1] + float(vector.sum())

    def sample(self) -> float:
        started = time.perf_counter()
        self.kernel()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def open_round(self) -> None:
        """Sample right before a round that does not follow another one."""
        self._last = self.sample()

    def close_round(self) -> float:
        """Sample after a round; return the factor for that round's times."""
        before, after = self._last, self.sample()
        self._last = after
        return REFERENCE_SECONDS / ((before + after) / 2.0)

    def median_factor(self) -> float:
        return REFERENCE_SECONDS / statistics.median(self.samples)
