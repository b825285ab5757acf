"""Multi-node sharded sampling: wire protocol, remote executor, workers.

The distributed tier extends the :mod:`repro.parallel` determinism
contract — results are a pure function of ``(seed, n_samples,
shard_size)``, never of scheduling — across machines:

* :mod:`repro.distributed.wire` — the versioned JSONL wire protocol
  (shard tasks with their pre-split seeds, base64 ``.npy`` partials,
  typed error envelopes);
* :mod:`repro.distributed.worker` — the worker agent process
  (``repro-flow worker --connect HOST:PORT``);
* :mod:`repro.distributed.coordinator` — :class:`RemoteExecutor`, a
  drop-in :class:`~repro.parallel.SamplingExecutor` that scatters
  shards over the fleet, reduces partials in shard order, and retries
  through worker deaths, disconnects and timeouts without changing a
  bit;
* :mod:`repro.distributed.testing` — :func:`local_fleet`, a real
  loopback deployment for tests and benchmarks.

Entry points: ``repro.RemoteExecutor(...)`` directly, the
``workers="remote:HOST:PORT"`` spec anywhere an executor spec goes
(:class:`repro.RuntimeConfig`, ``repro.session``, ``--workers``).
"""

from repro.distributed.coordinator import RemoteExecutor
from repro.distributed.testing import Fleet, local_fleet
from repro.distributed.worker import WorkerAgent

__all__ = [
    "Fleet",
    "RemoteExecutor",
    "WorkerAgent",
    "local_fleet",
]
