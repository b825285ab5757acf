"""Parallel sharded sampling: the layer between the RNG and the engine.

The Monte-Carlo estimates of this library are embarrassingly parallel —
every possible world is independent — so this subsystem splits one
sampling request into fixed-size **shards**, gives each shard its own
child random stream, runs the shards on an executor, and concatenates
the partial results in shard order:

1. :mod:`repro.parallel.plan` — pure arithmetic: ``n_samples`` worlds
   split into ``ceil(n_samples / shard_size)`` shards (the last one
   partial);
2. :func:`repro.rng.split_seed_sequences` — deterministic seed
   splitting: shard ``i`` always receives the ``i``-th spawn of the
   request seed's :class:`numpy.random.SeedSequence`;
3. :mod:`repro.parallel.executor` — :class:`SerialExecutor` (the
   in-process reference) and :class:`ProcessExecutor` (a reusable
   process pool) run the shards; results are collected in shard order.

**The determinism contract.**  A sharded result is a pure function of
``(seed, n_samples, shard_size)``.  Worker count, executor choice,
scheduling order and machine core count never change a single bit: each
shard's worlds depend only on its pre-split seed, and the reduction
concatenates in shard order, not completion order.  The worker-count
invariance tests pin ``ProcessExecutor(n)`` for several ``n`` against
:class:`SerialExecutor` on both sampling backends — estimates *and*
greedy selections must match exactly.  Changing ``shard_size`` is
allowed to change results (it re-keys the seed split, like changing the
seed); changing ``workers`` is not.

Sharded sampling draws different (equally valid) worlds than the
original single-stream path, so it runs only where the active session
names workers (``repro.session(workers=...)``); without one, sampling
keeps the historical unsharded stream byte-for-byte and all
pre-existing pinned results with it.
"""

from repro.parallel.executor import (
    ExecutorLike,
    ProcessExecutor,
    SamplingExecutor,
    SerialExecutor,
    ShardTask,
    get_default_executor,
    make_executor,
    run_shard,
)
from repro.parallel.plan import (
    DEFAULT_SHARD_SIZE,
    ShardPlan,
    get_default_shard_size,
    plan_shards,
)

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "ExecutorLike",
    "ProcessExecutor",
    "SamplingExecutor",
    "SerialExecutor",
    "ShardPlan",
    "ShardTask",
    "get_default_executor",
    "get_default_shard_size",
    "make_executor",
    "plan_shards",
    "run_shard",
]
