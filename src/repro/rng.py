"""Randomness helpers.

Every stochastic routine in the library takes a ``seed`` argument that may
be ``None`` (non-deterministic), an integer, or an existing
:class:`numpy.random.Generator`.  :func:`ensure_rng` normalises all three
cases, and :func:`split_seed_sequences` derives independent child seed
sequences for parallel shards without accidentally correlating streams.

All child-stream derivation goes through :class:`numpy.random.SeedSequence`
spawning (:func:`seed_sequence` normalises every seed form into a
sequence first).  Spawning guarantees non-overlapping child streams by
construction; the earlier scheme of drawing raw 63-bit integers as child
seeds risked birthday collisions — two workers silently sampling the
same worlds — once enough children were spawned.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

#: Accepted forms of a random source.
SeedLike = Union[None, int, np.random.Generator]

#: Entropy words drawn when a live generator is condensed into a seed
#: sequence (128 bits, matching SeedSequence's own pool word count).
_GENERATOR_ENTROPY_WORDS = 4


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Parameters
    ----------
    seed:
        ``None`` for OS-entropy seeding, an ``int`` for a reproducible
        stream, or an existing generator which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def seed_sequence(seed: SeedLike = None) -> np.random.SeedSequence:
    """Normalise any accepted seed form into a :class:`numpy.random.SeedSequence`.

    ``None`` and ``int`` seeds map to ``SeedSequence(seed)`` directly.  A
    live generator is condensed by drawing 128 bits of entropy from it —
    this advances the generator, so successive calls yield independent
    (but, for a seeded generator, fully reproducible) sequences; the
    generator's future output stays uncorrelated with every child
    spawned from the returned sequence.
    """
    if isinstance(seed, np.random.Generator):
        entropy = seed.integers(0, 2**32, size=_GENERATOR_ENTROPY_WORDS, dtype=np.uint32)
        return np.random.SeedSequence([int(word) for word in entropy])
    return np.random.SeedSequence(seed)


def split_seed_sequences(seed: SeedLike, count: int) -> List[np.random.SeedSequence]:
    """Split ``seed`` into ``count`` independent child seed sequences.

    The deterministic seed-splitting primitive of the parallel sampling
    executor: child ``i`` is the ``i``-th spawn of ``seed_sequence(seed)``,
    so the children depend only on the seed (and, for a generator, its
    state) — never on worker count or execution order.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return seed_sequence(seed).spawn(count)


def derive_seed(seed: SeedLike, salt: int) -> Optional[int]:
    """Derive a reproducible integer seed from ``seed`` and an integer salt.

    Returns ``None`` when ``seed`` is ``None`` so that non-deterministic
    behaviour propagates.  Used by experiment configurations to give each
    repetition and each algorithm its own deterministic stream.
    """
    if seed is None:
        return None
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**31 - 1))
    return int((int(seed) * 1_000_003 + salt * 7_919) % (2**63 - 1))
