"""The v1 flip stream, pinned by digest rather than only against itself.

The other stream tests compare one code path with another at the same
commit, so a change that moved every path together would pass them.
These digests were recorded from the chunked float64 draw that preceded
the reused draw buffer; they pin the exact bits of ``sample_flips``,
``sample_reachability`` and a sharded-flow-shaped ``run_shard`` across
commits.  The shapes are chosen so that the old and the new draw and
propagation chunk boundaries fall in different places.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.parallel.executor import ShardTask, run_shard
from repro.reachability.backends import make_backend
from repro.reachability.backends.base import (
    SamplingProblem,
    chunked_sample_reachability,
    sample_flips,
)


def _problem(n_vertices: int, n_edges: int, seed: int) -> SamplingProblem:
    """A reproducible random multigraph; probabilities in ``[0.2, 0.9)``."""
    rng = np.random.default_rng(seed)
    return SamplingProblem(
        vertex_ids=tuple(range(n_vertices)),
        edge_u=rng.integers(0, n_vertices, size=n_edges),
        edge_v=rng.integers(0, n_vertices, size=n_edges),
        probabilities=rng.uniform(0.2, 0.9, size=n_edges),
        source=0,
    )


def _digest(matrix: np.ndarray) -> str:
    """sha1 of shape, dtype and C-order bytes (memory order does not count)."""
    matrix = np.ascontiguousarray(matrix)
    header = f"{matrix.shape}|{matrix.dtype.str}|".encode()
    return hashlib.sha1(header + matrix.tobytes()).hexdigest()


#: (n_samples, n_vertices, n_edges, problem seed, stream seed)
FLIP_CASES = {
    "1024x6000": (1024, 2000, 6000, 1, 11),
    "1000x3000": (1000, 1000, 3000, 2, 12),
    "7x1": (7, 2, 1, 3, 13),
    # 2**17 / 1000 is not whole: the last draw block is a partial one
    "300x1000": (300, 400, 1000, 4, 14),
}

#: (backend, n_samples, n_vertices, n_edges, problem seed, stream seed)
REACH_CASES = {
    "csr-1024x6000": ("csr", 1024, 2000, 6000, 1, 21),
    "csr-1000x3000": ("csr", 1000, 1000, 3000, 2, 22),
    "csr-7x1": ("csr", 7, 2, 1, 3, 23),
    "naive-750x6000": ("naive", 750, 2000, 6000, 1, 24),
    "naive-300x1000": ("naive", 300, 400, 1000, 4, 25),
}

FLIP_DIGESTS = {
    "1024x6000": "7d1b388dd342078887c6c33eb9e1eab01e3c40c3",
    "1000x3000": "a224c4f6a3235a92febc0b6bc55be39a880ba815",
    "7x1": "94f10f648fe3e83bd7bb129d69c2d6f4bf1a08db",
    "300x1000": "80d34bc25f7583c78b2c708f8924dc156972cb8f",
}

REACH_DIGESTS = {
    "csr-1024x6000": "a81539c6dc0390fc71579ea4826b0a801484a9bf",
    "csr-1000x3000": "f7ab60d48623746bbff3051f60494d7b7ae858eb",
    "csr-7x1": "3394541fc71db40c62dcb5e6a93f297351d2d9d5",
    "naive-750x6000": "b553f45c44a844fa400bf19ccbf7fdebf10494cc",
    "naive-300x1000": "5d024c0cf7146bd1bcc769ae5bea1688a6c6d0ff",
}

#: run_shard of a sharded-flow-shaped shard: 1024 worlds, |V|=2000, |E|=6000
SHARD_DIGESTS = {
    "flips": "6b2211b76b512ebbcc72f26e1e7c4bb81f55d0f6",
    "reach": "7fb8abb3c8b4643760735e1dff3f322e69b152d4",
}


def _shard_task(backend) -> ShardTask:
    seed = np.random.SeedSequence(9001).spawn(3)[2]
    return ShardTask(
        problem=_problem(2000, 6000, 5), n_samples=1024, seed=seed, backend=backend
    )


@pytest.mark.parametrize("case", sorted(FLIP_CASES))
def test_sample_flips_matches_the_recorded_stream(case):
    n_samples, n_vertices, n_edges, problem_seed, seed = FLIP_CASES[case]
    problem = _problem(n_vertices, n_edges, problem_seed)
    flips = sample_flips(problem, n_samples, np.random.default_rng(seed))
    assert _digest(flips) == FLIP_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(REACH_CASES))
def test_sample_reachability_matches_the_recorded_stream(case):
    backend, n_samples, n_vertices, n_edges, problem_seed, seed = REACH_CASES[case]
    problem = _problem(n_vertices, n_edges, problem_seed)
    reached = make_backend(backend).sample_reachability(
        problem, n_samples, np.random.default_rng(seed)
    )
    assert _digest(reached) == REACH_DIGESTS[case]


@pytest.mark.parametrize("kind", ["flips", "reach"])
def test_run_shard_matches_the_recorded_stream(kind):
    backend = make_backend("csr") if kind == "reach" else None
    assert _digest(run_shard(_shard_task(backend))) == SHARD_DIGESTS[kind]


def test_block_size_never_changes_the_flip_matrix():
    problem = _problem(60, 50, 6)
    reference = sample_flips(problem, 40, np.random.default_rng(31))
    for block in (1, 7, problem.n_edges - 1, problem.n_edges):
        flips = sample_flips(problem, 40, np.random.default_rng(31), max_block_elements=block)
        np.testing.assert_array_equal(flips, reference)


@pytest.mark.parametrize("backend", ["csr", "naive"])
def test_chunk_size_never_changes_the_closure(backend):
    problem = _problem(60, 50, 6)
    engine = make_backend(backend)
    reference = engine.sample_reachability(problem, 40, np.random.default_rng(32))
    for block in (1, 7, problem.n_edges - 1, problem.n_edges):
        reached = chunked_sample_reachability(
            engine, problem, 40, np.random.default_rng(32), max_block_elements=block
        )
        np.testing.assert_array_equal(reached, reference)


def test_flip_draw_peak_stays_near_the_bool_matrix():
    """The draw reuses one small float64 buffer instead of a block per chunk."""
    problem = _problem(2000, 6000, 1)
    n_samples = 1024
    tracemalloc.start()
    try:
        flips = sample_flips(problem, n_samples, np.random.default_rng(41))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flips.nbytes == n_samples * problem.n_edges
    assert peak < flips.nbytes + 2 * 2**20
