"""Shared fixtures for the test suite."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.ftree.sampler import ComponentSampler
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)
from repro.graph.uncertain_graph import UncertainGraph


@pytest.fixture(autouse=True)
def _no_tracemalloc_leak():
    """Fail a test that leaves tracemalloc tracing when it found it off.

    Tracing slows every allocation after it, so one leak silently turns
    the rest of the run several times slower and skews allocation-peak
    assertions in unrelated tests.
    """
    was_tracing = tracemalloc.is_tracing()
    yield
    if not was_tracing and tracemalloc.is_tracing():
        tracemalloc.stop()
        pytest.fail("the test left tracemalloc tracing on")


@pytest.fixture
def triangle_graph() -> UncertainGraph:
    """A triangle 0-1-2 with per-edge probabilities 0.5, 0.6, 0.7."""
    graph = UncertainGraph(name="triangle")
    for vertex in range(3):
        graph.add_vertex(vertex, weight=1.0)
    graph.add_edge(0, 1, 0.5)
    graph.add_edge(1, 2, 0.6)
    graph.add_edge(2, 0, 0.7)
    return graph


@pytest.fixture
def small_path() -> UncertainGraph:
    """A 4-vertex path with edge probability 0.5 and unit weights."""
    return path_graph(4, probability=0.5)


@pytest.fixture
def five_cycle() -> UncertainGraph:
    """A 5-vertex cycle with edge probability 0.5 and unit weights."""
    return cycle_graph(5, probability=0.5)


@pytest.fixture
def lollipop_graph() -> UncertainGraph:
    """A triangle {0,1,2} with a path 2-3-4 hanging off it (probability 0.5)."""
    graph = UncertainGraph(name="lollipop")
    for vertex in range(5):
        graph.add_vertex(vertex, weight=float(vertex + 1))
    for u, v in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]:
        graph.add_edge(u, v, 0.5)
    return graph


@pytest.fixture
def random_graph() -> UncertainGraph:
    """A reproducible 40-vertex Erdős graph for selection tests."""
    return erdos_renyi_graph(40, average_degree=4.0, seed=11)


@pytest.fixture
def exact_sampler() -> ComponentSampler:
    """A sampler that evaluates every (small) component exactly — deterministic tests."""
    return ComponentSampler(n_samples=10, exact_threshold=18, seed=0)


@pytest.fixture
def star_five() -> UncertainGraph:
    """A star with 5 leaves, probability 0.5."""
    return star_graph(5, probability=0.5)


@pytest.fixture
def dense_graph() -> UncertainGraph:
    """A complete graph on 5 vertices with probability 0.4."""
    return complete_graph(5, probability=0.4)
