"""Estimation ablation: whole-graph sampling versus F-tree component sampling.

Backs the variance argument of Section 7.3 (discussion of Fig. 5(b)): for
the same per-component sample budget, sampling the independent
bi-connected components separately and combining them analytically gives
a lower-variance (and never slower) estimate of the expected flow than
sampling the whole subgraph at once.  The exact value from possible-world
enumeration is recorded alongside so the bias of both estimators is
visible in ``extra_info``.
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import estimator_variance_ablation
from repro.experiments.harness import pick_query_vertex
from repro.ftree.builder import build_ftree
from repro.ftree.sampler import ComponentSampler
from repro.graph.generators import erdos_renyi_graph
from repro.reachability.backends import BACKEND_NAMES
from repro.reachability.exact import exact_expected_flow
from repro.reachability.engine import SamplingEngine

N_SAMPLES = 200


def _ablation_graph():
    graph = erdos_renyi_graph(12, average_degree=3.0, seed=0, weight_range=(1.0, 5.0))
    return graph, pick_query_vertex(graph)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_whole_graph_monte_carlo_estimation(benchmark, backend):
    """Time and bias of the whole-graph Monte-Carlo flow estimator, per backend."""
    graph, query = _ablation_graph()
    exact = exact_expected_flow(graph, query).expected_flow

    def run():
        return SamplingEngine(backend).expected_flow(graph, query, n_samples=N_SAMPLES, seed=1)

    estimate = benchmark(run)
    benchmark.extra_info["estimator"] = f"whole-graph MC [{backend}]"
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["exact_flow"] = round(exact, 4)
    benchmark.extra_info["estimate"] = round(estimate.expected_flow, 4)


def test_ftree_component_estimation(benchmark):
    """Time and bias of the component-wise (F-tree) flow estimator."""
    graph, query = _ablation_graph()
    exact = exact_expected_flow(graph, query).expected_flow
    edges = graph.edge_list()

    def run():
        sampler = ComponentSampler(n_samples=N_SAMPLES, exact_threshold=0, seed=1)
        ftree = build_ftree(graph, edges, query, sampler=sampler)
        return ftree.expected_flow()

    estimate = benchmark(run)
    benchmark.extra_info["estimator"] = "F-tree component MC"
    benchmark.extra_info["exact_flow"] = round(exact, 4)
    benchmark.extra_info["estimate"] = round(estimate, 4)


def test_variance_comparison(benchmark):
    """Empirical variance of both estimators over repeated runs (the paper's argument)."""

    def run():
        return estimator_variance_ablation(
            n_vertices=12, average_degree=3.0, n_samples=100, repetitions=15, seed=2
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    rows = {row["estimator"]: row for row in result.rows}
    benchmark.extra_info["naive_variance"] = round(rows["whole-graph MC"]["variance"], 5)
    benchmark.extra_info["ftree_variance"] = round(
        rows["F-tree component MC"]["variance"], 5
    )
