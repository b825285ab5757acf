"""Tests for the common-random-numbers evaluation context.

The contract under test (see :mod:`repro.reachability.context`):

* every candidate score equals a from-scratch propagation of the same
  shared flip matrix over ``base + candidate`` — the attach-column fast
  path and the incremental delta re-propagation are pure optimizations;
* scores, and therefore greedy selections, are bit-for-bit identical
  across every registered backend for the same seed (the acceptance
  criterion of the CRN refactor); the backend is chosen by the session
  active when the context scores;
* candidate gains over the round's base flow are nonnegative by
  construction (monotone reachability on shared worlds).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.exceptions import SampleSizeError, VertexNotFoundError
from repro.graph.generators import erdos_renyi_graph, star_graph
from repro.graph.uncertain_graph import UncertainGraph
from repro.reachability.backends import BACKEND_NAMES
from repro.reachability.context import EvaluationContext
from repro.reachability.engine import SamplingEngine
from repro.selection.candidates import CandidateManager
from repro.selection.greedy_naive import NaiveGreedySelector
from repro.selection.lazy_greedy import LazyGreedySelector
from repro.types import Edge


@pytest.fixture
def dense_random_graph():
    """Dense enough that greedy rounds contain cycle-closing candidates."""
    return erdos_renyi_graph(25, average_degree=5.0, seed=3)


def _reference_scores(graph, query, base_edges, candidates, batch, engine, include_query=False):
    """Score candidates by full from-scratch propagation of the shared flips."""
    problem, flips = batch.problem, batch.flips
    weights = graph.weights()
    weight_vector = np.array(
        [weights.get(vertex, 0.0) for vertex in problem.vertex_ids], dtype=np.float64
    )
    if not include_query:
        weight_vector[problem.source] = 0.0
    n_base = len(base_edges)
    scores = []
    for position in range(len(candidates)):
        active = np.append(np.arange(n_base), n_base + position)
        reached = engine.propagate(problem, flips, active)
        scores.append(float((reached.astype(np.float64) @ weight_vector).mean()))
    return np.array(scores)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
class TestScoreCorrectness:
    def test_scores_equal_full_propagation_of_shared_worlds(
        self, dense_random_graph, backend
    ):
        """Fast-path and delta-path scores match a from-scratch closure."""
        graph = dense_random_graph
        engine = SamplingEngine(backend)
        manager = CandidateManager(graph, 0)
        base = []
        # walk three greedy rounds so later rounds mix attach candidates
        # with cycle-closing ones
        for _ in range(3):
            frontier = manager.candidates()
            context = EvaluationContext(graph, 0, n_samples=200, seed=17)
            with repro.session(backend=backend):
                scores = context.score_candidates(base, frontier)
            batch = engine.sample_flips(
                graph, 0, 200, seed=17, edges=list(base) + frontier
            )
            reference = _reference_scores(graph, 0, base, frontier, batch, engine)
            np.testing.assert_array_equal(scores.scores, reference)
            _, edge, _ = scores.best()
            manager.mark_selected(edge)
            base.append(edge)

    def test_gains_are_nonnegative(self, dense_random_graph, backend):
        context = EvaluationContext(dense_random_graph, 0, n_samples=150, seed=5)
        manager = CandidateManager(dense_random_graph, 0)
        base = []
        for _ in range(4):
            with repro.session(backend=backend):
                scores = context.score_candidates(base, manager.candidates())
            assert (scores.gains() >= 0.0).all()
            assert (scores.scores >= scores.base_flow).all()
            _, edge, _ = scores.best()
            manager.mark_selected(edge)
            base.append(edge)

    def test_delta_path_is_exercised(self, backend):
        """A cycle-closing candidate goes through incremental re-propagation."""
        graph = UncertainGraph(name="triangle-plus-leaf")
        for vertex in range(4):
            graph.add_vertex(vertex, weight=1.0)
        for u, v in [(0, 1), (0, 2), (1, 2), (1, 3)]:
            graph.add_edge(u, v, 0.5)
        context = EvaluationContext(graph, 0, n_samples=200, seed=2)
        base = [Edge(0, 1), Edge(0, 2)]
        # (1, 2) closes a cycle (both endpoints touched); (1, 3) attaches
        with repro.session(backend=backend):
            scores = context.score_candidates(base, [Edge(1, 2), Edge(1, 3)])
        assert scores.delta_evaluations == 1
        assert scores.fast_evaluations == 1
        assert (scores.gains() >= 0.0).all()

    def test_rounds_consume_fresh_worlds(self, dense_random_graph, backend):
        """Two rounds with identical inputs draw different worlds."""
        context = EvaluationContext(dense_random_graph, 0, n_samples=100, seed=9)
        frontier = CandidateManager(dense_random_graph, 0).candidates()
        with repro.session(backend=backend):
            first = context.score_candidates([], frontier)
            second = context.score_candidates([], frontier)
        assert context.rounds == 2
        assert not np.array_equal(first.scores, second.scores)


class TestCrossBackendSelections:
    """Acceptance: CRN selections identical across backends per seed."""

    def test_candidate_scores_bitwise_identical_across_backends(self, dense_random_graph):
        frontier = CandidateManager(dense_random_graph, 0).candidates()
        per_backend = []
        for backend in BACKEND_NAMES:
            with repro.session(backend=backend):
                context = EvaluationContext(dense_random_graph, 0, n_samples=300, seed=23)
                per_backend.append(context.score_candidates([], frontier))
        reference = per_backend[0]
        for scores in per_backend[1:]:
            np.testing.assert_array_equal(scores.scores, reference.scores)
            assert scores.base_flow == reference.base_flow

    def test_naive_selector_selections_identical_across_backends(self):
        graph = erdos_renyi_graph(40, average_degree=5.0, seed=8)
        results = []
        for backend in BACKEND_NAMES:
            with repro.session(backend=backend):
                selector = NaiveGreedySelector(n_samples=200, seed=13, crn=True)
                results.append(selector.select(graph, 0, 8))
        reference = results[0]
        for result in results[1:]:
            assert result.selected_edges == reference.selected_edges
            assert result.expected_flow == reference.expected_flow

    def test_lazy_selector_selections_identical_across_backends(self):
        graph = erdos_renyi_graph(30, average_degree=4.0, seed=4)
        results = []
        for backend in BACKEND_NAMES:
            with repro.session(backend=backend):
                selector = LazyGreedySelector(n_samples=150, seed=6, crn=True)
                results.append(selector.select(graph, 0, 6))
        reference = results[0]
        for result in results[1:]:
            assert result.selected_edges == reference.selected_edges


class TestBestAndValidation:
    def test_best_breaks_ties_towards_first_candidate(self):
        graph = star_graph(3, probability=0.5)
        context = EvaluationContext(graph, 0, n_samples=50, seed=1)
        scores = context.score_candidates([], [Edge(0, 1), Edge(0, 2), Edge(0, 3)])
        index, edge, _ = scores.best()
        # unit weights and one shared batch: identical columns tie, and
        # argmax must resolve to the earliest candidate
        first_best = int(np.flatnonzero(scores.scores == scores.scores.max())[0])
        assert index == first_best
        assert edge == scores.candidates[index]

    def test_empty_candidate_list_rejected_by_best(self, dense_random_graph):
        context = EvaluationContext(dense_random_graph, 0, n_samples=20, seed=0)
        scores = context.score_candidates([], [])
        assert scores.scores.size == 0
        with pytest.raises(ValueError, match="no candidates"):
            scores.best()

    def test_unknown_source_rejected(self, dense_random_graph):
        with pytest.raises(VertexNotFoundError):
            EvaluationContext(dense_random_graph, "missing", n_samples=10)

    def test_non_positive_samples_rejected(self, dense_random_graph):
        with pytest.raises(SampleSizeError):
            EvaluationContext(dense_random_graph, 0, n_samples=0)

    def test_duplicate_candidates_rejected(self, dense_random_graph):
        context = EvaluationContext(dense_random_graph, 0, n_samples=20, seed=0)
        frontier = CandidateManager(dense_random_graph, 0).candidates()
        with pytest.raises(ValueError, match="duplicates"):
            context.score_candidates([frontier[0]], [frontier[0]])
        with pytest.raises(ValueError, match="duplicates"):
            context.score_candidates([], [frontier[0], frontier[0]])

    def test_seeded_contexts_reproducible(self, dense_random_graph):
        frontier = CandidateManager(dense_random_graph, 0).candidates()
        first = EvaluationContext(dense_random_graph, 0, n_samples=80, seed=31).score_candidates(
            [], frontier
        )
        second = EvaluationContext(dense_random_graph, 0, n_samples=80, seed=31).score_candidates(
            [], frontier
        )
        np.testing.assert_array_equal(first.scores, second.scores)
