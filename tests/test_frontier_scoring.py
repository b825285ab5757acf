"""Oracle tests for batched frontier scoring in the F-tree greedy selectors.

Every round of a selection, each Case II score of
:meth:`FTree.probe_new_vertices` must equal the scalar
:meth:`FTree.probe` of that edge bit for bit, and the round's outcome
(best edge, best flow, cycle probe info, probed, pruned and delayed
counts, and the delays left behind) must equal that of
:class:`ReferenceSelector`, the candidate-by-candidate loop that probes
every frontier edge with its own ``probe`` call.  The two walks run as
two selections with their own samplers, so neither sees the other's
memoized estimates.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.harness import pick_query_vertex
from repro.graph.generators import wsn_graph
from repro.graph.uncertain_graph import UncertainGraph
from repro.selection.ftree_greedy import FTreeGreedySelector
from repro.types import Edge

VARIANTS = {
    "FT": dict(memoize=False, confidence=False, delayed=False),
    "FT+M": dict(memoize=True, confidence=False, delayed=False),
    "FT+M+CI": dict(memoize=True, confidence=True, delayed=False),
    "FT+M+DS": dict(memoize=True, confidence=False, delayed=True),
    "FT+M+CI+DS": dict(memoize=True, confidence=True, delayed=True),
}


class ReferenceSelector(FTreeGreedySelector):
    """The candidate-by-candidate walk: every frontier edge gets its own ``FTree.probe``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.outcomes = []

    def _probe_candidates(self, ftree, candidates, delays, screening_sampler):
        best_edge = None
        best_flow = float("-inf")
        best_lower = float("-inf")
        probe_info = {}
        probed = 0
        pruned = 0
        skipped = 0
        for edge in candidates:
            if self.delayed and delays.get(edge, 0) > 0:
                delays[edge] -= 1
                skipped += 1
                continue
            probed += 1
            if self.confidence and best_edge is not None:
                cost = ftree.probe_cost(edge)
                if cost > 0:
                    screening = ftree.probe(
                        edge, include_query=self.include_query, sampler=screening_sampler
                    )
                    if screening.upper < best_lower:
                        pruned += 1
                        probe_info[edge] = (screening.upper, cost)
                        continue
            score = ftree.probe(edge, include_query=self.include_query)
            probe_info[edge] = (score.flow, score.cost)
            if score.flow > best_flow:
                best_flow = score.flow
                best_edge = edge
                best_lower = score.lower
        if best_edge is None:
            self.outcomes.append((None, dict(delays)))
            return None
        cycle_info = {
            edge: info
            for edge, info in probe_info.items()
            if ftree.is_connected_vertex(edge.u) and ftree.is_connected_vertex(edge.v)
        }
        self.outcomes.append(
            ((best_edge, best_flow, cycle_info, probed, pruned, skipped), dict(delays))
        )
        return best_edge, best_flow, probe_info, probed, pruned, skipped

    def _update_delays(self, delays, probe_info, best_edge, best_flow, probed):
        for edge, (flow, cost) in probe_info.items():
            if edge == best_edge or cost <= 0:
                continue
            if best_flow <= 0:
                continue
            potential = max(flow, 0.0) / best_flow
            if potential <= 0:
                delay = len(probe_info)
            else:
                delay = int(math.floor(math.log(cost / potential, self.delay_base)))
            if delay > 0:
                delays[edge] = delay


class CheckedSelector(FTreeGreedySelector):
    """The batched walk, checking each round's Case II scores against ``FTree.probe``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.outcomes = []
        self.case_two_rows = 0

    def _probe_candidates(self, ftree, candidates, delays, screening_sampler):
        outcome = super()._probe_candidates(ftree, candidates, delays, screening_sampler)
        self.outcomes.append((outcome, dict(delays)))
        scores = ftree.probe_new_vertices(
            candidates.anchors, candidates.gains, include_query=self.include_query
        )
        new_vertices = candidates.new_vertices
        for row, edge in enumerate(candidates.candidates()):
            if new_vertices[row] < 0:
                continue
            self.case_two_rows += 1
            expected = ftree.probe(edge, include_query=self.include_query)
            assert expected.cost == 0
            for name, batch in zip(("flow", "lower", "upper"), scores):
                assert batch[row] == getattr(expected, name), (edge, name)
        return outcome


def checked_select(graph, variant, include_query, exact_threshold, budget, query=None):
    """Select with both walks; every round's outcome and the result must agree."""
    selectors = [
        cls(
            n_samples=40,
            exact_threshold=exact_threshold,
            seed=3,
            include_query=include_query,
            **VARIANTS[variant],
        )
        for cls in (CheckedSelector, ReferenceSelector)
    ]
    query = pick_query_vertex(graph) if query is None else query
    checked, reference = (selector.select(graph, query, budget) for selector in selectors)
    assert selectors[0].outcomes == selectors[1].outcomes
    assert checked.selected_edges == reference.selected_edges
    assert checked.expected_flow == reference.expected_flow
    assert [i.candidates_probed for i in checked.iterations] == [
        i.candidates_probed for i in reference.iterations
    ]
    return selectors[0], checked


@st.composite
def small_graphs(draw):
    n_vertices = draw(st.integers(min_value=3, max_value=9))
    # labels such as 2 and 10 order differently by value and by repr
    labels = draw(st.permutations(range(2, 14)))[:n_vertices]
    graph = UncertainGraph(name="frontier")
    for label in labels:
        graph.add_vertex(label, weight=float(draw(st.integers(0, 9))))
    probabilities = st.sampled_from([0.2, 0.45, 0.6, 0.85, 1.0])
    for index in range(1, n_vertices):
        # a random spanning tree keeps every vertex reachable
        parent = labels[draw(st.integers(0, index - 1))]
        graph.add_edge(labels[index], parent, draw(probabilities))
    for u_index in range(n_vertices):
        for v_index in range(u_index + 1, n_vertices):
            u, v = labels[u_index], labels[v_index]
            if not graph.has_edge(u, v) and draw(st.booleans()):
                graph.add_edge(u, v, draw(probabilities))
    return graph


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=small_graphs(),
    variant=st.sampled_from(sorted(VARIANTS)),
    include_query=st.booleans(),
    exact_threshold=st.sampled_from([3, 10]),
    budget=st.integers(1, 12),
)
def test_batched_rounds_match_per_candidate_probes(
    graph, variant, include_query, exact_threshold, budget
):
    selector, result = checked_select(graph, variant, include_query, exact_threshold, budget)
    assert len(selector.outcomes) >= len(result.selected_edges)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("include_query", [False, True])
@pytest.mark.parametrize("exact_threshold", [3, 10])
def test_batched_rounds_match_on_sampled_graphs(variant, include_query, exact_threshold):
    """Larger graphs, where cycles are sampled, screened and delayed."""
    selector, result = checked_select(
        wsn_graph(60, eps=0.22, seed=5), variant, include_query, exact_threshold, budget=10
    )
    assert len(result.selected_edges) == 10
    assert selector.case_two_rows > 0
    if variant == "FT+M+CI+DS" and exact_threshold == 3:
        # screening here never prunes: only exact cycles ever fell below the
        # best lower bound, and they cost nothing, so they are not screened
        # (test_screening_prunes_and_delays_a_sampled_cycle covers pruning)
        assert result.extras["delayed_candidates"] > 0


def test_zero_flow_cycle_is_delayed_by_the_probed_count():
    """A sampled cycle with zero flow beside a positive best is suspended for
    as many rounds as candidates were probed, Case II ones included."""
    graph = UncertainGraph(name="zero-flow")
    for vertex, weight in [(0, 0.0), (1, 0.0), (2, 0.0), (3, 5.0)]:
        graph.add_vertex(vertex, weight=weight)
    for u, v in [(0, 1), (0, 2), (1, 2), (2, 3)]:
        graph.add_edge(u, v, 0.5)
    selector, result = checked_select(graph, "FT+M+DS", False, 0, budget=4, query=0)
    # round 2: the cycle (1, 2) scores 0 beside the Case II edge (2, 3)
    (best_edge, best_flow, cycle_info, probed, _, _), _ = selector.outcomes[2]
    assert best_edge == Edge(2, 3) and best_flow > 0
    assert cycle_info == {Edge(1, 2): (0.0, 3)} and probed == 2
    # round 3: still delayed once more, so every candidate is suspended
    # and the round is retried without delays
    assert selector.outcomes[3] == (None, {Edge(1, 2): 1})
    assert result.selected_edges == [Edge(0, 1), Edge(0, 2), Edge(2, 3), Edge(1, 2)]


def test_exact_cycle_costs_nothing_and_is_never_delayed():
    """A 5-cycle at exact_threshold=10 is evaluated exactly, so probing it
    samples nothing: its cost is 0 and delayed sampling never suspends it."""
    graph = UncertainGraph(name="exact-cycle")
    graph.add_vertex(0, weight=0.0)
    for vertex in range(1, 5):
        graph.add_vertex(vertex, weight=20.0)
    for vertex in range(5, 10):
        graph.add_vertex(vertex, weight=10.0)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        graph.add_edge(u, v, 0.9)
    graph.add_edge(4, 0, 0.3)
    for pendant in range(5, 10):
        graph.add_edge(0, pendant, 0.9)
    selector, result = checked_select(graph, "FT+M+DS", False, 10, budget=8, query=0)
    assert result.selected_edges[:4] == [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(3, 4)]
    # rounds 4-7: the closing edge loses to a pendant every round, at no cost
    for (best_edge, _, cycle_info, _, _, skipped), _ in selector.outcomes[4:]:
        assert best_edge != Edge(4, 0)
        assert cycle_info[Edge(4, 0)][1] == 0 and skipped == 0
    assert result.extras["delayed_candidates"] == 0


def test_screening_prunes_and_delays_a_sampled_cycle():
    """A sampled cycle over light vertices cannot beat the heavy Case II edge
    ranked before it: screening prunes it, and delayed sampling then
    suspends it for a round."""
    graph = UncertainGraph(name="prune")
    for vertex, weight in [(0, 0.0), (5, 10.0), (7, 1.0), (8, 1.0), (9, 0.2)]:
        graph.add_vertex(vertex, weight=weight)
    for u, v in [(0, 7), (0, 8), (7, 8), (5, 8), (0, 9)]:
        graph.add_edge(u, v, 0.5)
    _, pruned = checked_select(graph, "FT+M+CI", False, 0, budget=4, query=0)
    assert [i.candidates_pruned for i in pruned.iterations] == [0, 0, 1, 0]
    _, delayed = checked_select(graph, "FT+M+CI+DS", False, 0, budget=4, query=0)
    assert [i.candidates_pruned for i in delayed.iterations] == [0, 0, 1, 0]
    assert [i.candidates_delayed for i in delayed.iterations] == [0, 0, 0, 1]
    assert delayed.selected_edges[-1] == Edge(0, 9)
