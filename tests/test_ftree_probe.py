"""Oracle tests for ``FTree.probe``: delta scoring against clone + insert + full evaluation.

For every frontier candidate of a round-refreshed tree, the probe's flow,
interval and cost must equal what a clone with the edge inserted reports
through ``expected_flow``, ``flow_interval`` and
``pending_estimation_cost`` — on hand-built trees that reach every
insertion case, and on random graphs with random insertion sequences.
The random sequences also check the tree's incrementally maintained
aggregates with ``check_invariants`` after every step, on a clone so
that updates still pending in the tree (several insertions without a
probe, re-estimates of a new round) stay pending.

The tree caches each cycle candidate's plan across rounds, so every
probe is also compared bit for bit with a clone's, whose plan cache is
empty; ``TestPlanCache`` covers each rule the cache must keep.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    DisconnectedInsertionError,
    DuplicateEdgeError,
    EdgeNotFoundError,
    FTreeInvariantError,
)
from repro.ftree.ftree import FTree
from repro.ftree.memo import MemoCache
from repro.ftree.sampler import ComponentSampler
from repro.graph.uncertain_graph import UncertainGraph
from repro.types import Edge

ALPHA = 0.05


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _graph(n_vertices: int, edges, weights=None) -> UncertainGraph:
    graph = UncertainGraph(name="probe")
    for vertex in range(n_vertices):
        graph.add_vertex(vertex, weight=float(weights[vertex]) if weights else float(vertex + 1))
    for u, v, probability in edges:
        graph.add_edge(u, v, probability)
    return graph


def _complete(n_vertices: int) -> UncertainGraph:
    """K_n with distinct, reproducible probabilities."""
    edges = []
    for u in range(n_vertices):
        for v in range(u + 1, n_vertices):
            edges.append((u, v, 0.3 + 0.6 * (((u * 7 + v * 13) % 17) / 17)))
    return _graph(n_vertices, edges)


def _sampler(exact_threshold: int = 10, memo: bool = True) -> ComponentSampler:
    return ComponentSampler(
        n_samples=64,
        exact_threshold=exact_threshold,
        seed=5,
        memo=MemoCache() if memo else None,
    )


def _frontier(tree: FTree):
    connected = tree.connected_vertices()
    selected = tree.selected_edges
    return sorted(
        {
            Edge(vertex, neighbor)
            for vertex in connected
            for neighbor in tree.graph.neighbors(vertex)
            if Edge(vertex, neighbor) not in selected
        }
    )


def assert_probe_matches(tree: FTree, u, v, include_query: bool = False) -> None:
    """One candidate: the delta probe against the clone-and-insert oracle."""
    reference = tree.clone()
    reference.insert_edge(u, v)
    # the cost is measured before anything estimates the new component
    reference_cost = reference.pending_estimation_cost()
    assert tree.probe_cost(u, v) == reference_cost
    fresh_tree = tree.clone()  # its plan cache is empty
    score = tree.probe(u, v, include_query=include_query)
    reference_flow = reference.expected_flow(include_query=include_query)
    reference_lower, reference_upper = reference.flow_interval(
        alpha=ALPHA, include_query=include_query
    )
    assert _close(score.flow, reference_flow), (Edge(u, v), score, reference_flow)
    assert _close(score.lower, reference_lower), (Edge(u, v), score, reference_lower)
    assert _close(score.upper, reference_upper), (Edge(u, v), score, reference_upper)
    assert score.cost == reference_cost
    # a reused plan scores bit for bit like a fresh one; probe(edge) is
    # probe(u, v), and from here on every probe finds the estimate memoized
    # or replays its CRN stream, so the costs agree too
    fresh = fresh_tree.probe(u, v, include_query=include_query)
    assert score[:3] == fresh[:3], (Edge(u, v), score, fresh)
    assert tree.probe(Edge(u, v), include_query=include_query) == fresh


def assert_all_probes_match(tree: FTree, round_index: int, evaluate_first: bool = True) -> None:
    """Refresh the tree for a round, then check every frontier candidate.

    With ``evaluate_first`` the round's re-estimates reach the tree through
    ``expected_flow`` before the first probe, otherwise through the probe.
    """
    tree.begin_round(round_index)
    frontier = _frontier(tree)
    if evaluate_first:
        tree.expected_flow()
    elif frontier:
        tree.probe(frontier[0])
    before = (tree.selected_edges, sorted(c.component_id for c in tree.components()))
    for edge in frontier:
        assert_probe_matches(tree, edge.u, edge.v)
    # probing never changes the tree
    assert (tree.selected_edges, sorted(c.component_id for c in tree.components())) == before
    tree.check_invariants()


def commit(tree: FTree, u, v, round_index: int, case: str) -> None:
    assert_all_probes_match(tree, round_index)
    assert tree.insert_edge(u, v).case == case
    tree.check_invariants()


class TestInsertionCases:
    """Hand-built trees that reach each insertion case, probed before every commit."""

    @pytest.mark.parametrize("exact_threshold", [10, 0])
    def test_case_two_and_three_a(self, exact_threshold):
        tree = FTree(_complete(6), 0, sampler=_sampler(exact_threshold), alpha=ALPHA)
        commit(tree, 0, 1, 0, "IIa")
        commit(tree, 1, 2, 1, "IIa")
        commit(tree, 2, 3, 2, "IIa")
        commit(tree, 3, 0, 3, "IV")  # the lowest common ancestor is Q
        commit(tree, 3, 4, 4, "IIb")
        commit(tree, 1, 3, 5, "IIIa")
        commit(tree, 2, 0, 6, "IIIa")  # an edge to the component's own articulation
        assert_all_probes_match(tree, 7)

    @pytest.mark.parametrize("exact_threshold", [10, 0])
    def test_case_three_b(self, exact_threshold):
        tree = FTree(_complete(7), 0, sampler=_sampler(exact_threshold), alpha=ALPHA)
        commit(tree, 0, 1, 0, "IIa")
        commit(tree, 1, 2, 1, "IIa")
        commit(tree, 1, 3, 2, "IIa")
        commit(tree, 3, 4, 3, "IIa")
        commit(tree, 3, 6, 4, "IIa")
        commit(tree, 2, 5, 5, "IIa")
        commit(tree, 4, 5, 6, "IIIb")  # 6 hangs below the moved vertex 3: an orphan
        assert len(tree.components()) == 3
        assert_all_probes_match(tree, 7)

    @pytest.mark.parametrize("exact_threshold", [10, 0])
    def test_case_four_below_a_bi_ancestor(self, exact_threshold):
        tree = FTree(_complete(6), 0, sampler=_sampler(exact_threshold), alpha=ALPHA)
        commit(tree, 0, 1, 0, "IIa")
        commit(tree, 1, 2, 1, "IIa")
        commit(tree, 2, 0, 2, "IV")
        commit(tree, 1, 3, 3, "IIb")
        commit(tree, 2, 4, 4, "IIb")
        commit(tree, 3, 4, 5, "IV")  # the lowest common ancestor is bi
        assert_all_probes_match(tree, 6)

    @pytest.mark.parametrize("exact_threshold", [10, 0])
    def test_case_four_below_a_mono_ancestor(self, exact_threshold):
        tree = FTree(_complete(7), 0, sampler=_sampler(exact_threshold), alpha=ALPHA)
        commit(tree, 0, 1, 0, "IIa")
        commit(tree, 1, 2, 1, "IIa")
        commit(tree, 1, 4, 2, "IIa")
        commit(tree, 2, 3, 3, "IIa")
        commit(tree, 3, 5, 4, "IIa")
        commit(tree, 5, 2, 5, "IIIb")
        commit(tree, 5, 6, 6, "IIb")
        commit(tree, 6, 4, 7, "IV")  # the lowest common ancestor is mono
        assert_all_probes_match(tree, 8)

    def test_include_query_adds_its_weight(self):
        tree = FTree(_complete(5), 0, sampler=_sampler(), alpha=ALPHA)
        tree.insert_edge(0, 1)
        tree.insert_edge(1, 2)
        for u, v in [(0, 3), (2, 0), (1, 4)]:
            assert_probe_matches(tree, u, v, include_query=True)

    def test_screening_sampler_only_estimates_the_new_component(self):
        tree = FTree(_complete(5), 0, sampler=_sampler(exact_threshold=0), alpha=ALPHA)
        for u, v in [(0, 1), (1, 2), (2, 0), (2, 3)]:
            tree.insert_edge(u, v)
        coarse = ComponentSampler(n_samples=30, exact_threshold=0, seed=9)
        screened = tree.probe(3, 1, sampler=coarse)
        full = tree.probe(3, 1)
        # the cost counts against the tree's own memo, which the coarse sampler never fills
        assert screened.cost == full.cost > 0
        assert screened.upper - screened.lower > full.upper - full.lower
        # an edge to a new vertex makes no estimate, so the sampler is irrelevant
        assert tree.probe(3, 4, sampler=coarse) == tree.probe(3, 4)


class TestProbeErrors:
    def test_invalid_candidates_raise_like_insert_edge(self):
        graph = _graph(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
        tree = FTree(graph, 0, sampler=_sampler(), alpha=ALPHA)
        tree.insert_edge(0, 1)
        with pytest.raises(EdgeNotFoundError):
            tree.probe(0, 2)
        with pytest.raises(ValueError):
            tree.probe(1, 1)
        with pytest.raises(DuplicateEdgeError):
            tree.probe(1, 0)
        with pytest.raises(DisconnectedInsertionError):
            tree.probe(2, 3)


#: what a random run does in one round before it inserts the round's pick
ROUND_ACTIONS = ("evaluate-then-probe", "probe", "insert-only")


@st.composite
def insertion_runs(draw):
    n_vertices = draw(st.integers(min_value=4, max_value=8))
    pairs = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    probabilities = draw(
        st.lists(
            st.sampled_from([0.15, 0.4, 0.55, 0.8, 1.0]),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    edges = [
        (u, v, probability)
        for (u, v), kept, probability in zip(pairs, keep, probabilities)
        if kept or v == u + 1  # a spanning path keeps every vertex reachable
    ]
    weights = draw(st.lists(st.integers(0, 10), min_size=n_vertices, max_size=n_vertices))
    picks = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=12))
    actions = draw(
        st.lists(st.sampled_from(ROUND_ACTIONS), min_size=len(picks), max_size=len(picks))
    )
    # FT without memo at exact_threshold=0 re-samples every cycle each round,
    # so a sampled component's factors really change between rounds; at 2
    # without memo, exact components mix with re-sampled ones
    exact_threshold = draw(st.sampled_from([0, 2, 10]))
    memo = draw(st.booleans())
    return _graph(n_vertices, edges, weights), list(zip(picks, actions)), exact_threshold, memo


def check_aggregates(tree: FTree) -> None:
    """``check_invariants`` on a clone: the tree keeps its pending updates."""
    tree.clone().check_invariants()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(insertion_runs())
def test_probe_matches_clone_insert_evaluate(run):
    graph, rounds, exact_threshold, memo = run
    tree = FTree(graph, 0, sampler=_sampler(exact_threshold, memo), alpha=ALPHA)
    for round_index, (pick, action) in enumerate(rounds):
        frontier = _frontier(tree)
        if not frontier:
            break
        if action == "insert-only":
            tree.begin_round(round_index)
        else:
            assert_all_probes_match(tree, round_index, evaluate_first=action != "probe")
        check_aggregates(tree)
        edge = frontier[pick % len(frontier)]
        tree.insert_edge(edge.u, edge.v)
        check_aggregates(tree)
    tree.check_invariants()


def test_unprobed_insertions_and_round_re_estimates_stay_consistent():
    """Sampled cycles merge into each other over several unprobed insertions
    and rounds; the tree's pending updates resolve to the recomputed aggregates."""
    tree = FTree(_complete(7), 0, sampler=_sampler(exact_threshold=0, memo=False), alpha=ALPHA)
    steps = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 1), (1, 5), (5, 6), (6, 0), (3, 5)]
    for round_index, (u, v) in enumerate(steps):
        tree.begin_round(round_index)
        tree.insert_edge(u, v)
        check_aggregates(tree)
        if round_index % 3 == 2:
            assert_all_probes_match(tree, round_index, evaluate_first=False)
    tree.check_invariants()


def test_a_zero_estimate_still_recomputes_the_merged_subtree():
    """A merged vertex whose sampled reachability is exactly 0 keeps the factor
    it waited with; its subtree's ``R`` must still follow the new parent."""
    graph = _graph(4, [(0, 1, 0.001), (1, 3, 0.5), (1, 2, 0.001), (2, 0, 0.001)])
    tree = FTree(graph, 0, sampler=_sampler(exact_threshold=0, memo=False), alpha=ALPHA)
    for u, v in [(0, 1), (1, 3), (1, 2)]:
        tree.insert_edge(u, v)
    tree.insert_edge(2, 0)
    check_aggregates(tree)
    reach = tree.reachability_to_query()
    assert reach[1] == 0.0 and reach[3] == 0.0


class TestGraphGrowth:
    def test_a_vertex_added_under_a_live_tree_is_probed_and_inserted(self):
        graph = _graph(4, [(0, 1, 0.5), (1, 2, 0.6), (2, 0, 0.7), (2, 3, 0.8)])
        tree = FTree(graph, 0, sampler=_sampler(exact_threshold=0), alpha=ALPHA)
        for u, v in [(0, 1), (1, 2), (2, 0)]:
            tree.insert_edge(u, v)
        tree.expected_flow()  # estimate the triangle, so the probes below price only their own
        graph.add_vertex(4, weight=3.0)
        graph.add_edge(2, 4, 0.9)
        assert_probe_matches(tree, 2, 4)
        tree.insert_edge(2, 4)
        tree.check_invariants()
        assert tree.reachability_to_query()[4] > 0.0
        # the new vertex closes a cycle too
        graph.add_edge(4, 1, 0.4)
        tree.expected_flow()
        assert_probe_matches(tree, 4, 1, include_query=True)
        tree.insert_edge(4, 1)
        tree.check_invariants()

    def test_a_removed_vertex_reorders_the_ids_and_is_refused(self):
        graph = _graph(4, [(0, 1, 0.5), (1, 2, 0.6), (2, 3, 0.8)])
        tree = FTree(graph, 0, sampler=_sampler(), alpha=ALPHA)
        tree.insert_edge(0, 1)
        graph.remove_vertex(3)
        graph.add_vertex(5)
        graph.add_edge(1, 5, 0.5)
        with pytest.raises(FTreeInvariantError, match="lost or reordered"):
            tree.insert_edge(1, 5)


def _path_tree(sampler: ComponentSampler) -> FTree:
    """0-1-2-3 selected out of K_5: one mono component, so only a probed
    cycle's own estimate can move a score between rounds."""
    tree = FTree(_complete(5), 0, sampler=sampler, alpha=ALPHA)
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        tree.insert_edge(u, v)
    return tree


def assert_plan_index_clean(tree: FTree) -> None:
    """Every reverse-index entry names a cached plan that read a live component."""
    live = {component.component_id for component in tree.components()}
    for component_id, edges in tree._readers.items():
        assert component_id in live and edges
        for edge in edges:
            assert component_id in tree._plans[edge].reads
    assert sum(map(len, tree._readers.values())) == sum(
        len(plan.reads) for plan in tree._plans.values()
    )
    assert not tree.selected_edges & set(tree._plans)


class TestPlanCache:
    """Each rule the per-candidate plan cache must keep."""

    def test_a_reused_sampled_plan_redraws_in_the_next_round(self):
        tree = _path_tree(_sampler(exact_threshold=0, memo=False))
        tree.begin_round(0)
        first = tree.probe(3, 0)
        tree.begin_round(1)
        second = tree.probe(3, 0)
        assert (tree.fresh_plans, tree.reused_plans) == (1, 1)
        assert second.flow != first.flow
        assert second == tree.clone().probe(3, 0)

    def test_a_foreign_sampler_never_writes_the_cached_estimate(self):
        tree = _path_tree(_sampler(exact_threshold=0, memo=False))
        # the coarse sampler evaluates the 4-cycle exactly, the tree's samples it
        coarse = ComponentSampler(n_samples=30, exact_threshold=10, seed=9)
        screened = tree.probe(3, 0, sampler=coarse)
        assert screened.lower == screened.upper
        full = tree.probe(3, 0)
        assert full.lower < full.upper and full.cost > 0
        assert full == tree.clone().probe(3, 0)
        assert tree.probe(3, 0, sampler=coarse) == screened
        assert tree.probe(3, 0) == full

    def test_an_evicted_memo_entry_is_priced_again(self):
        sampler = ComponentSampler(n_samples=64, exact_threshold=0, seed=5, memo=MemoCache(1))
        tree = _path_tree(sampler)
        tree.begin_round(0)
        first = tree.probe(3, 0)
        assert first.cost > 0
        assert tree.probe(3, 0).cost == 0  # memoized
        tree.probe(2, 0)  # another cycle's estimate evicts it
        cycle = [Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(3, 0)]
        assert sampler.estimation_cost(tree.graph, cycle, 0) == first.cost
        # re-estimated and priced against the live memo; the round's stream replays
        assert tree.probe(3, 0) == first
        assert tree.fresh_plans == 2

    def _bi_with_branches(self) -> FTree:
        """Q=0 with bi {1, 2, 3} (the 4-cycle 0-1-2-3), mono {4} below 3
        and the root mono {5, 6}; every component is evaluated exactly."""
        tree = FTree(_complete(8), 0, sampler=_sampler(exact_threshold=10), alpha=ALPHA)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (0, 5), (5, 6)]:
            tree.insert_edge(u, v)
        return tree

    def test_a_case_three_a_insertion_drops_the_plans_that_read_its_target(self):
        tree = self._bi_with_branches()
        reading_bi = [Edge(4, 1), Edge(4, 0), Edge(5, 1), Edge(0, 2)]
        elsewhere = Edge(6, 0)
        tree.begin_round(0)
        for edge in reading_bi + [elsewhere]:
            tree.probe(edge)
        assert tree.insert_edge(1, 3).case == "IIIa"
        assert set(tree._plans) == {elsewhere}
        tree.begin_round(1)
        for edge in reading_bi + [elsewhere]:
            assert tree.probe(edge) == tree.clone().probe(edge)
        assert (tree.fresh_plans, tree.reused_plans) == (2 * len(reading_bi) + 1, 1)
        tree.check_invariants()

    def test_a_leaf_below_a_merged_vertex_keeps_the_plans_but_moves_their_gain(self):
        tree = self._bi_with_branches()
        tree.begin_round(0)
        before = tree.probe(4, 1)  # merges the bi component, whose vertex 2 gains a leaf
        assert tree.insert_edge(2, 7).case == "IIb"
        tree.begin_round(1)
        after = tree.probe(4, 1)
        assert (tree.fresh_plans, tree.reused_plans) == (1, 1)
        assert after.flow != before.flow
        assert after == tree.clone().probe(4, 1)
        tree.check_invariants()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(insertion_runs())
def test_dropped_plans_leave_no_index_entry(run):
    graph, rounds, exact_threshold, memo = run
    tree = FTree(graph, 0, sampler=_sampler(exact_threshold, memo), alpha=ALPHA)
    for round_index, (pick, _) in enumerate(rounds):
        frontier = _frontier(tree)
        if not frontier:
            break
        tree.begin_round(round_index)
        for edge in frontier:
            tree.probe(edge)
        assert_plan_index_clean(tree)
        edge = frontier[pick % len(frontier)]
        tree.insert_edge(edge.u, edge.v)
        assert_plan_index_clean(tree)
    tree.check_invariants()
