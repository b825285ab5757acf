"""Tests for the batched multi-query evaluation service (`repro.service`).

The heart of the suite is the determinism contract pinned by the ISSUE:
batched (and cached) answers are **bit-for-bit identical** to the
corresponding single-query estimator outputs per ``(seed, backend,
shard plan)``.
"""

import pytest

import repro
from repro.graph.generators import erdos_renyi_graph
from repro.parallel.executor import ProcessExecutor, SerialExecutor
from repro.reachability.backends import BACKEND_NAMES
from repro.reachability.engine import SamplingEngine
from repro.service import (
    BatchEvaluator,
    QueryRequest,
    WorldCache,
    request_from_dict,
    request_to_dict,
    result_to_dict,
    validate_request,
)
from repro.types import Edge

N_SAMPLES = 150
SEED = 11


@pytest.fixture
def graph():
    return erdos_renyi_graph(50, average_degree=4, seed=4)


def small_component(graph):
    """A real edge of the graph plus its endpoints, as a component query."""
    edge = next(iter(graph.edges()))
    return edge.u, (edge.u, edge.v), (edge,)


class TestRequestValidation:
    def test_kind_must_be_known(self):
        with pytest.raises(ValueError):
            QueryRequest(kind="nope", source=0)

    def test_pair_needs_target(self):
        with pytest.raises(ValueError):
            QueryRequest(kind="pair_reachability", source=0)

    def test_component_needs_edges_and_vertices(self):
        with pytest.raises(ValueError):
            QueryRequest(kind="component_reachability", source=0, targets=(1,))
        with pytest.raises(ValueError):
            QueryRequest(kind="component_reachability", source=0, edges=(Edge(0, 1),))

    def test_flow_rejects_pair_fields(self):
        with pytest.raises(ValueError):
            QueryRequest(kind="expected_flow", source=0, target=1)

    def test_seed_must_be_a_plain_integer(self):
        with pytest.raises(TypeError):
            QueryRequest(kind="expected_flow", source=0, seed=None)
        with pytest.raises(TypeError):
            QueryRequest(kind="expected_flow", source=0, seed=True)

    def test_n_samples_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryRequest(kind="expected_flow", source=0, n_samples=0)

    def test_unknown_vertices_raise_like_single_query(self, graph):
        from repro.exceptions import VertexNotFoundError

        evaluator = BatchEvaluator(cache=0)
        with pytest.raises(VertexNotFoundError):
            evaluator.evaluate_one(
                graph, QueryRequest(kind="expected_flow", source="ghost", n_samples=10)
            )
        with pytest.raises(VertexNotFoundError):
            evaluator.evaluate_one(
                graph,
                QueryRequest(
                    kind="pair_reachability", source=0, target="ghost", n_samples=10
                ),
            )
        # a component's anchor and each listed vertex, as they arrive on the wire
        anchor, vertices, edges = small_component(graph)
        for wire in (
            {"kind": "component", "anchor": 999, "vertices": list(vertices), "edges": []},
            {"kind": "component", "anchor": anchor, "vertices": ["ghost", vertices[1]],
             "edges": [[edge.u, edge.v] for edge in edges]},
        ):
            request = request_from_dict(wire, graph=graph, default_n_samples=10)
            with pytest.raises(VertexNotFoundError):
                evaluator.evaluate_one(graph, request)

    def test_edge_restriction_must_name_graph_edges_once(self, graph):
        from repro.exceptions import DuplicateEdgeError, EdgeNotFoundError

        edge = next(iter(graph.edges()))
        non_neighbour = next(
            v for v in graph.vertices() if v != 0 and not graph.has_edge(0, v)
        )
        evaluator = BatchEvaluator(cache=0)
        for kind, fields in (
            ("expected_flow", {}),
            ("pair_reachability", {"target": edge.v}),
            ("component_reachability", {"targets": (edge.v,)}),
        ):
            source = 0 if kind == "expected_flow" else edge.u
            with pytest.raises(EdgeNotFoundError):
                evaluator.evaluate_one(graph, QueryRequest(
                    kind=kind, source=source, edges=((0, non_neighbour),),
                    n_samples=10, **fields,
                ))
            # an edge is one edge whichever way round it is listed
            for repeat in ((edge.u, edge.v), (edge.v, edge.u)):
                with pytest.raises(DuplicateEdgeError):
                    evaluator.evaluate_one(graph, QueryRequest(
                        kind=kind, source=source, edges=(edge, repeat),
                        n_samples=10, **fields,
                    ))

    def test_include_query_is_a_bool_on_flow_requests_only(self):
        with pytest.raises(TypeError, match="include_query"):
            QueryRequest(kind="expected_flow", source=0, include_query="false")
        with pytest.raises(ValueError, match="include_query"):
            QueryRequest(kind="pair_reachability", source=0, target=1, include_query=True)


class TestBitForBitEquality:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_expected_flow_matches_single_query(self, graph, backend):
        request = QueryRequest(
            kind="expected_flow", source=0, n_samples=N_SAMPLES, seed=SEED
        )
        evaluator = BatchEvaluator(cache=0)
        with repro.session(backend=backend):
            batched = evaluator.evaluate_one(graph, request)
        single = SamplingEngine(backend).expected_flow(graph, 0, n_samples=N_SAMPLES, seed=SEED)
        assert batched.flow == single

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_pair_reachability_matches_single_query(self, graph, backend):
        request = QueryRequest(
            kind="pair_reachability", source=0, target=7, n_samples=N_SAMPLES, seed=SEED
        )
        evaluator = BatchEvaluator(cache=0)
        with repro.session(backend=backend):
            batched = evaluator.evaluate_one(graph, request)
        single = SamplingEngine(backend).pair_reachability(
            graph, 0, 7, n_samples=N_SAMPLES, seed=SEED
        )
        assert batched.reachability == single

    def test_component_reachability_matches_single_query(self, graph):
        anchor, vertices, edges = small_component(graph)
        request = QueryRequest(
            kind="component_reachability",
            source=anchor,
            targets=vertices,
            edges=edges,
            n_samples=N_SAMPLES,
            seed=SEED,
        )
        batched = BatchEvaluator(cache=0).evaluate_one(graph, request)
        single = SamplingEngine().component_reachability(
            graph, anchor, list(vertices), list(edges), n_samples=N_SAMPLES, seed=SEED
        )
        assert batched.probabilities == single

    def test_isolated_pair_target_matches_single_query(self, graph):
        # a vertex with no incident edge inside the restriction: the
        # single-query path gives it an always-False extra column, the
        # pooled batch has no column at all — answers must still agree
        graph.add_vertex("isolated")
        request = QueryRequest(
            kind="pair_reachability",
            source=0,
            target="isolated",
            n_samples=N_SAMPLES,
            seed=SEED,
        )
        batched = BatchEvaluator(cache=0).evaluate_one(graph, request)
        single = SamplingEngine().pair_reachability(
            graph, 0, "isolated", n_samples=N_SAMPLES, seed=SEED
        )
        assert batched.reachability == single
        assert batched.reachability.probability == 0.0

    def test_source_equals_target_is_trivially_certain(self, graph):
        request = QueryRequest(
            kind="pair_reachability", source=3, target=3, n_samples=N_SAMPLES, seed=SEED
        )
        evaluator = BatchEvaluator(cache=WorldCache())
        result = evaluator.evaluate_one(graph, request)
        single = SamplingEngine().pair_reachability(graph, 3, 3, n_samples=N_SAMPLES, seed=SEED)
        assert result.reachability == single
        assert result.reachability.probability == 1.0
        assert evaluator.batches_sampled == 0  # no worlds were drawn

    def test_edge_restricted_flow_matches_single_query(self, graph):
        edges = tuple(graph.edges())[:10]
        request = QueryRequest(
            kind="expected_flow", source=0, edges=edges, n_samples=N_SAMPLES, seed=SEED
        )
        batched = BatchEvaluator(cache=0).evaluate_one(graph, request)
        single = SamplingEngine().expected_flow(
            graph, 0, n_samples=N_SAMPLES, seed=SEED, edges=list(edges)
        )
        assert batched.flow == single

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_sharded_plan_matches_single_query(self, graph, backend):
        request = QueryRequest(
            kind="expected_flow", source=0, n_samples=N_SAMPLES, seed=SEED
        )
        with repro.session(backend=backend, workers=SerialExecutor(), shard_size=32):
            batched = BatchEvaluator(cache=0).evaluate_one(graph, request)
            single = SamplingEngine().expected_flow(graph, 0, n_samples=N_SAMPLES, seed=SEED)
        unsharded = SamplingEngine(backend).expected_flow(
            graph, 0, n_samples=N_SAMPLES, seed=SEED
        )
        assert batched.flow == single
        assert batched.flow != unsharded  # the session's shard plan was used

    def test_cached_answers_stay_bit_for_bit(self, graph):
        evaluator = BatchEvaluator(cache=WorldCache())
        request = QueryRequest(
            kind="expected_flow", source=0, n_samples=N_SAMPLES, seed=SEED
        )
        first = evaluator.evaluate_one(graph, request)
        second = evaluator.evaluate_one(graph, request)
        single = SamplingEngine().expected_flow(graph, 0, n_samples=N_SAMPLES, seed=SEED)
        assert second.from_cache
        assert first.flow == second.flow == single


class TestBatchingAndGrouping:
    def test_mixed_batch_shares_one_world_batch(self, graph):
        anchor, vertices, edges = small_component(graph)
        requests = [
            QueryRequest(kind="expected_flow", source=0, n_samples=N_SAMPLES, seed=SEED),
            QueryRequest(
                kind="pair_reachability", source=0, target=9, n_samples=N_SAMPLES, seed=SEED
            ),
            QueryRequest(
                kind="pair_reachability", source=0, target=13, n_samples=N_SAMPLES, seed=SEED
            ),
            QueryRequest(
                kind="component_reachability",
                source=anchor,
                targets=vertices,
                edges=edges,
                n_samples=N_SAMPLES,
                seed=SEED,
            ),
        ]
        evaluator = BatchEvaluator(cache=0)
        plan = evaluator.plan(graph, requests)
        # the three full-graph source-0 requests share one group; the
        # edge-restricted component query needs its own batch
        assert len(plan.groups) == 2
        assert plan.amortization == 2.0
        results = evaluator.evaluate(graph, requests)
        assert evaluator.batches_sampled == 2
        # all requests of one group carry the same world digest
        assert results[0].world_digest == results[1].world_digest == results[2].world_digest
        assert results[3].world_digest != results[0].world_digest
        # and every answer equals its single-query counterpart
        assert results[0].flow == SamplingEngine().expected_flow(
            graph, 0, n_samples=N_SAMPLES, seed=SEED
        )
        assert results[1].reachability == SamplingEngine().pair_reachability(
            graph, 0, 9, n_samples=N_SAMPLES, seed=SEED
        )
        assert results[2].reachability == SamplingEngine().pair_reachability(
            graph, 0, 13, n_samples=N_SAMPLES, seed=SEED
        )

    def test_results_align_with_request_order(self, graph):
        requests = [
            QueryRequest(kind="pair_reachability", source=0, target=t,
                         n_samples=60, seed=SEED)
            for t in (9, 3, 3, 9)
        ] + [QueryRequest(kind="pair_reachability", source=3, target=3,
                          n_samples=60, seed=SEED)]
        results = BatchEvaluator(cache=0).evaluate(graph, requests)
        assert [r.request.target for r in results] == [9, 3, 3, 9, 3]
        assert results[4].reachability.probability == 1.0

    def test_different_seeds_do_not_group(self, graph):
        requests = [
            QueryRequest(kind="expected_flow", source=0, n_samples=60, seed=seed)
            for seed in (1, 2)
        ]
        plan = BatchEvaluator(cache=0).plan(graph, requests)
        assert len(plan.groups) == 2

    def test_warm_then_evaluate_serves_everything_from_cache(self, graph):
        evaluator = BatchEvaluator(cache=WorldCache())
        requests = [
            QueryRequest(kind="expected_flow", source=0, n_samples=60, seed=1),
            QueryRequest(kind="pair_reachability", source=0, target=5,
                         n_samples=60, seed=1),
            QueryRequest(kind="expected_flow", source=1, n_samples=60, seed=1),
        ]
        stats = evaluator.warm(graph, requests)
        assert stats["entries"] == 2.0
        results = evaluator.evaluate(graph, requests)
        assert all(result.from_cache for result in results)

    def test_warm_without_cache_is_a_noop(self, graph):
        evaluator = BatchEvaluator(cache=0)
        assert evaluator.warm(
            graph, [QueryRequest(kind="expected_flow", source=0, n_samples=60, seed=1)]
        ) == {}
        assert evaluator.batches_sampled == 0


class TestWireFormat:
    def test_request_round_trip(self, graph):
        anchor, vertices, edges = small_component(graph)
        requests = [
            QueryRequest(kind="expected_flow", source=0, n_samples=70, seed=3,
                         include_query=True),
            QueryRequest(kind="pair_reachability", source=0, target=5,
                         n_samples=70, seed=3),
            QueryRequest(kind="component_reachability", source=anchor,
                         targets=vertices, edges=edges, n_samples=70, seed=3),
        ]
        for request in requests:
            assert request_from_dict(request_to_dict(request), graph=graph) == request

    def test_kind_aliases(self):
        assert request_from_dict({"kind": "flow", "query": 0}).kind == "expected_flow"
        assert (
            request_from_dict({"kind": "pair", "source": 0, "target": 1}).kind
            == "pair_reachability"
        )

    def test_field_aliases_resolve(self):
        assert request_from_dict({"kind": "flow", "source": 3}).source == 3
        assert request_from_dict({"kind": "flow", "query": 0, "samples": 25}).n_samples == 25

    def test_conflicting_aliases_are_rejected(self):
        # a request naming both spellings is ambiguous, not a typo to
        # silently resolve one way or the other
        with pytest.raises(ValueError, match="alias"):
            request_from_dict({"kind": "flow", "query": 0, "source": 5})
        with pytest.raises(ValueError, match="alias"):
            request_from_dict({"kind": "flow", "query": 0, "n_samples": 10, "samples": 20})
        with pytest.raises(ValueError, match="alias"):
            request_from_dict(
                {"kind": "component", "anchor": 1, "source": 2,
                 "vertices": [2], "edges": [[1, 2]]}
            )

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ValueError):
            request_from_dict({"kind": "flow", "query": 0, "n_sample": 10})
        # the backend comes from the session the batch is evaluated in
        with pytest.raises(ValueError, match="backend"):
            request_from_dict({"kind": "flow", "query": 0, "backend": "csr"})

    def test_include_query_is_a_json_bool_on_flow_only(self):
        assert request_from_dict(
            {"kind": "flow", "query": 0, "include_query": True}
        ).include_query is True
        for value in ("false", "no", [0], 2, 1, None):
            with pytest.raises(TypeError, match="include_query"):
                request_from_dict({"kind": "flow", "query": 0, "include_query": value})
        for payload in (
            {"kind": "pair", "source": 0, "target": 1},
            {"kind": "component", "anchor": 0, "vertices": [1], "edges": []},
        ):
            with pytest.raises(ValueError, match="include_query"):
                request_from_dict({**payload, "include_query": False})

    def test_infinite_vertex_token_is_an_unknown_vertex(self, graph):
        from repro.exceptions import VertexNotFoundError

        request = request_from_dict({"kind": "flow", "query": float("inf")}, graph=graph)
        with pytest.raises(VertexNotFoundError):
            validate_request(graph, request)

    def test_defaults_apply(self):
        request = request_from_dict(
            {"kind": "flow", "query": 0}, default_n_samples=42, default_seed=9
        )
        assert request.n_samples == 42
        assert request.seed == 9

    def test_result_to_dict_shapes(self, graph):
        anchor, vertices, edges = small_component(graph)
        evaluator = BatchEvaluator(cache=0)
        flow = evaluator.evaluate_one(
            graph, QueryRequest(kind="expected_flow", source=0, n_samples=60, seed=1)
        )
        payload = result_to_dict(flow)
        assert payload["kind"] == "expected_flow"
        assert payload["expected_flow"] == flow.flow.expected_flow
        component = evaluator.evaluate_one(
            graph,
            QueryRequest(kind="component_reachability", source=anchor,
                         targets=vertices, edges=edges, n_samples=60, seed=1),
        )
        payload = result_to_dict(component)
        assert set(payload["probabilities"]) == {str(v) for v in vertices if v != anchor}


class TestLifecycle:
    def test_shared_executor_is_left_open(self, graph):
        request = QueryRequest(kind="expected_flow", source=0, n_samples=60, seed=1)
        executor = ProcessExecutor(2)
        try:
            with repro.session(workers=executor):
                with BatchEvaluator(cache=0) as evaluator:
                    evaluator.evaluate_one(graph, request)
                # the evaluator owns no executor: leaving its block
                # leaves the session's pool running
                assert not executor.closed
                evaluator.evaluate_one(graph, request)
        finally:
            executor.close()
