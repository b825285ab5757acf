"""Contextvar scoping, lifecycle, and legacy-equivalence of ``repro.runtime``.

Three contracts are pinned here:

1. **Scoping** — ``with repro.session(...)`` nests field-by-field and
   restores the enclosing configuration exactly; sessions are invisible
   to other threads; outside every session the built-in defaults apply.
2. **Lifecycle** — a session owns the executor/cache it builds from
   integer specs and releases them at close/context-exit (extending the
   PR-4 leak regression tests); shared instances are left alone; a
   closed session refuses further use.
3. **Equivalence** — for a fixed ``(seed, backend, shard plan)``, an
   estimator, selector, service or yardstick call run inside a session
   reproduces the exact bits of the same call with that backend and
   shard plan pinned directly, on every backend, sharded and unsharded;
   ``Session.expected_flow`` is the engine call itself.
"""

import threading

import pytest

import repro
from repro.graph.generators import erdos_renyi_graph
from repro.parallel.executor import ProcessExecutor, SerialExecutor, get_default_executor
from repro.parallel.plan import DEFAULT_SHARD_SIZE, get_default_shard_size
from repro.reachability.backends import BACKEND_NAMES, DEFAULT_BACKEND, get_default_backend
from repro.reachability.engine import SamplingEngine
from repro.runtime import RuntimeConfig, Session, current_config, current_session
from repro.selection import make_selector
from repro.service import BatchEvaluator, QueryRequest, WorldCache
from repro.service.cache import get_default_world_cache


@pytest.fixture
def graph():
    return erdos_renyi_graph(40, average_degree=4, seed=3)


class TestScoping:
    def test_session_pins_knobs_and_restores_on_exit(self):
        assert get_default_backend() == DEFAULT_BACKEND
        with repro.session(backend="naive", shard_size=64):
            assert get_default_backend() == "naive"
            assert get_default_shard_size() == 64
        assert get_default_backend() == DEFAULT_BACKEND
        assert get_default_shard_size() == DEFAULT_SHARD_SIZE

    def test_nested_sessions_merge_field_by_field(self):
        with repro.session(backend="naive", shard_size=64):
            with repro.session(shard_size=128):
                # inner pins shard_size only; backend inherits from outer
                assert get_default_backend() == "naive"
                assert get_default_shard_size() == 128
            assert get_default_shard_size() == 64
            with repro.session(backend="csr"):
                assert get_default_backend() == "csr"
                assert get_default_shard_size() == 64
            assert get_default_backend() == "naive"

    def test_current_session_tracks_the_innermost_activation(self):
        assert current_session() is None
        with repro.session() as outer:
            assert current_session() is outer
            with repro.session() as inner:
                assert current_session() is inner
            assert current_session() is outer
        assert current_session() is None

    def test_sessions_are_invisible_to_other_threads(self):
        seen = {}

        def worker():
            seen["backend"] = get_default_backend()
            seen["session"] = current_session()

        with repro.session(backend="naive"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["backend"] == DEFAULT_BACKEND
        assert seen["session"] is None

    def test_methods_activate_the_session_without_with(self, graph):
        session = Session(RuntimeConfig(backend="naive"))
        try:
            estimate = session.expected_flow(graph, 0, n_samples=50, seed=9)
            assert estimate.n_samples == 50
            legacy = SamplingEngine("naive").expected_flow(graph, 0, n_samples=50, seed=9)
            assert estimate.expected_flow == legacy.expected_flow
            # ...and deactivate afterwards
            assert current_session() is None
            assert get_default_backend() == DEFAULT_BACKEND
        finally:
            session.close()

    def test_current_config_resolves_the_whole_chain(self):
        with repro.session(shard_size=96):
            with repro.session(backend="naive"):
                resolved = current_config()
        assert resolved.backend == "naive"
        assert resolved.shard_size == 96  # inherited from the outer session
        assert resolved.as_dict()["backend"] == "naive"
        outside = current_config()
        assert outside.backend == DEFAULT_BACKEND
        assert outside.shard_size == DEFAULT_SHARD_SIZE
        assert outside.workers is None  # unsharded without a session

    def test_current_config_snapshot_has_no_side_effects(self, monkeypatch):
        import repro.service.cache as cache_module

        monkeypatch.setattr(cache_module, "_DEFAULT_WORLD_CACHE", None)
        assert current_config().world_cache is None  # the shared default
        # a read-only snapshot must not instantiate the lazy default cache
        assert cache_module._DEFAULT_WORLD_CACHE is None

    def test_current_config_reports_a_disabled_cache_as_zero(self):
        with repro.session(world_cache=0):
            assert current_config().world_cache == 0

    def test_current_config_reports_profiling(self):
        from repro.telemetry.profile import ProfilingTelemetry

        tel = ProfilingTelemetry()
        with repro.session(telemetry=tel):
            resolved = current_config()
        tel.close()  # a passed pipeline belongs to its creator
        assert resolved.telemetry.profiling
        assert "profile" not in resolved.as_dict()
        with repro.session(telemetry=True):
            assert not current_config().telemetry.profiling

    def test_workers_zero_pins_unsharded_inside_sharded_scope(self, graph):
        unsharded = SamplingEngine().expected_flow(graph, 0, n_samples=64, seed=6)
        with repro.session(workers=1, shard_size=32):
            sharded = SamplingEngine().expected_flow(graph, 0, n_samples=64, seed=6)
            with repro.session(workers=0):
                pinned = SamplingEngine().expected_flow(graph, 0, n_samples=64, seed=6)
                assert get_default_executor() is None
        assert pinned.expected_flow == unsharded.expected_flow
        assert sharded.expected_flow != unsharded.expected_flow

    def test_shared_session_entered_from_two_threads(self):
        # one Session object entered concurrently by several threads:
        # each thread's activation is context-local, exits never
        # cross-reset tokens, and the owned pool is only released after
        # the last exit
        session = repro.session(workers=2)
        errors = []
        barrier = threading.Barrier(2)

        def worker():
            try:
                with session:
                    barrier.wait(timeout=5)  # both threads inside at once
                    assert current_session() is session
                    barrier.wait(timeout=5)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert session.closed
        assert session.executor.closed

    def test_activate_scopes_without_taking_the_lifecycle(self):
        # the sharing-safe spelling for long-lived sessions: sequential
        # (non-overlapping) scopes must NOT shut the session down — only
        # the owner's explicit close() does
        session = repro.session(workers=2, backend="naive")
        try:
            for _ in range(2):
                with session.activate():
                    assert current_session() is session
                    assert get_default_backend() == "naive"
                assert not session.closed
        finally:
            session.close()
        assert session.executor.closed

    def test_exit_in_foreign_context_is_rejected(self):
        # a session entered in one thread cannot be exited from another:
        # the exit must fail loudly instead of resetting a foreign token
        session = repro.session()
        session.__enter__()
        errors = []

        def foreign_exit():
            try:
                session.__exit__(None, None, None)
            except RuntimeError as error:
                errors.append(str(error))

        thread = threading.Thread(target=foreign_exit)
        thread.start()
        thread.join()
        assert errors and "not active" in errors[0]
        session.__exit__(None, None, None)  # the owning context exits fine
        assert session.closed

class TestConfigValidation:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown sampling backend"):
            RuntimeConfig(backend="warp-drive")

    def test_rejects_negative_workers_and_nonpositive_shard_size(self):
        with pytest.raises(ValueError):
            RuntimeConfig(workers=-1)
        with pytest.raises(ValueError):
            RuntimeConfig(shard_size=0)
        # fractional, bool and string sizes are refused, never truncated
        for bad in (2.9, 2.0, True, "32"):
            with pytest.raises(TypeError, match="shard_size"):
                RuntimeConfig(shard_size=bad)

    def test_rejects_bad_seeds(self, graph):
        # a seed is an argument of the call, never session state: the
        # config has no seed field, and the call refuses a bad seed
        with pytest.raises(TypeError, match="seed"):
            RuntimeConfig(seed=0)
        with repro.session() as session:
            with pytest.raises(ValueError):
                session.expected_flow(graph, 0, n_samples=10, seed=-1)
            for bad in ("abc", 1.5):
                with pytest.raises(TypeError):
                    session.expected_flow(graph, 0, n_samples=10, seed=bad)

    def test_rejects_string_workers_spec(self):
        with pytest.raises(TypeError, match="workers/executor spec"):
            RuntimeConfig(workers="remote:h:1")

    def test_rejects_bad_sample_specs(self, graph):
        # sample budgets belong to the call too: no config field, and the
        # call refuses a bad one
        for field in ("n_samples", "adaptive"):
            with pytest.raises(TypeError, match=field):
                RuntimeConfig(**{field: None})
        with repro.session() as session:
            for bad in ("sometimes", "auto"):
                with pytest.raises(TypeError, match="n_samples"):
                    session.expected_flow(graph, 0, n_samples=bad)
            with pytest.raises(ValueError):
                session.expected_flow(graph, 0, n_samples=0)

    def test_rejects_negative_cache_bound(self):
        with pytest.raises(ValueError):
            RuntimeConfig(world_cache=-1)

    def test_replace_revalidates(self):
        config = RuntimeConfig(backend="naive")
        with pytest.raises(ValueError):
            config.replace(backend="warp-drive")

    def test_select_rejects_auto_samples(self, graph):
        # "auto" is a non-int like any other
        with repro.session():
            with pytest.raises(TypeError, match="auto"):
                make_selector("FT+M", n_samples="auto").select(graph, 0, 2)


class TestLifecycle:
    def test_owned_executor_is_closed_on_context_exit(self):
        with repro.session(workers=2) as session:
            executor = session.executor
            assert isinstance(executor, ProcessExecutor)
            assert get_default_executor() is executor
        assert session.closed
        assert executor.closed

    def test_shared_executor_instance_is_left_open(self):
        shared = ProcessExecutor(2)
        try:
            with repro.session(workers=shared):
                assert get_default_executor() is shared
            assert not shared.closed
        finally:
            shared.close()

    def test_owned_private_cache_is_dropped_at_close(self, graph):
        with repro.session(world_cache=4) as session:
            cache = session.world_cache
            assert isinstance(cache, WorldCache)
            BatchEvaluator().evaluate(
                graph, [QueryRequest(kind="expected_flow", source=0, n_samples=40, seed=2)]
            )
            assert len(cache) == 1
        assert len(cache) == 0  # entries dropped with the session

    def test_shared_cache_instance_is_left_alone(self, graph):
        shared = WorldCache(max_entries=4)
        with repro.session(world_cache=shared):
            BatchEvaluator().evaluate(
                graph, [QueryRequest(kind="expected_flow", source=0, n_samples=40, seed=2)]
            )
        assert len(shared) == 1  # survives the session

    def test_disabled_cache_scope(self, graph):
        with repro.session(world_cache=0):
            assert get_default_world_cache() is None
            evaluator = BatchEvaluator()
            results = evaluator.evaluate(
                graph,
                [QueryRequest(kind="expected_flow", source=0, n_samples=40, seed=2)],
            )
            assert len(results) == 1
            assert evaluator.cache_stats() == {}

    def test_concurrent_batch_calls_share_one_evaluator(self, graph):
        # the shared-session service pattern: one evaluator, called from
        # several threads that each activate the same session, keeps the
        # session cache consistent
        session = repro.session(world_cache=8)
        evaluator = BatchEvaluator()
        errors = []
        barrier = threading.Barrier(4)

        def worker(seed):
            try:
                barrier.wait(timeout=5)
                with session.activate():
                    evaluator.evaluate(
                        graph,
                        [QueryRequest(kind="expected_flow", source=0,
                                      n_samples=30, seed=seed)],
                    )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert evaluator.batches_sampled == 4
        assert len(session.world_cache) == 4  # one entry per distinct seed
        session.close()

    def test_closed_session_refuses_use(self, graph):
        session = repro.session()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.expected_flow(graph, 0, n_samples=10)
        with pytest.raises(RuntimeError, match="closed"):
            with session:
                pass

    def test_reentrant_with_blocks_close_only_at_the_outermost_exit(self):
        session = repro.session(workers=2)
        with session:
            with session:
                assert current_session() is session
            assert not session.closed  # inner exit must not close
        assert session.closed
        assert session.executor.closed


class _RecordingExecutor(SerialExecutor):
    """The serial reference executor, keeping every shard task it ran."""

    def __init__(self):
        super().__init__()
        self.tasks = []

    def map_shards(self, tasks):
        self.tasks.extend(tasks)
        return super().map_shards(tasks)


class TestObjectsFollowTheSession:
    """Objects built outside a session sample with the session they run in.

    Each object is built with no session active, then run inside one that
    names the naive backend, a serial executor and 32-world shards: every
    reachability draw and propagation must go through the naive backend
    (the csr one is made to fail) and every shard must follow the plan.
    """

    SHARD_SIZE = 32

    @pytest.fixture
    def k5(self):
        from repro.graph.generators import complete_graph

        return complete_graph(5, probability=0.5)

    @pytest.fixture
    def naive_calls(self, monkeypatch):
        from repro.reachability.backends import CSRSamplingBackend, NaiveSamplingBackend

        calls = []
        for name in ("sample_reachability", "propagate_reachability"):
            original = getattr(NaiveSamplingBackend, name)

            def counting(self, *args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            def refuse(self, *args, _name=name, **kwargs):
                raise AssertionError(f"csr {_name} ran inside a naive session")

            monkeypatch.setattr(NaiveSamplingBackend, name, counting)
            monkeypatch.setattr(CSRSamplingBackend, name, refuse)
        return calls

    def _run(self, work, naive_calls):
        executor = _RecordingExecutor()
        with repro.session(backend="naive", workers=executor, shard_size=self.SHARD_SIZE):
            work()
        assert naive_calls, "no naive backend call"
        assert executor.tasks, "nothing was sharded"
        sizes = [task.n_samples for task in executor.tasks]
        assert max(sizes) == self.SHARD_SIZE
        for task in executor.tasks:
            assert task.backend is None or task.backend.name == "naive"

    @pytest.mark.parametrize("algorithm", ["FT", "FT+M"])
    def test_ftree_selector(self, k5, naive_calls, algorithm):
        selector = make_selector(algorithm, n_samples=64, exact_threshold=0, seed=1)
        self._run(lambda: selector.select(k5, 0, 6), naive_calls)

    @pytest.mark.parametrize("include_query", [True, False])
    def test_naive_selector(self, k5, naive_calls, include_query):
        selector = make_selector("Naive", n_samples=64, seed=1, include_query=include_query)
        self._run(lambda: selector.select(k5, 0, 4), naive_calls)

    def test_random_selector(self, k5, naive_calls):
        selector = make_selector("Random", n_samples=64, exact_threshold=0, seed=1)
        self._run(lambda: selector.select(k5, 0, k5.n_edges), naive_calls)

    def test_component_sampler(self, k5, naive_calls):
        from repro.ftree.sampler import ComponentSampler

        sampler = ComponentSampler(n_samples=64, exact_threshold=0, seed=1)
        vertices = [v for v in k5.vertices() if v != 0]
        self._run(lambda: sampler.reachability(k5, 0, vertices, k5.edge_list()), naive_calls)

    def test_evaluation_context(self, k5, naive_calls):
        from repro.reachability.context import EvaluationContext

        context = EvaluationContext(k5, 0, n_samples=64, seed=1)
        edges = k5.edge_list()
        self._run(lambda: context.score_candidates(edges[:2], edges[2:]), naive_calls)

    def test_batch_evaluator(self, k5, naive_calls):
        evaluator = BatchEvaluator(cache=0)
        request = QueryRequest(kind="expected_flow", source=0, n_samples=64, seed=1)
        self._run(lambda: evaluator.evaluate(k5, [request]), naive_calls)


ALL_BACKENDS = list(BACKEND_NAMES)


class TestLegacyEquivalence:
    """Calls inside a session reproduce the pinned call paths bit for bit."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_expected_flow_unsharded(self, graph, backend):
        legacy = SamplingEngine(backend).expected_flow(graph, 0, n_samples=80, seed=7)
        with repro.session(backend=backend) as session:
            scoped = session.expected_flow(graph, 0, n_samples=80, seed=7)
        assert scoped.expected_flow == legacy.expected_flow
        assert scoped.variance == legacy.variance
        assert scoped.reachability == legacy.reachability

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_expected_flow_sharded(self, graph, backend):
        with repro.session(backend=backend, workers=SerialExecutor(), shard_size=32):
            legacy = SamplingEngine().expected_flow(graph, 0, n_samples=80, seed=7)
        with repro.session(backend=backend, workers=1, shard_size=32) as session:
            scoped = session.expected_flow(graph, 0, n_samples=80, seed=7)
        assert scoped.expected_flow == legacy.expected_flow
        assert scoped.reachability == legacy.reachability

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_pair_reachability(self, graph, backend):
        legacy = SamplingEngine(backend).pair_reachability(graph, 0, 7, n_samples=80, seed=5)
        with repro.session(backend=backend):
            scoped = SamplingEngine().pair_reachability(graph, 0, 7, n_samples=80, seed=5)
        assert scoped.probability == legacy.probability
        assert scoped.successes == legacy.successes

    def test_component_reachability_follows_the_backend(self, graph):
        vertices, edges = list(range(1, 12)), graph.edge_list()
        for backend in ALL_BACKENDS:
            legacy = SamplingEngine(backend).component_reachability(
                graph, 0, vertices, edges, n_samples=64, seed=9
            )
            with repro.session(backend=backend):
                scoped = SamplingEngine().component_reachability(
                    graph, 0, vertices, edges, n_samples=64, seed=9
                )
            assert scoped == legacy, backend
            # the seed is what pins the answer: another seed draws other worlds
            other_seed = SamplingEngine(backend).component_reachability(
                graph, 0, vertices, edges, n_samples=64, seed=10
            )
            assert scoped != other_seed, backend

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("algorithm", ["Naive", "FT+M"])
    def test_selection(self, graph, backend, algorithm):
        # built outside the session and run inside it, against one built
        # and run inside
        selector = make_selector(algorithm, n_samples=60, seed=11)
        with repro.session(backend=backend):
            legacy = selector.select(graph, 0, 5)
            scoped = make_selector(algorithm, n_samples=60, seed=11).select(graph, 0, 5)
        assert scoped.selected_edges == legacy.selected_edges
        assert scoped.expected_flow == legacy.expected_flow

    def test_selection_sharded(self, graph):
        selector = make_selector("FT+M", n_samples=60, seed=11)
        with repro.session(workers=SerialExecutor(), shard_size=32):
            legacy = selector.select(graph, 0, 4)
        with repro.session(workers=1, shard_size=32):
            scoped = make_selector("FT+M", n_samples=60, seed=11).select(graph, 0, 4)
        assert scoped.selected_edges == legacy.selected_edges
        assert scoped.expected_flow == legacy.expected_flow

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_batch_matches_legacy_service_path(self, graph, backend):
        requests = [
            QueryRequest(kind="expected_flow", source=0, n_samples=60, seed=3),
            QueryRequest(kind="pair_reachability", source=0, target=9,
                         n_samples=60, seed=3),
        ]
        with repro.session(backend=backend), BatchEvaluator(cache=4) as evaluator:
            legacy = evaluator.evaluate(graph, requests)
        with repro.session(backend=backend, world_cache=4):
            scoped = BatchEvaluator().evaluate(graph, requests)
        assert scoped[0].flow.expected_flow == legacy[0].flow.expected_flow
        assert scoped[0].flow.reachability == legacy[0].flow.reachability
        assert scoped[1].reachability.probability == legacy[1].reachability.probability

    def test_evaluate_flow_matches_harness_yardstick(self, graph):
        from repro.experiments.harness import evaluate_flow

        edges = list(graph.edges())[:6]
        legacy = evaluate_flow(graph, edges, 0, n_samples=200, seed=21)
        with repro.session(backend="naive"):
            scoped = evaluate_flow(graph, edges, 0, n_samples=200, seed=21)
        assert scoped == legacy

    def test_close_defers_release_while_a_call_is_in_flight(self, graph):
        # the shared-session service pattern: the owner closing must not
        # pull resources out from under a request thread mid-call
        session = repro.session(workers=1)
        started = threading.Event()
        outcome = {}

        class _SignalingExecutor(SerialExecutor):
            def map_shards(self, tasks):
                started.set()
                return super().map_shards(tasks)

        session._executor = _SignalingExecutor()

        def request():
            try:
                estimate = session.expected_flow(graph, 0, n_samples=4000, seed=3)
                outcome["flow"] = estimate.expected_flow
            except Exception as error:  # pragma: no cover - failure path
                outcome["error"] = error

        thread = threading.Thread(target=request)
        thread.start()
        started.wait(timeout=5)
        session.close()  # marked closed immediately...
        assert session.closed
        thread.join(timeout=10)
        assert "error" not in outcome  # ...but the in-flight call completed
        assert outcome["flow"] > 0
        with pytest.raises(RuntimeError, match="closed"):
            session.expected_flow(graph, 0, n_samples=10)  # new work is rejected

    def test_close_drains_an_in_flight_batch_call(self, graph):
        # the server pattern: a batch evaluated under session.activate()
        # must complete even when close() flips the closed flag mid-call
        session = repro.session(world_cache=4)
        evaluator = BatchEvaluator()
        admitted = threading.Event()
        proceed = threading.Event()
        outcome = {}
        original_use = session._use

        def gated_use():
            manager = original_use()

            class _Gated:
                def __enter__(inner):
                    result = manager.__enter__()
                    admitted.set()
                    proceed.wait(timeout=5)  # hold the call in flight
                    return result

                def __exit__(inner, *exc_info):
                    return manager.__exit__(*exc_info)

            return _Gated()

        session._use = gated_use

        def request():
            try:
                with session.activate():
                    outcome["results"] = evaluator.evaluate(
                        graph,
                        [QueryRequest(kind="expected_flow", source=0,
                                      n_samples=30, seed=1)],
                    )
            except Exception as error:  # pragma: no cover - failure path
                outcome["error"] = error

        thread = threading.Thread(target=request)
        thread.start()
        admitted.wait(timeout=5)
        session.close()  # while the batch call is admitted but unfinished
        proceed.set()
        thread.join(timeout=10)
        assert "error" not in outcome, outcome.get("error")
        assert outcome["results"][0].flow.expected_flow > 0
        assert len(session.world_cache) == 0  # released once the call drained
        with pytest.raises(RuntimeError, match="closed"):
            with session.activate():
                pass
