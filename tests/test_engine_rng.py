"""RNG-contract and registry tests for the sampling engine.

Statistical regression tests pinning the reproducibility contract after
the engine rewiring: the same seed must yield the identical
:class:`FlowEstimate` (flow, per-vertex reachability, variance) across
repeated runs for every backend, :class:`ComponentSampler` draws must
stay reproducible, and the backend registry must behave like the
selection registry it mirrors.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.exceptions import SampleSizeError, VertexNotFoundError
from repro.ftree.sampler import ComponentSampler
from repro.graph.generators import cycle_graph, erdos_renyi_graph
from repro.reachability.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    CSRSamplingBackend,
    NaiveSamplingBackend,
    get_default_backend,
    make_backend,
    register_backend,
)
from repro.reachability.backends import _FACTORIES
from repro.reachability.backends import csr as csr_module
from repro.reachability.engine import SamplingEngine
from repro.rng import ensure_rng
from repro.selection import make_selector


@pytest.fixture
def medium_graph():
    """A reproducible 30-vertex graph, large enough to exercise batching."""
    return erdos_renyi_graph(30, average_degree=4.0, seed=5)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
class TestSeedDeterminism:
    def test_flow_estimate_identical_across_runs(self, medium_graph, backend):
        first = SamplingEngine(backend).expected_flow(medium_graph, 0, n_samples=120, seed=42)
        second = SamplingEngine(backend).expected_flow(medium_graph, 0, n_samples=120, seed=42)
        assert first.expected_flow == second.expected_flow
        assert first.reachability == second.reachability
        assert first.variance == second.variance

    def test_pair_reachability_identical_across_runs(self, medium_graph, backend):
        first = SamplingEngine(backend).pair_reachability(
            medium_graph, 0, 7, n_samples=200, seed=3
        )
        second = SamplingEngine(backend).pair_reachability(
            medium_graph, 0, 7, n_samples=200, seed=3
        )
        assert first == second

    def test_component_reachability_identical_across_runs(self, medium_graph, backend):
        kwargs = dict(n_samples=150, seed=11)
        first = SamplingEngine(backend).component_reachability(
            medium_graph, 0, [1, 2, 3], medium_graph.edge_list(), **kwargs
        )
        second = SamplingEngine(backend).component_reachability(
            medium_graph, 0, [1, 2, 3], medium_graph.edge_list(), **kwargs
        )
        assert first == second

    def test_generator_seed_streams_are_reproducible(self, medium_graph, backend):
        """Two identically seeded generators replay the same estimate sequence."""
        engine = SamplingEngine(backend)
        left, right = ensure_rng(8), ensure_rng(8)
        for _ in range(3):
            assert (
                engine.expected_flow(medium_graph, 0, n_samples=60, seed=left).expected_flow
                == engine.expected_flow(medium_graph, 0, n_samples=60, seed=right).expected_flow
            )

    def test_generator_seed_advances_the_stream(self, medium_graph, backend):
        """Consecutive estimates drawn from one generator use fresh worlds."""
        engine = SamplingEngine(backend)
        rng = ensure_rng(8)
        first = engine.expected_flow(medium_graph, 0, n_samples=60, seed=rng)
        second = engine.expected_flow(medium_graph, 0, n_samples=60, seed=rng)
        assert first.reachability != second.reachability


class TestComponentSamplerRewiring:
    def test_sampler_draws_reproducible_per_seed(self):
        graph = cycle_graph(9, probability=0.5)
        vertices = [v for v in graph.vertices() if v != 0]
        estimates = [
            ComponentSampler(n_samples=400, exact_threshold=0, seed=21).reachability(
                graph, 0, vertices, graph.edge_list()
            )
            for _ in range(2)
        ]
        assert estimates[0].probabilities == estimates[1].probabilities
        assert not estimates[0].exact

    def test_sampler_backends_bitwise_equal_per_seed(self):
        graph = cycle_graph(9, probability=0.5)
        vertices = [v for v in graph.vertices() if v != 0]
        per_backend = []
        for backend in BACKEND_NAMES:
            sampler = ComponentSampler(n_samples=400, exact_threshold=0, seed=21)
            with repro.session(backend=backend):
                per_backend.append(sampler.reachability(graph, 0, vertices, graph.edge_list()))
        reference = per_backend[0].probabilities
        for estimate in per_backend[1:]:
            assert estimate.probabilities == reference

    def test_default_backend_is_registry_default(self):
        sampler = ComponentSampler(n_samples=10)
        assert sampler._engine.backend.name == DEFAULT_BACKEND


class TestHitFrequencies:
    def test_bulk_matches_per_vertex_hit_frequency(self, medium_graph):
        batch = SamplingEngine().sample_worlds(medium_graph, 0, 200, seed=6)
        vertices = list(medium_graph.vertices())
        bulk = batch.hit_frequencies(vertices)
        for vertex, frequency in zip(vertices, bulk):
            assert float(frequency) == batch.hit_frequency(vertex)

    def test_unknown_vertices_report_zero_in_input_order(self, medium_graph):
        batch = SamplingEngine().sample_worlds(medium_graph, 0, 50, seed=6)
        bulk = batch.hit_frequencies(["missing", 0, "also-missing"])
        assert bulk[0] == 0.0
        assert bulk[1] == 1.0  # the source reaches itself in every world
        assert bulk[2] == 0.0


class TestEngineValidation:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_non_positive_samples_rejected(self, medium_graph, backend):
        with pytest.raises(SampleSizeError):
            SamplingEngine(backend).expected_flow(medium_graph, 0, n_samples=0)

    def test_unknown_query_rejected(self, medium_graph):
        with pytest.raises(VertexNotFoundError):
            SamplingEngine().expected_flow(medium_graph, "missing", n_samples=10)

    def test_empty_edge_restriction_reaches_only_source(self, medium_graph):
        batch = SamplingEngine().sample_worlds(medium_graph, 0, 5, seed=0, edges=[])
        assert batch.problem.n_vertices == 1
        assert batch.reached.all()


class TestSampleCounts:
    """Sample counts are refused, never truncated (2.9 must not run 2 worlds)."""

    BAD_COUNTS = (2.9, 2.5, 2.0, True, np.float64(3.0), "3", "auto")

    @pytest.mark.parametrize("bad", BAD_COUNTS)
    def test_engine_draws_and_estimators_refuse(self, medium_graph, bad):
        engine = SamplingEngine()
        calls = [
            lambda: engine.sample_worlds(medium_graph, 0, bad, seed=1),
            lambda: engine.sample_flips(medium_graph, 0, bad, seed=1),
            lambda: engine.component_reachability(
                medium_graph, 0, [1, 2], list(medium_graph.edges())[:3], n_samples=bad
            ),
            lambda: engine.expected_flow(medium_graph, 0, n_samples=bad, seed=1),
            lambda: engine.pair_reachability(medium_graph, 0, 3, n_samples=bad, seed=1),
            lambda: engine.pair_reachability(medium_graph, 0, 0, n_samples=bad, seed=1),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="n_samples"):
                call()

    @pytest.mark.parametrize("bad", BAD_COUNTS)
    def test_component_sampler_and_selector_refuse(self, medium_graph, bad):
        with pytest.raises(TypeError, match="n_samples"):
            ComponentSampler(n_samples=bad)
        with pytest.raises(TypeError, match="n_samples"):
            make_selector("FT", n_samples=bad, seed=1).select(medium_graph, 0, 2)

    def test_non_positive_counts_are_sample_size_errors(self, medium_graph):
        for bad in (0, -3, np.int64(0)):
            with pytest.raises(SampleSizeError):
                SamplingEngine().component_reachability(medium_graph, 0, [1], [], n_samples=bad)
            with pytest.raises(SampleSizeError):
                ComponentSampler(n_samples=bad)

    def test_numpy_integers_are_accepted(self, medium_graph):
        estimate = SamplingEngine().expected_flow(medium_graph, 0, n_samples=np.int32(7), seed=1)
        assert estimate.n_samples == 7
        assert ComponentSampler(n_samples=np.int64(9)).n_samples == 9


class TestBackendRegistry:
    def test_builtin_names(self):
        assert set(BACKEND_NAMES) - {"csr-numba"} == {"naive", "csr"}
        assert DEFAULT_BACKEND == "csr"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown sampling backend"):
            make_backend("warp-drive")

    def test_instance_passes_through(self):
        backend = CSRSamplingBackend()
        assert make_backend(backend) is backend

    def test_instance_without_propagate_reachability_rejected(self):
        class _SampleOnlyBackend:
            name = "sample-only"

            def sample_reachability(self, problem, n_samples, rng):
                return NaiveSamplingBackend().sample_reachability(problem, n_samples, rng)

        with pytest.raises(TypeError, match="cannot interpret"):
            make_backend(_SampleOnlyBackend())

    def test_none_resolves_to_default(self):
        assert make_backend(None).name == DEFAULT_BACKEND

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("naive", NaiveSamplingBackend)

    def test_decorator_registration_roundtrip(self):
        @register_backend("test-slow-bfs")
        class _TestBackend(NaiveSamplingBackend):
            name = "test-slow-bfs"

        try:
            assert make_backend("test-slow-bfs").name == "test-slow-bfs"
        finally:
            _FACTORIES.pop("test-slow-bfs", None)

    def test_session_scope_redirects_none(self):
        with repro.session(backend="naive"):
            assert get_default_backend() == "naive"
            assert make_backend(None).name == "naive"
            assert ComponentSampler(n_samples=10)._engine.backend.name == "naive"
        assert get_default_backend() == DEFAULT_BACKEND


class TestChunkedDrawing:
    def test_chunked_blocks_preserve_the_stream(self, medium_graph, monkeypatch):
        """Forcing many tiny chunks must not change the sampled worlds."""
        whole = SamplingEngine("csr").expected_flow(medium_graph, 0, n_samples=90, seed=13)
        monkeypatch.setattr(csr_module, "_MAX_BLOCK_ELEMENTS", 1)
        chunked = SamplingEngine("csr").expected_flow(medium_graph, 0, n_samples=90, seed=13)
        naive = SamplingEngine("naive").expected_flow(medium_graph, 0, n_samples=90, seed=13)
        assert chunked.expected_flow == whole.expected_flow == naive.expected_flow
        assert chunked.reachability == whole.reachability == naive.reachability
        assert chunked.variance == whole.variance


class TestCustomBackendThroughEstimators:
    def test_backend_instance_accepted_by_estimator(self, medium_graph):
        by_name = SamplingEngine("csr").expected_flow(medium_graph, 0, n_samples=80, seed=4)
        by_instance = SamplingEngine(CSRSamplingBackend()).expected_flow(
            medium_graph, 0, n_samples=80, seed=4
        )
        assert by_name.expected_flow == by_instance.expected_flow
        assert by_name.reachability == by_instance.reachability
