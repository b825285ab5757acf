"""The distributed tier: wire codecs, registration handshake, executor.

The load-bearing assertions are bit-for-bit: everything a shard result
is a function of must round-trip the wire exactly (arrays, seeds,
problems), and a loopback fleet must reproduce
:class:`~repro.parallel.SerialExecutor`'s arrays byte for byte on both
the reachability and the raw-flip paths.  Fault injection lives in
``test_distributed_robustness.py``.
"""

import numpy as np
import pytest

import repro
from repro.distributed import RemoteExecutor, local_fleet
from repro.distributed import wire
from repro.exceptions import (
    DistributedError,
    ExecutorError,
    NoWorkersError,
    WireFormatError,
)
from repro.parallel import SerialExecutor, ShardTask, make_executor, parse_remote_spec
from repro.reachability.backends import make_backend
from repro.reachability.backends.base import SamplingProblem
from repro.rng import split_seed_sequences
from repro.types import Edge


def _problem(n_edges: int = 6) -> SamplingProblem:
    edges = [(Edge(i, i + 1), 0.25 + 0.5 * (i % 2)) for i in range(n_edges)]
    return SamplingProblem.from_edges(edges, source=0)


def _tasks(n_shards: int, seed: int = 3, n_samples: int = 16, backend=None):
    problem = _problem()
    return [
        ShardTask(problem=problem, n_samples=n_samples, seed=child, backend=backend)
        for child in split_seed_sequences(seed, n_shards)
    ]


@pytest.fixture(scope="module")
def fleet():
    """One two-worker loopback fleet shared by the module's fast tests."""
    with local_fleet(2) as running:
        yield running


class TestWireCodecs:
    @pytest.mark.parametrize(
        "array",
        [
            np.zeros((0, 4), dtype=bool),
            np.random.default_rng(0).random((7, 5)) < 0.4,
            np.arange(12, dtype=np.int64).reshape(3, 4),
            np.linspace(0.0, 1.0, 9),
        ],
        ids=["empty-bool", "bool-matrix", "int64", "float64"],
    )
    def test_array_roundtrip_is_exact(self, array):
        decoded = wire.decode_array(wire.encode_array(array))
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        assert np.array_equal(decoded, array)

    def test_array_payload_garbage_is_typed(self):
        with pytest.raises(WireFormatError):
            wire.decode_array("not base64!!")

    @pytest.mark.parametrize("entropy", [7, None, 2**80 + 17])
    def test_seed_sequence_roundtrip_reproduces_stream(self, entropy):
        seed = np.random.SeedSequence(entropy).spawn(3)[2]
        decoded = wire.decode_seed_sequence(wire.encode_seed_sequence(seed))
        ours = np.random.default_rng(seed).random(16)
        theirs = np.random.default_rng(decoded).random(16)
        assert np.array_equal(ours, theirs)

    def test_problem_roundtrip_and_stable_digest(self):
        problem = _problem()
        decoded = wire.decode_problem(wire.encode_problem(problem))
        assert decoded.vertex_ids == problem.vertex_ids
        assert np.array_equal(decoded.edge_u, problem.edge_u)
        assert np.array_equal(decoded.edge_v, problem.edge_v)
        assert np.array_equal(decoded.probabilities, problem.probabilities)
        assert decoded.source == problem.source
        assert wire.problem_digest(decoded) == wire.problem_digest(problem)

    def test_problem_digest_distinguishes_content(self):
        base = _problem()
        other = SamplingProblem(
            vertex_ids=base.vertex_ids,
            edge_u=base.edge_u,
            edge_v=base.edge_v,
            probabilities=base.probabilities * 0.5,
            source=base.source,
        )
        assert wire.problem_digest(base) != wire.problem_digest(other)

    def test_unnamed_backend_cannot_cross_the_wire(self):
        class Anonymous:
            def sample_reachability(self, problem, n_samples, rng):  # pragma: no cover
                raise AssertionError

        with pytest.raises(WireFormatError, match="registry name"):
            wire.encode_backend(Anonymous())

    def test_named_backend_crosses_as_its_name(self):
        assert wire.encode_backend(make_backend("naive")) == "naive"
        assert wire.encode_backend(None) is None


class TestRegistrationHandshake:
    def _hello(self, executor, message):
        """Send one registration line; return the reply and the next read."""
        host, port = executor.address
        channel = wire.LineChannel.connect(host, port, timeout=5.0)
        try:
            channel.send(message)
            reply = channel.recv(timeout=5.0)
            after = channel.recv(timeout=5.0)
        finally:
            channel.close()
        return reply, after

    def test_version_mismatch_is_answered_and_not_linked(self):
        with RemoteExecutor(port=0) as executor:
            hello = wire.register_message("stale", 1, ["naive"])
            hello["version"] = wire.WIRE_VERSION - 1
            reply, after = self._hello(executor, hello)
            assert reply["kind"] == wire.MSG_ERROR
            assert reply["error"]["type"] == wire.ERR_VERSION
            assert f"v{wire.WIRE_VERSION}" in reply["error"]["message"]
            assert after is None  # the coordinator closed the connection
            assert executor.worker_names() == []

    def test_matching_version_registers(self):
        with RemoteExecutor(port=0) as executor:
            host, port = executor.address
            channel = wire.LineChannel.connect(host, port, timeout=5.0)
            try:
                channel.send(wire.register_message("fresh", 1, ["naive"]))
                reply = channel.recv(timeout=5.0)
                assert reply["kind"] == wire.MSG_REGISTERED
                executor.wait_for_workers(1, timeout=5.0)
                assert executor.worker_names() == ["fresh"]
            finally:
                channel.close()


class TestRemoteSpecs:
    def test_parse_remote_spec(self):
        assert parse_remote_spec("remote:127.0.0.1:7500") == ("127.0.0.1", 7500)
        assert parse_remote_spec("remote:host.example:0") == ("host.example", 0)

    @pytest.mark.parametrize(
        "spec",
        ["remote:", "remote:justhost", "remote::7500", "remote:h:port", "remote:h:99999"],
    )
    def test_bad_specs_are_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_remote_spec(spec)

    def test_make_executor_builds_a_coordinator(self):
        executor = make_executor("remote:127.0.0.1:0")
        try:
            assert isinstance(executor, RemoteExecutor)
            assert executor.address[1] > 0  # ephemeral port resolved
            assert executor.workers == 1  # empty fleet floors at 1
        finally:
            executor.close()
        assert executor.closed is True

    def test_runtime_config_validates_remote_specs(self):
        config = repro.RuntimeConfig(workers="remote:127.0.0.1:0")
        assert config.as_dict()["workers"] == "remote:127.0.0.1:0"
        with pytest.raises(ValueError):
            repro.RuntimeConfig(workers="remote:missing-a-port")
        with pytest.raises(ValueError):
            repro.RuntimeConfig(workers="not-a-spec")


class TestRemoteExecutor:
    def test_empty_task_list(self, fleet):
        assert fleet.executor.map_shards([]) == []

    def test_backend_shards_match_serial_bit_for_bit(self, fleet):
        tasks = _tasks(6, backend=make_backend("csr"))
        serial = SerialExecutor().map_shards(tasks)
        remote = fleet.executor.map_shards(tasks)
        assert len(remote) == len(serial)
        for ours, theirs in zip(remote, serial):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)

    def test_flip_shards_match_serial_bit_for_bit(self, fleet):
        tasks = _tasks(5, seed=11, backend=None)
        serial = SerialExecutor().map_shards(tasks)
        remote = fleet.executor.map_shards(tasks)
        for ours, theirs in zip(remote, serial):
            assert np.array_equal(ours, theirs)

    def test_naive_and_csr_backends_agree_remotely(self, fleet):
        for backend_name in ("naive", "csr"):
            tasks = _tasks(3, seed=5, backend=make_backend(backend_name))
            serial = SerialExecutor().map_shards(tasks)
            remote = fleet.executor.map_shards(tasks)
            for ours, theirs in zip(remote, serial):
                assert np.array_equal(ours, theirs)

    def test_workers_property_tracks_fleet(self, fleet):
        assert fleet.executor.workers == 2
        assert sorted(fleet.executor.worker_names()) == sorted(fleet.executor.worker_names())

    def test_closed_executor_rejects_work(self):
        executor = RemoteExecutor(port=0)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.map_shards(_tasks(1))

    def test_no_workers_raises_typed_error(self):
        with RemoteExecutor(port=0, worker_wait_timeout=0.2) as executor:
            with pytest.raises(NoWorkersError) as excinfo:
                executor.map_shards(_tasks(2))
        assert isinstance(excinfo.value, DistributedError)
        assert isinstance(excinfo.value, ExecutorError)
        assert "repro-flow worker --connect" in str(excinfo.value)

    def test_session_owns_and_closes_a_spec_built_coordinator(self):
        with repro.session(workers="remote:127.0.0.1:0") as s:
            executor = s._executor
            assert isinstance(executor, RemoteExecutor)
        assert executor.closed is True
