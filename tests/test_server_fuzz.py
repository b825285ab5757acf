"""Fuzzing the server's request decoder: hostile lines get typed answers.

Every line a client sends goes through :func:`repro.server.protocol.decode_line`
and :meth:`ReproServer._admit` on the event loop, so neither may let an
exception escape: ``decode_line`` returns a JSON object or raises
``ValueError``, and ``_admit`` returns an ``ok: false`` response (which
must still encode onto the wire) or an admitted ``_Pending``.
"""

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.generators import erdos_renyi_graph
from repro.server import ReproServer, ServerConfig, protocol
from repro.server.app import _Pending

EXAMPLES = settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

N_VERTICES = 20
GRAPH = erdos_renyi_graph(N_VERTICES, 3.0, seed=1)

vertices = st.integers(0, N_VERTICES - 1)
#: edge restrictions the admission checks accept: edges of the graph, each once
graph_edges = st.lists(
    st.sampled_from([(edge.u, edge.v) for edge in GRAPH.edges()]), max_size=4, unique=True
)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=20)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
#: values at the edges of the JSON number and type space
boundary_values = st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), 1e308, -0.0, 2**63, -1, 0, True, "", "0"]
)
transport = st.fixed_dictionaries(
    {}, optional={"id": json_values, "tenant": st.text(max_size=8)}
)
valid_requests = st.one_of(
    st.fixed_dictionaries({"kind": st.just("expected_flow"), "query": vertices}),
    st.fixed_dictionaries(
        {"kind": st.just("pair_reachability"), "source": vertices, "target": vertices}
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("component_reachability"),
            "anchor": vertices,
            "vertices": st.lists(vertices, min_size=1, max_size=3),
            "edges": graph_edges,
        }
    ),
)
valid_lines = st.builds(
    lambda request, extra, n, seed: protocol.encode_line(
        {**request, **extra, "n_samples": n, "seed": seed}
    ),
    valid_requests,
    transport,
    st.integers(1, 64),
    st.integers(0, 2**32),
)


class Admission:
    """One un-started server whose ``_admit`` runs on a private loop.

    Admitted requests are taken off the queue again at once, so every
    example sees an idle server rather than one at its in-flight bound.
    """

    def __init__(self):
        self.server = ReproServer(GRAPH, ServerConfig(port=0, default_n_samples=8))
        self.loop = asyncio.new_event_loop()

    def admit(self, line: bytes):
        async def once():
            outcome = self.server._admit(line)
            if isinstance(outcome, _Pending):
                self.server._queue.get_nowait()
                self.server._queue.task_done()
                self.server._inflight -= 1
            return outcome

        return self.loop.run_until_complete(once())

    def close(self):
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()


@pytest.fixture(scope="module")
def admission():
    harness = Admission()
    yield harness
    harness.close()


def check_decode(line: bytes) -> None:
    try:
        payload = protocol.decode_line(line)
    except ValueError:
        return
    assert isinstance(payload, dict)


def check_admit(admission: Admission, line: bytes) -> object:
    outcome = admission.admit(line)
    if not isinstance(outcome, _Pending):
        assert isinstance(outcome, dict)
        assert outcome["ok"] is False
        assert outcome["error"]["type"] == protocol.ERR_BAD_REQUEST
        protocol.encode_line(outcome)
    return outcome


@EXAMPLES
@given(line=st.binary(max_size=256))
def test_arbitrary_bytes(admission, line):
    check_decode(line)
    check_admit(admission, line)


@EXAMPLES
@given(line=valid_lines)
def test_every_truncation_of_valid_lines(admission, line):
    assert isinstance(check_admit(admission, line), _Pending)
    for cut in range(len(line) - 1):
        with pytest.raises(ValueError):
            protocol.decode_line(line[:cut])
        assert not isinstance(check_admit(admission, line[:cut]), _Pending)


def dumps(value) -> bytes:
    return json.dumps(value).encode("utf-8")


#: JSON that is not an object, and nesting past the parser's recursion limit
wrong_type_lines = st.one_of(
    json_scalars.map(dumps),
    st.lists(json_values, max_size=4).map(dumps),
    st.integers(1, 5000).map(lambda depth: b"[" * depth + b"]" * depth),
    st.integers(1, 50_000).map(lambda depth: b"[" * depth),
    st.integers(1, 50_000).map(lambda depth: b'{"a":' * depth),
)


@EXAMPLES
@given(line=wrong_type_lines)
def test_wrong_json_types_and_deep_nesting(admission, line):
    line += b"\n"
    with pytest.raises(ValueError):
        protocol.decode_line(line)
    assert not isinstance(check_admit(admission, line), _Pending)


@EXAMPLES
@given(
    field=st.sampled_from(
        ["kind", "tenant", "n_samples", "seed", "query", "include_query", "edges"]
    ),
    value=boundary_values | json_values,
)
def test_wrong_field_types(admission, field, value):
    if field == "kind" and value in protocol.CONTROL_KINDS:
        value = [value]  # a control kind is a valid request, answered ok
    request = {"kind": "expected_flow", "tenant": "t", "n_samples": 8, "seed": 1, "query": 0}
    request[field] = value
    line = protocol.encode_line(request)
    check_decode(line)
    check_admit(admission, line)
