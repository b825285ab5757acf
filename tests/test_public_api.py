"""Snapshot of the public API surface.

``repro.__all__`` is the library's contract: names appearing there are
what downstream code imports and what the docs promise.  This snapshot
makes every accidental addition, removal or rename a loud CI failure —
changing the surface requires changing this file in the same commit,
which is exactly the review trigger we want.
"""

import repro

#: The exact public surface of ``repro`` (keep sorted; update only as a
#: deliberate, reviewed API change).
EXPECTED_PUBLIC_API = sorted(
    [
        # version
        "__version__",
        # core types
        "Edge",
        "VertexId",
        # graph model and generators
        "UncertainGraph",
        "PossibleWorld",
        "enumerate_worlds",
        "erdos_renyi_graph",
        "partitioned_graph",
        "wsn_graph",
        "grid_road_graph",
        "social_circle_graph",
        "collaboration_graph",
        "preferential_attachment_graph",
        # estimators
        "exact_expected_flow",
        "mono_connected_expected_flow",
        # parallel sharded sampling
        "AdaptiveSettings",
        "ProcessExecutor",
        "SerialExecutor",
        "make_executor",
        # batched query service
        "BatchEvaluator",
        "QueryRequest",
        "QueryResult",
        "WorldCache",
        # async serving tier
        "ReproServer",
        "ServerClient",
        "ServerConfig",
        # F-tree
        "FTree",
        "ComponentSampler",
        "MemoCache",
        "build_ftree",
        # selection
        "DijkstraSelector",
        "NaiveGreedySelector",
        "FTreeGreedySelector",
        "RandomSelector",
        "exhaustive_optimal_selection",
        "make_selector",
        "ALGORITHM_NAMES",
        "SelectionResult",
        # unified telemetry layer
        "MetricsRegistry",
        "Telemetry",
        "current_telemetry",
        "traced",
        # unified runtime / session API
        "runtime",
        "RuntimeConfig",
        "Session",
        "current_config",
        "session",
    ]
)

#: The runtime module's own surface.
EXPECTED_RUNTIME_API = sorted(
    [
        "RuntimeConfig",
        "Session",
        "current_config",
        "current_session",
        "session",
    ]
)


class TestPublicSurface:
    def test_all_matches_snapshot(self):
        assert sorted(repro.__all__) == EXPECTED_PUBLIC_API

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, f"{name} does not resolve"

    def test_runtime_surface_matches_snapshot(self):
        assert sorted(repro.runtime.__all__) == EXPECTED_RUNTIME_API

    def test_every_runtime_name_resolves(self):
        for name in repro.runtime.__all__:
            assert getattr(repro.runtime, name, None) is not None

    def test_session_entry_points_are_the_same_object(self):
        assert repro.session is repro.runtime.session
        assert repro.Session is repro.runtime.Session
        assert repro.RuntimeConfig is repro.runtime.RuntimeConfig


class TestStarImport:
    def test_star_import_exports_exactly_all(self):
        namespace = {}
        exec("from repro import *", namespace)
        imported = {name for name in namespace if name != "__builtins__"}
        assert imported == set(repro.__all__)
