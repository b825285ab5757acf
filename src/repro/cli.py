"""Command-line interface.

Eight subcommands cover the common workflows::

    repro-flow generate --dataset erdos --size 500 --out graph.json
    repro-flow select   --graph graph.json --query 0 --budget 20 --algorithm FT+M
    repro-flow evaluate --graph graph.json --query 0 --edges edges.txt
    repro-flow batch    --graph graph.json --requests queries.jsonl --out results.jsonl
    repro-flow serve    --graph graph.json --port 7421
    repro-flow backends
    repro-flow telemetry --graph graph.json
    repro-flow experiment --figure 7b

(``python -m repro.cli`` works identically when the console script is
not installed.)

All four workload subcommands share one **runtime flag group**
(``--backend --workers --shard-size --resample-per-candidate
--cache-size``) that builds a single
:class:`~repro.runtime.RuntimeConfig`; each command then runs inside
``with repro.session(config):``, so every layer underneath — selectors,
estimators, the batch evaluator, the figure harness — resolves its knobs
from that one scoped configuration and owned pools/caches are released
on exit, even on error paths.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.exceptions import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import ALL_FIGURES, FigureResult, run_figure
from repro.experiments.harness import pick_query_vertex
from repro.experiments.reporting import format_table, rows_to_csv
from repro.graph.io import read_json, write_json
from repro.graph.validation import graph_stats
from repro.reachability.backends import BACKEND_NAMES
from repro.runtime import RuntimeConfig, current_config, session as runtime_session
from repro.selection.registry import ALGORITHM_NAMES
from repro.service import request_from_dict, result_to_dict
from repro.types import Edge


_WORKERS_HELP = (
    "worker processes for sharded possible-world sampling (a positive "
    "count). Default: unsharded single-process; results are identical for "
    "any worker count at a fixed seed and shard size"
)
_SHARD_SIZE_HELP = "possible worlds per shard when --workers is set"


def _parse_workers_flag(value: str) -> int:
    """``--workers`` accepts a positive worker count."""
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a worker count, got {value!r}") from None
    if count <= 0:
        raise argparse.ArgumentTypeError(f"--workers must be positive, got {count}")
    return count


def _parse_seed_flag(value: str) -> int:
    """``--seed`` accepts a non-negative integer (numpy's seeding domain)."""
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer seed, got {value!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"--seed must be >= 0, got {seed}")
    return seed


def add_runtime_flags(
    parser: argparse.ArgumentParser, cache_size_default: Optional[int] = None
) -> None:
    """Attach the shared runtime flag group to a subcommand parser.

    One group — ``--backend --workers --shard-size
    --resample-per-candidate --cache-size`` — shared verbatim by
    ``select``, ``evaluate``, ``batch`` and ``experiment``; the parsed
    values build one :class:`~repro.runtime.RuntimeConfig` via
    :func:`runtime_config_from_args`.
    """
    group = parser.add_argument_group(
        "runtime", "scoped runtime configuration (one repro.session per command)"
    )
    group.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="possible-world sampling backend (default: library default)",
    )
    group.add_argument("--workers", type=_parse_workers_flag, default=None, help=_WORKERS_HELP)
    group.add_argument("--shard-size", type=int, default=None, help=_SHARD_SIZE_HELP)
    group.add_argument(
        "--resample-per-candidate", action="store_true",
        help="disable common-random-numbers scoring: redraw a fresh world batch "
             "per probed candidate (the paper's literal, slower reference mode)",
    )
    group.add_argument(
        "--cache-size", type=int, default=cache_size_default,
        help="world-cache entry bound for service-backed evaluation "
             "(0 disables caching; default: %(default)s)",
    )
    group.add_argument(
        "--trace", action="store_true",
        help="run with telemetry enabled and print the span tree and "
             "metrics registry to stderr when the command finishes",
    )
    group.add_argument(
        "--trace-out", type=Path, default=None,
        help="additionally write every finished span to this JSONL file "
             "(implies --trace)",
    )
    group.add_argument(
        "--profile", action="store_true",
        help="trace with resource profiling: every span additionally "
             "records CPU time, tracemalloc allocation deltas and GC "
             "collections, and a hot-span table is printed (implies --trace; "
             "results are bit-for-bit identical with or without)",
    )
    group.add_argument(
        "--flame-out", type=Path, default=None,
        help="write the profiled span trees in collapsed-stack format "
             "(one 'a;b;c weight' line, flamegraph.pl/speedscope input) "
             "to this file (implies --profile)",
    )


def _build_trace_telemetry(args: argparse.Namespace):
    """Build the ``--trace``/``--trace-out`` pipeline for a command.

    Returns ``(telemetry, memory_exporter)`` — both ``None`` when tracing
    was not requested.  The in-memory exporter is what
    :func:`_emit_trace_report` renders after the session closes.
    """
    trace = getattr(args, "trace", False)
    trace_out = getattr(args, "trace_out", None)
    profile = _profiling_requested(args)
    if not trace and trace_out is None and not profile:
        return None, None
    from repro.telemetry import InMemoryExporter, JSONLExporter, Telemetry

    memory = InMemoryExporter()
    exporters: List[object] = [memory]
    if trace_out is not None:
        exporters.append(JSONLExporter(trace_out))
    if profile:
        from repro.telemetry.profile import ProfilingTelemetry

        return ProfilingTelemetry(exporters=exporters), memory
    return Telemetry(exporters=exporters), memory


def _profiling_requested(args: argparse.Namespace) -> bool:
    """``--profile``, or ``--flame-out`` (which implies it)."""
    return bool(
        getattr(args, "profile", False) or getattr(args, "flame_out", None) is not None
    )


def _format_registry(snapshot: dict) -> List[str]:
    """Render a registry snapshot as aligned ``name value`` lines."""
    lines: List[str] = []
    for kind in ("counters", "gauges"):
        section = snapshot.get(kind, {})
        if section:
            lines.append(f"{kind}:")
            width = max(len(name) for name in section)
            for name, value in section.items():
                lines.append(f"  {name:<{width}}  {value}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        width = max(len(name) for name in histograms)
        for name, summary in histograms.items():
            lines.append(
                f"  {name:<{width}}  count={summary['count']} "
                f"sum={summary['sum']:.6g} min={summary['min']:.6g} "
                f"max={summary['max']:.6g}"
            )
    return lines


def _emit_trace_report(args: argparse.Namespace, stream=None) -> None:
    """Print the span tree(s) and registry of a traced command run."""
    telemetry, memory = getattr(args, "trace_state", (None, None))
    if telemetry is None:
        return
    from repro.telemetry import format_span_tree

    telemetry.close()  # flush the JSONL file before reporting
    out = stream if stream is not None else sys.stderr
    registry_lines = _format_registry(telemetry.snapshot())
    if not memory.spans and not registry_lines:
        # e.g. an F-tree selection whose components were all enumerated
        # exactly: nothing sampled, nothing to report
        print("trace: no instrumented work was recorded", file=out)
    for root in memory.spans:
        print(format_span_tree(root), file=out)
    for line in registry_lines:
        print(line, file=out)
    if telemetry.profiling and memory.spans:
        from repro.telemetry.profile import format_hot_spans

        print(file=out)
        print(format_hot_spans(memory.spans), file=out)
    _write_flame(args, memory, out)
    trace_out = getattr(args, "trace_out", None)
    if trace_out is not None:
        print(f"span trace written to {trace_out}", file=out)


def _write_flame(args: argparse.Namespace, memory, out) -> None:
    """Write the ``--flame-out`` collapsed-stack file, if requested."""
    flame_out = getattr(args, "flame_out", None)
    if flame_out is None or memory is None:
        return
    from repro.telemetry.profile import format_collapsed

    flame_out.write_text(format_collapsed(memory.spans) + "\n", encoding="utf-8")
    print(f"collapsed stacks written to {flame_out}", file=out)


def runtime_config_from_args(
    args: argparse.Namespace, n_samples: Optional[int] = None, seed=None
) -> RuntimeConfig:
    """Build the command's RuntimeConfig from the shared flag group.

    Validation errors surface as a clean ``SystemExit`` message instead
    of a deep-stack traceback.
    """
    telemetry, memory = _build_trace_telemetry(args)
    args.trace_state = (telemetry, memory)
    try:
        return RuntimeConfig(
            backend=args.backend,
            crn=False if args.resample_per_candidate else None,
            workers=args.workers,
            shard_size=args.shard_size,
            n_samples=n_samples,
            seed=seed,
            world_cache=args.cache_size,
            telemetry=telemetry,
        )
    except (TypeError, ValueError) as error:
        raise SystemExit(str(error)) from error


def build_parser() -> argparse.ArgumentParser:
    """Create the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-flow",
        description="Information flow maximization in probabilistic graphs (F-tree reproduction)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="enable INFO-level logging (-vv for DEBUG); goes before the subcommand",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a named dataset and save it as JSON")
    generate.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    generate.add_argument("--size", type=int, default=None, help="number of vertices")
    generate.add_argument("--seed", type=_parse_seed_flag, default=0)
    generate.add_argument("--out", type=Path, required=True, help="output JSON path")

    select = subparsers.add_parser("select", help="run an edge-selection algorithm on a graph")
    select.add_argument("--graph", type=Path, required=True, help="graph JSON produced by 'generate'")
    select.add_argument("--query", default=None, help="query vertex id (default: highest degree)")
    select.add_argument("--budget", type=int, required=True)
    select.add_argument("--algorithm", choices=ALGORITHM_NAMES, default="FT+M")
    select.add_argument("--samples", type=int, default=500)
    select.add_argument("--seed", type=_parse_seed_flag, default=0)
    add_runtime_flags(select)
    select.add_argument("--out", type=Path, default=None, help="write selected edges to this file")

    evaluate = subparsers.add_parser("evaluate", help="evaluate the expected flow of a selected edge set")
    evaluate.add_argument("--graph", type=Path, required=True)
    evaluate.add_argument("--query", default=None)
    evaluate.add_argument("--edges", type=Path, required=True, help="file with one 'u v' pair per line")
    evaluate.add_argument("--samples", type=int, default=1000)
    evaluate.add_argument("--seed", type=_parse_seed_flag, default=0)
    add_runtime_flags(evaluate)

    batch = subparsers.add_parser(
        "batch",
        help="answer a JSONL batch of flow/reachability queries from shared sampled worlds",
    )
    batch.add_argument("--graph", type=Path, required=True, help="graph JSON produced by 'generate'")
    batch.add_argument(
        "--requests", type=Path, required=True,
        help="JSONL file with one query request per line (see repro.service.requests)",
    )
    batch.add_argument(
        "--out", type=Path, default=None,
        help="write JSONL results to this file (default: stdout)",
    )
    batch.add_argument("--samples", type=int, default=1000,
                       help="default sample count for requests that do not set one")
    batch.add_argument("--seed", type=_parse_seed_flag, default=0,
                       help="default seed for requests that do not set one")
    batch.add_argument(
        "--warm", action="store_true",
        help="pre-sample every needed world batch into the cache before answering "
             "(the answering pass is then served entirely from cache)",
    )
    add_runtime_flags(batch, cache_size_default=64)

    serve = subparsers.add_parser(
        "serve",
        help="stand a JSONL-over-TCP query server on a graph (coalescing, "
             "admission control, health/metrics)",
    )
    serve.add_argument("--graph", type=Path, required=True, help="graph JSON produced by 'generate'")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7421,
                       help="listen port (0 binds an ephemeral port; the bound "
                            "address is printed on startup)")
    serve.add_argument("--samples", type=int, default=1000,
                       help="default sample count for requests that do not set one")
    serve.add_argument("--seed", type=_parse_seed_flag, default=0,
                       help="default seed for requests that do not set one")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="most requests coalesced into one evaluation batch")
    serve.add_argument("--batch-window-ms", type=float, default=2.0,
                       help="how long the dispatcher waits for co-arriving requests")
    serve.add_argument("--max-inflight", type=int, default=256,
                       help="admission bound: requests beyond it are rejected "
                            "with an explicit over_capacity response")
    serve.add_argument("--warm", type=Path, default=None,
                       help="JSONL request file whose world batches are pre-sampled "
                            "into the cache before the server accepts connections")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="additionally expose a Prometheus /metrics scrape "
                            "endpoint on this HTTP port (0 binds an ephemeral "
                            "port; the bound address is printed on startup)")
    serve.add_argument("--metrics-host", default="127.0.0.1",
                       help="bind address of the /metrics endpoint")
    add_runtime_flags(serve, cache_size_default=64)

    subparsers.add_parser(
        "backends",
        help="list the registered sampling backends with availability "
             "(and why an optional backend is unavailable)",
    )

    telemetry_cmd = subparsers.add_parser(
        "telemetry",
        help="run a query workload with tracing forced on and dump the "
             "span tree plus the metrics registry",
    )
    telemetry_cmd.add_argument("--graph", type=Path, required=True,
                               help="graph JSON produced by 'generate'")
    telemetry_cmd.add_argument(
        "--requests", type=Path, default=None,
        help="JSONL request file to run (default: a synthesized mixed "
             "workload over the graph)",
    )
    telemetry_cmd.add_argument("--samples", type=int, default=500,
                               help="default sample count for requests that do not set one")
    telemetry_cmd.add_argument("--seed", type=_parse_seed_flag, default=0,
                               help="default seed for requests that do not set one")
    telemetry_cmd.add_argument(
        "--json", action="store_true",
        help="emit one JSON document (spans + metrics) instead of text",
    )
    add_runtime_flags(telemetry_cmd, cache_size_default=64)

    experiment = subparsers.add_parser("experiment", help="reproduce one of the paper's figures")
    experiment.add_argument(
        "--figure", choices=sorted(ALL_FIGURES) + ["all"], required=True,
        help="figure id, or 'all' to regenerate every figure",
    )
    experiment.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    experiment.add_argument("--quick", action="store_true", help="use the tiny smoke-test configuration")
    add_runtime_flags(experiment)
    experiment.add_argument(
        "--output-dir", type=Path, default=None,
        help="write one CSV per figure (plus SUMMARY.md) into this directory",
    )

    return parser


def _parse_vertex(raw: Optional[str], graph) -> object:
    """Interpret a vertex id given on the command line (int when possible)."""
    if raw is None:
        return pick_query_vertex(graph)
    if graph.has_vertex(raw):
        return raw
    try:
        candidate = int(raw)
    except ValueError:
        candidate = raw
    if not graph.has_vertex(candidate):
        raise SystemExit(f"query vertex {raw!r} does not exist in the graph")
    return candidate


def _command_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, n_vertices=args.size, seed=args.seed)
    write_json(graph, args.out)
    stats = graph_stats(graph)
    print(f"wrote {args.out}: {stats.n_vertices} vertices, {stats.n_edges} edges")
    return 0


def _command_select(args: argparse.Namespace) -> int:
    # build (and validate) the runtime config before touching the graph
    # file, so a bad flag exits before any I/O
    config = runtime_config_from_args(args, n_samples=args.samples, seed=args.seed)
    graph = read_json(args.graph)
    query = _parse_vertex(args.query, graph)
    with runtime_session(config) as session:
        result = session.select(graph, query, args.budget, algorithm=args.algorithm)
        resolved = current_config()  # the knobs the run actually used
    print(f"algorithm      : {result.algorithm}")
    print(f"query vertex   : {query}")
    print(f"backend        : {resolved.backend}")
    print(f"sampling mode  : {'crn' if resolved.crn else 'resample-per-candidate'}")
    workers = resolved.as_dict()["workers"]  # executor specs reduced to a count
    print(f"workers        : {'unsharded' if workers in (None, 0) else workers}")
    print(f"edges selected : {result.n_selected} / budget {args.budget}")
    print(f"expected flow  : {result.expected_flow:.4f}")
    print(f"runtime        : {result.elapsed_seconds:.3f}s")
    if args.out is not None:
        lines = [f"{edge.u} {edge.v}" for edge in result.selected_edges]
        args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"selected edges written to {args.out}")
    _emit_trace_report(args)
    return 0


def _read_edge_file(path: Path, graph) -> List[Edge]:
    edges: List[Edge] = []
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise SystemExit(f"{path}:{line_number}: malformed edge line {line!r}")
        u, v = parts[0], parts[1]

        def resolve(token: str) -> object:
            if graph.has_vertex(token):
                return token
            try:
                as_int = int(token)
            except ValueError:
                return token
            return as_int if graph.has_vertex(as_int) else token

        edges.append(Edge(resolve(u), resolve(v)))
    return edges


def _command_evaluate(args: argparse.Namespace) -> int:
    config = runtime_config_from_args(args, seed=args.seed)
    graph = read_json(args.graph)
    query = _parse_vertex(args.query, graph)
    edges = _read_edge_file(args.edges, graph)
    with runtime_session(config) as session:
        flow = session.evaluate_flow(
            graph, edges, query, n_samples=args.samples, seed=args.seed
        )
    print(f"query vertex  : {query}")
    print(f"edges         : {len(edges)}")
    print(f"expected flow : {flow:.4f}")
    _emit_trace_report(args)
    return 0


def _read_request_file(path: Path, graph, default_n_samples: int, default_seed: int):
    requests = []
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            payload = json.loads(line)
            requests.append(
                request_from_dict(
                    payload,
                    graph=graph,
                    default_n_samples=default_n_samples,
                    default_seed=default_seed,
                )
            )
        except (ValueError, TypeError) as error:
            raise SystemExit(f"{path}:{line_number}: bad request: {error}") from error
    if not requests:
        raise SystemExit(f"{path}: no requests found")
    return requests


def _command_batch(args: argparse.Namespace) -> int:
    config = runtime_config_from_args(args)
    if args.samples <= 0:
        raise SystemExit(f"--samples must be positive, got {args.samples}")
    graph = read_json(args.graph)
    requests = _read_request_file(args.requests, graph, args.samples, args.seed)
    with runtime_session(config) as session:
        try:
            results = session.batch(graph, requests, warm=args.warm)
        except ReproError as error:
            raise SystemExit(f"batch evaluation failed: {error}") from error
        evaluator = session.evaluator
        plan = evaluator.last_plan  # the plan batch() just built
        sampled, reused = evaluator.batches_sampled, evaluator.batches_reused
        stats = evaluator.cache_stats()
    lines = [json.dumps(result_to_dict(result)) for result in results]
    if args.out is not None:
        args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        for line in lines:
            print(line)
    summary = sys.stdout if args.out is not None else sys.stderr
    print(f"requests       : {len(requests)}", file=summary)
    print(f"world batches  : {len(plan.groups)} (amortization {plan.amortization:.1f}x)", file=summary)
    print(f"sampled/reused : {sampled}/{reused}", file=summary)
    if stats:
        print(
            f"cache          : {int(stats['entries'])} entries, "
            f"{int(stats['hits'])} hits / {int(stats['misses'])} misses "
            f"(hit rate {stats['hit_rate']:.0%})",
            file=summary,
        )
    if args.out is not None:
        print(f"results written to {args.out}", file=summary)
    _emit_trace_report(args)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import ServerConfig, load_warm_requests

    config = runtime_config_from_args(args)
    if args.samples <= 0:
        raise SystemExit(f"--samples must be positive, got {args.samples}")
    graph = read_json(args.graph)
    warm_requests = ()
    if args.warm is not None:
        try:
            warm_requests = tuple(
                load_warm_requests(args.warm, graph, args.samples, args.seed)
            )
        except ValueError as error:
            raise SystemExit(str(error)) from error
    try:
        server_config = ServerConfig(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            batch_window_ms=args.batch_window_ms,
            max_inflight=args.max_inflight,
            default_n_samples=args.samples,
            default_seed=args.seed,
            runtime=config,
            warm_requests=warm_requests,
            metrics_port=args.metrics_port,
            metrics_host=args.metrics_host,
        )
    except (TypeError, ValueError) as error:
        raise SystemExit(str(error)) from error
    try:
        return asyncio.run(_serve_until_signalled(graph, server_config))
    except KeyboardInterrupt:  # pragma: no cover - interactive abort fallback
        return 0
    finally:
        _emit_trace_report(args)


async def _serve_until_signalled(graph, server_config) -> int:
    """Run a server until SIGINT/SIGTERM, then drain gracefully."""
    import asyncio
    import signal

    from repro.server import ReproServer

    server = ReproServer(graph, server_config)
    await server.start()
    host, port = server.address
    # machine-readable startup line: scripts launching `serve --port 0`
    # parse the ephemeral port from here (hence the explicit flush)
    print(f"repro-flow serving {graph.name or 'graph'} on {host}:{port}", flush=True)
    if server_config.metrics_port is not None:
        metrics_host, metrics_port = server.metrics_address
        print(
            f"repro-flow metrics on http://{metrics_host}:{metrics_port}/metrics",
            flush=True,
        )
    if server_config.warm_requests:
        print(
            f"warmed {len(server_config.warm_requests)} requests into the cache",
            file=sys.stderr,
        )
    loop = asyncio.get_running_loop()
    stop_event = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop_event.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix
            pass
    try:
        await stop_event.wait()
    finally:
        print("draining in-flight requests ...", file=sys.stderr)
        await server.stop()
        snapshot = server.metrics.snapshot()
        requests = snapshot["requests"]
        print(
            f"served {requests['answered']} requests "
            f"({requests['failed']} failed, {sum(requests['rejected'].values())} rejected)",
            file=sys.stderr,
        )
    return 0


def _figure_rows(result) -> List[dict]:
    if isinstance(result, FigureResult):
        return result.rows
    if isinstance(result, dict):
        rows: List[dict] = []
        for panel in result.values():
            rows.extend(panel.rows)
        return rows
    raise SystemExit(f"unexpected figure result type {type(result)!r}")


def _command_backends(args: argparse.Namespace) -> int:
    from repro.reachability.backends import backend_availability, get_default_backend

    default = get_default_backend()
    for name, reason in backend_availability().items():
        if reason is None:
            status = "available"
            if name == default:
                status += " (default)"
        else:
            status = f"unavailable: {reason}"
        print(f"{name:<12} {status}")
    return 0


def _synthesize_requests(graph, n_samples: int, seed: int):
    """A small deterministic mixed workload for ``repro-flow telemetry``.

    One expected-flow query at the natural query vertex, pair queries
    toward a few other vertices (sharing that batch via the planner),
    and one component query — enough to light up every layer.
    """
    from repro.service.requests import QueryRequest

    source = pick_query_vertex(graph)
    others = [vertex for vertex in graph.vertices() if vertex != source][:3]
    requests = [
        QueryRequest(kind="expected_flow", source=source, n_samples=n_samples, seed=seed)
    ]
    for target in others:
        requests.append(
            QueryRequest(
                kind="pair_reachability", source=source, target=target,
                n_samples=n_samples, seed=seed,
            )
        )
    if others:
        members = {source, *others}
        component_edges = tuple(
            edge for edge in graph.edges() if edge.u in members and edge.v in members
        )
        if component_edges:
            requests.append(
                QueryRequest(
                    kind="component_reachability", source=source,
                    targets=tuple(others), edges=component_edges,
                    n_samples=n_samples, seed=seed,
                )
            )
    return requests


def _command_telemetry(args: argparse.Namespace) -> int:
    # tracing is the whole point of this subcommand — force it on so the
    # shared flag group needs no extra --trace
    args.trace = True
    config = runtime_config_from_args(args)
    if args.samples <= 0:
        raise SystemExit(f"--samples must be positive, got {args.samples}")
    graph = read_json(args.graph)
    if args.requests is not None:
        requests = _read_request_file(args.requests, graph, args.samples, args.seed)
    else:
        requests = _synthesize_requests(graph, args.samples, args.seed)
    telemetry, memory = args.trace_state
    with runtime_session(config) as session:
        # one root span over the whole workload, so the per-layer times
        # underneath it visibly sum to (approximately) the wall time
        with telemetry.span(
            "cli.telemetry", graph=graph.name or "graph", n_requests=len(requests)
        ):
            try:
                session.batch(graph, requests)
            except ReproError as error:
                raise SystemExit(f"telemetry workload failed: {error}") from error
    telemetry.close()
    profiled = telemetry.profiling
    if args.json:
        document = {
            "spans": [root.to_dict() for root in memory.spans],
            "metrics": telemetry.snapshot(),
        }
        if profiled:
            from repro.telemetry.profile import (
                format_collapsed,
                hot_spans,
                span_totals,
            )

            document["profile"] = {
                "span_totals": span_totals(memory.spans),
                "hot_spans": [
                    {"name": name, **entry} for name, entry in hot_spans(memory.spans)
                ],
                "collapsed": format_collapsed(memory.spans),
            }
        print(json.dumps(document, indent=2, default=repr))
        _write_flame(args, memory, sys.stderr)
        return 0
    from repro.telemetry import format_span_tree

    print(f"workload: {len(requests)} requests against {args.graph}")
    print()
    for root in memory.spans:
        print(format_span_tree(root))
    print()
    for line in _format_registry(telemetry.snapshot()):
        print(line)
    if profiled and memory.spans:
        from repro.telemetry.profile import format_hot_spans

        print()
        print(format_hot_spans(memory.spans))
    _write_flame(args, memory, sys.stdout)
    trace_out = getattr(args, "trace_out", None)
    if trace_out is not None:
        print(f"span trace written to {trace_out}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    # validate before opening the session, so a bad value cannot build
    # (or leak) a worker pool
    config = runtime_config_from_args(args)
    if args.workers is None and args.shard_size is not None:
        print("note: --shard-size has no effect without --workers", file=sys.stderr)
    # one session for the whole experiment: every per-figure default
    # configuration resolves backend/crn/executor/shard-size from it, and
    # an owned pool is released on exit even when a figure raises
    with runtime_session(config):
        status = _run_experiment(args)
    _emit_trace_report(args)
    return status


def _run_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig.quick() if args.quick else None
    if args.figure == "all" or args.output_dir is not None:
        from repro.experiments.runner import run_all_figures, summary_table

        figures = None if args.figure == "all" else [args.figure]
        artifacts = run_all_figures(
            output_dir=args.output_dir, figures=figures, config=config
        )
        print(summary_table(artifacts))
        if args.output_dir is not None:
            print(f"\nCSV files written to {args.output_dir}")
        return 0
    result = run_figure(args.figure, config)
    rows = _figure_rows(result)
    if args.csv:
        print(rows_to_csv(rows))
    else:
        print(format_table(rows, title=f"Figure {args.figure}"))
    return 0


def _configure_logging(verbosity: int) -> None:
    """Wire ``-v``/``-vv`` to stdlib logging for the repro tree."""
    if verbosity <= 0:
        return
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose)
    handlers = {
        "generate": _command_generate,
        "select": _command_select,
        "evaluate": _command_evaluate,
        "batch": _command_batch,
        "serve": _command_serve,
        "backends": _command_backends,
        "telemetry": _command_telemetry,
        "experiment": _command_experiment,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        # library validation errors (bad budget, sample size, vertex, ...)
        # end the command with a one-line message, not a traceback
        raise SystemExit(str(error)) from error
    finally:
        # --trace-out must never lose its file handle: when a workload
        # subcommand raises (bad batch, SystemExit, ...), the JSONL
        # exporter is flushed and closed here — Telemetry.close() is
        # idempotent, so the success paths' own close is unaffected
        telemetry, _memory = getattr(args, "trace_state", (None, None))
        if telemetry is not None:
            telemetry.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
