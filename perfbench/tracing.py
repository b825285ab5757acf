"""In-memory span tracing around the library's public layer functions.

Nothing inside the library is instrumented for the benchmark: while a
traced pass runs, :func:`instrument` replaces a fixed list of public
functions and methods with timing wrappers (``Tracer.wrap``), and
restores the originals afterwards.  Every wrapped call records a span
(name, start, end, parent, thread) in memory; spans nest per thread,
because the server evaluates requests on its own worker thread.  Calls
made in forked worker processes are passed through untouched.

Span names carry their layer as a prefix (``ftree.reach``,
``engine.flips`` ...).  A span's *self time* is its duration minus the
time of the spans nested directly inside it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from hostspeed import HostSpeed
from repro.ftree.ftree import FTree
from repro.ftree.sampler import ComponentSampler
from repro.graph.possible_world import enumerate_worlds
from repro.parallel.executor import ProcessExecutor, SerialExecutor
from repro.reachability.backends import backend_names, make_backend
from repro.reachability.backends.base import sample_flips
from repro.reachability.engine import (
    SamplingEngine,
    aggregate_component_reachability,
    aggregate_expected_flow,
    aggregate_pair_reachability,
)
from repro.reachability.layout import graph_layout
from repro.selection.ftree_greedy import FTreeGreedySelector
from repro.service.evaluator import BatchEvaluator
from repro.service.planner import QueryPlanner

#: Span fields, in the order they are stored and written out.
FIELDS = ("name", "start", "end", "parent", "thread")


class Tracer:
    """Collects spans and counts in memory; nothing is written until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: (duration, requests) of every ``BatchEvaluator.evaluate`` call
        self.evaluations: List[Tuple[float, int]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span; ``after(span, result, args, kwargs)``
        may rename the span or add counts once the call has returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, threading.current_thread().name]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(span, result, args, kwargs)
            return result

        return wrapper

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def note_evaluation(self, seconds: float, requests: int) -> None:
        with self._lock:
            self.evaluations.append((seconds, requests))

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, list] = defaultdict(lambda: [0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name][0] += 1
            totals[name][1] += (end - start) - child_time[index]
        return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}

    def covered_seconds(self, start: float, end: float) -> float:
        """Wall time inside ``[start, end]`` covered by at least one root span."""
        roots = sorted(
            (max(s, start), min(e, end))
            for _, s, e, parent, _ in self.spans
            if parent is None and e > start and s < end
        )
        covered = 0.0
        current_start = current_end = None
        for s, e in roots:
            if current_end is None or s > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = s, e
            else:
                current_end = max(current_end, e)
        if current_end is not None:
            covered += current_end - current_start
        return covered

    def dump(self, path: str, header: dict) -> None:
        """Write a header line, then one JSON object per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


# ----------------------------------------------------------------------
# the wrap points, one group per layer
# ----------------------------------------------------------------------
def _rebind(original: Callable, replacement: Callable, undo: list) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                undo.append((module, attribute, original))


def _patch_method(owner: type, attribute: str, wrapper_of: Callable, undo: list) -> None:
    original = owner.__dict__[attribute]
    setattr(owner, attribute, wrapper_of(original))
    undo.append((owner, attribute, original))


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the layer functions for the duration of the block."""
    undo: list = []
    wrap = tracer.wrap

    # selection + ftree
    _patch_method(FTreeGreedySelector, "select", lambda f: wrap(f, "selection.select"), undo)
    _patch_method(FTree, "clone", lambda f: wrap(f, "ftree.clone"), undo)
    _patch_method(FTree, "insert_edge", lambda f: wrap(f, "ftree.insert"), undo)
    _patch_method(FTree, "reachability_to_query", lambda f: wrap(f, "ftree.reach"), undo)

    # component sampler (+ memo): classify each call once it returned
    def classify(span, estimate, args, kwargs):
        sampler = args[0]
        if sampler.memo is not None:
            tracer.count("sampler.memo_lookups")
        if estimate.from_cache:
            span[0] = "sampler.memo_hit"
            tracer.count("sampler.memo_hits")
        elif estimate.exact:
            span[0] = "sampler.exact"
            tracer.count("sampler.exact_components")
        else:
            span[0] = "sampler.sampled"
            tracer.count("sampler.sampled_components")
            edges = args[4] if len(args) > 4 else kwargs["edges"]
            tracer.count("sampler.sampled_edges", len(edges))

    _patch_method(
        ComponentSampler, "reachability", lambda f: wrap(f, "sampler.reachability", classify), undo
    )

    def counting_worlds(*args, **kwargs):
        worlds = 0
        try:
            for item in enumerate_worlds(*args, **kwargs):
                worlds += 1
                yield item
        finally:
            tracer.count("sampler.worlds_enumerated", worlds)

    _rebind(enumerate_worlds, counting_worlds, undo)

    # reachability: layout, engine, backends
    _rebind(graph_layout, wrap(graph_layout, "layout.graph_layout"), undo)

    def count_worlds(span, result, args, kwargs):
        tracer.count("engine.worlds", result.n_samples)

    _patch_method(
        SamplingEngine, "sample_worlds", lambda f: wrap(f, "engine.sample_worlds", count_worlds), undo
    )
    _rebind(sample_flips, wrap(sample_flips, "engine.flips"), undo)
    backend_types = {type(make_backend(name)) for name in backend_names()}
    for backend_type in backend_types:
        for attribute in ("sample_reachability", "propagate_reachability"):
            if attribute in backend_type.__dict__:
                _patch_method(backend_type, attribute, lambda f: wrap(f, "engine.propagate"), undo)
    for aggregate in (
        aggregate_expected_flow,
        aggregate_pair_reachability,
        aggregate_component_reachability,
    ):
        _rebind(aggregate, wrap(aggregate, "engine.aggregate"), undo)

    # service
    def count_plan(span, plan, args, kwargs):
        tracer.count("service.groups", len(plan.groups))
        tracer.count("service.planned_requests", plan.n_requests)

    _patch_method(QueryPlanner, "plan", lambda f: wrap(f, "service.plan", count_plan), undo)

    def note_evaluation(span, results, args, kwargs):
        tracer.note_evaluation(span[2] - span[1], len(results))

    _patch_method(
        BatchEvaluator, "evaluate", lambda f: wrap(f, "service.evaluate", note_evaluation), undo
    )

    # parallel
    def count_shards(span, parts, args, kwargs):
        tracer.count("executor.shards", len(parts))

    for executor_type in (SerialExecutor, ProcessExecutor):
        _patch_method(
            executor_type,
            "map_shards",
            lambda f: wrap(f, "executor.map_shards", count_shards),
            undo,
        )

    # the benchmark's own host-speed kernel, so its time is attributed too
    _patch_method(HostSpeed, "kernel", lambda f: wrap(f, "bench.hostspeed"), undo)
    try:
        yield tracer
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


def layer_table(tracer: Tracer, start: float, end: float) -> str:
    """Per-span-name table sorted by self time, with shares of the traced wall time."""
    wall = end - start
    rows = sorted(tracer.self_times().items(), key=lambda item: -item[1][1])
    lines = [f"{'span':<24} {'calls':>9} {'self s':>10} {'share':>7}"]
    for name, (calls, seconds) in rows:
        lines.append(f"{name:<24} {calls:>9} {seconds:>10.4f} {seconds / wall:>7.1%}")
    uncovered = wall - tracer.covered_seconds(start, end)
    lines.append(f"{'(no span)':<24} {'':>9} {uncovered:>10.4f} {uncovered / wall:>7.1%}")
    return "\n".join(lines)
