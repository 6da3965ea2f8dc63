"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrappers that this file installs around calls
into each layer's public functions, so nothing under ``src/`` changes.
Wrappers are installed only for the duration of a traced operation
(:meth:`Tracer.operation`); untraced operations run the pristine
functions.  Every span carries the id of the operation it belongs to
and the id of the span that was open when it started (its parent).

Only spans opened on the benchmark process's main thread are recorded.  Queue
workers are spawned interpreters, where these wrappers do not exist.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time
from collections import defaultdict

#: Layer names are the ``src/repro`` module names.
LAYERS = ("workloads", "cache", "sim", "core", "ingest", "api", "dist")

#: Reported on its own; the rest of ``api`` is the ``api`` layer.
ENGINE_SPAN = "api.engine"

#: Layers that execute cells.  On the queue fleet they run inside the
#: workers, so their numbers come from the traced serial replay.
CELL_LAYERS = ("workloads", "cache", "sim", "core")

#: Coordinator polls: their count depends on timing, not on the work.
POLL_SPAN = "dist.queue.finished"

#: Spans that replay requests; their work is the requests replayed.
REPLAY_SPANS = ("sim.run_timing", "sim.run_timing_batch", "sim.streaming")


def _targets():
    """(owner, attribute, span name) for every wrapped call site.

    Module-level functions are wrapped in the namespace of the module
    that calls them, because callers bind the name at import time.
    """
    import repro.api.backends as backends
    import repro.api.cache as api_cache
    import repro.api.engine as engine
    import repro.api.execution as execution
    import repro.cache.streaming as cache_streaming
    import repro.core.scheme as core_scheme
    import repro.dist.backend as dist_backend
    import repro.dist.queue as dist_queue
    import repro.ingest.store as ingest_store
    import repro.sim.simulator as simulator
    import repro.sim.streaming as sim_streaming

    return [
        (engine.Engine, "run", ENGINE_SPAN),
        (backends.SerialBackend, "run_cells", "api.backends.run_cells"),
        (api_cache.ResultCache, "get", "api.results.get"),
        (api_cache.ResultCache, "put", "api.results.put"),
        (api_cache.TraceCache, "get", "api.traces.get"),
        (api_cache.TraceCache, "put", "api.traces.put"),
        (api_cache.TraceCache, "has", "api.traces.has"),
        (execution, "scheme_from_spec", "core.scheme_from_spec"),
        (core_scheme, "scheme_from_spec", "core.scheme_from_spec"),
        (execution, "ipc_windows", "sim.windows"),
        (execution, "instructions_per_access_windows", "sim.windows"),
        (execution, "epoch_transition_instructions", "sim.windows"),
        (simulator.SecureProcessorSim, "miss_trace", "sim.miss_trace"),
        (simulator, "build_trace", "workloads.build_trace"),
        (simulator, "simulate_hierarchy", "cache.simulate_hierarchy"),
        (simulator, "run_timing", "sim.run_timing"),
        (simulator, "run_timing_batch", "sim.run_timing_batch"),
        (cache_streaming, "stream_functional", "cache.streaming.open"),
        (cache_streaming.StreamingHierarchyPass, "feed", "cache.streaming.feed"),
        (cache_streaming.StreamingHierarchyPass, "finish", "cache.streaming.finish"),
        (sim_streaming, "run_timing_streaming", "sim.streaming"),
        (ingest_store.IngestStore, "import_trace", "ingest.import_trace"),
        (ingest_store.IngestStore, "open_stream", "ingest.open_stream"),
        (dist_backend.WorkQueueBackend, "run_cells", "dist.run_cells"),
        (dist_backend, "spawn_worker_process", "dist.spawn"),
        (dist_queue.WorkQueue, "finished", "dist.queue.finished"),
    ]


class Tracer:
    """Records spans as ``[op, id, parent, name, start, end, work]`` rows.

    ``work`` is the amount the span processed (references for the
    functional pass, config-requests for the batched replay), or 0.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._thread = threading.get_ident()
        self._targets = _targets()

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Install the wrappers, record one operation, uninstall."""
        saved = []
        for owner, attr, name in self._targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        self._op, self._stack = op_id, []
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._op = None

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if name == "ingest.open_stream":
                header, chunks = result
                return header, tracer._traced_chunks(chunks)
            span[6] = _work_of(name, args, result)
            return result

        return traced

    def _open(self, name: str) -> list:
        span = [self._op, len(self.spans), self._stack[-1] if self._stack else None,
                name, time.perf_counter(), 0.0, 0]
        self.spans.append(span)
        self._stack.append(span[1])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def _traced_chunks(self, chunks):
        """Time the lazy chunk decoding of an opened ingest stream."""
        iterator = iter(chunks)
        while True:
            span = self._open("ingest.read")
            try:
                chunk = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(span)
            yield chunk


def _work_of(name: str, args: tuple, result) -> int:
    if name == "cache.simulate_hierarchy":
        return len(args[0].addresses)
    if name == "cache.streaming.feed":
        return len(args[1].addresses)
    if name == "sim.run_timing":
        return len(args[0].gap_cycles)
    if name == "sim.run_timing_batch":
        return len(args[0].gap_cycles) * len(args[1])
    if name == "sim.streaming":
        return result.controller.real_accesses
    if name == "sim.miss_trace":
        return 1
    return 0


def op_summary(rows: list[list], wall_s: float) -> dict:
    """Per-span-name totals and per-layer self times of one operation."""
    by_id = {span[1]: span for span in rows}
    child_s: dict[int, float] = defaultdict(float)
    for span in rows:
        if span[2] in by_id:
            child_s[span[2]] += span[5] - span[4]
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    engine_self = 0.0
    for span in rows:
        name = span[3]
        duration = span[5] - span[4]
        own = duration - child_s[span[1]]
        total[name] += duration
        self_s[name] += own
        calls[name] += 1
        work[name] += span[6]
        if name == ENGINE_SPAN:
            engine_self += own
        else:
            layer_self[name.split(".", 1)[0]] += own
    layers = sum(layer_self.values())

    def share(seconds: float) -> float:
        return seconds / wall_s if wall_s > 0 else 0.0

    return {
        "total": dict(total), "self": dict(self_s), "calls": dict(calls),
        "work": dict(work), "layer_self": layer_self, "engine_self": engine_self,
        "attributed_frac": share(engine_self + layers),
        "layer_frac": share(layers),
    }


def deterministic_counts(summary: dict) -> tuple:
    """Calls and work per span name, minus the timing-dependent polls."""
    return tuple(
        (name, summary["calls"][name], summary["work"][name])
        for name in sorted(summary["calls"]) if name != POLL_SPAN
    )


def layer_metrics(main: list[dict], inner: list[dict], untraced_wall: float,
                  traced_wall: float, counts: tuple[int, int, int]) -> dict:
    """Per-operation medians of the per-layer metrics.

    ``main`` holds the summaries of the workload's own traced
    operations; ``inner`` those of the spans that executed cells (the
    serial replay on the queue fleet, else ``main`` again).
    """
    def med(rows, fn):
        return statistics.median(fn(row) for row in rows)

    def total(rows, name):
        return med(rows, lambda s: s["total"].get(name, 0.0))

    def calls(rows, name):
        return med(rows, lambda s: s["calls"].get(name, 0))

    def rate(rows, name):
        return med(rows, lambda s: s["work"].get(name, 0) / s["total"][name] / 1e6
                   if s["total"].get(name) else 0.0)

    def hit_ratio(s):
        lookups = s["work"].get("sim.miss_trace", 0)
        passes = s["calls"].get("cache.simulate_hierarchy", 0)
        return 1.0 - passes / lookups if lookups else 0.0

    _, real, dummy = counts
    values = {
        "workloads.build_trace.s": (total(inner, "workloads.build_trace"), "s"),
        "workloads.build_trace.calls": (calls(inner, "workloads.build_trace"), "count"),
        "cache.simulate_hierarchy.s": (total(inner, "cache.simulate_hierarchy"), "s"),
        "cache.simulate_hierarchy.calls": (calls(inner, "cache.simulate_hierarchy"), "count"),
        "cache.simulate_hierarchy.mrefs_per_s": (rate(inner, "cache.simulate_hierarchy"), "Mref/s"),
        "cache.streaming.feed.s": (total(inner, "cache.streaming.feed"), "s"),
        "cache.streaming.mrefs_per_s": (rate(inner, "cache.streaming.feed"), "Mref/s"),
        "sim.run_timing_batch.s": (total(inner, "sim.run_timing_batch"), "s"),
        "sim.run_timing_batch.calls": (calls(inner, "sim.run_timing_batch"), "count"),
        "sim.run_timing_batch.mconfig_requests_per_s": (rate(inner, "sim.run_timing_batch"), "Mreq/s"),
        "sim.run_timing.s": (total(inner, "sim.run_timing"), "s"),
        "sim.run_timing.calls": (calls(inner, "sim.run_timing"), "count"),
        "sim.streaming.self_s": (med(inner, lambda s: s["self"].get("sim.streaming", 0.0)), "s"),
        "sim.requests_replayed": (med(inner, lambda s: sum(
            s["work"].get(name, 0) for name in REPLAY_SPANS)), "count"),
        "core.real_accesses": (real, "count"),
        "core.dummy_accesses": (dummy, "count"),
        "ingest.import_trace.s": (total(main, "ingest.import_trace"), "s"),
        "ingest.open_stream.s": (med(main, lambda s: s["total"].get("ingest.open_stream", 0.0)
                                     + s["total"].get("ingest.read", 0.0)), "s"),
        "api.engine.self_s": (med(main, lambda s: s["engine_self"]), "s"),
        "api.results.get.s": (total(main, "api.results.get"), "s"),
        "api.results.put.s": (total(main, "api.results.put"), "s"),
        "api.results.calls": (med(main, lambda s: s["calls"].get("api.results.get", 0)
                                  + s["calls"].get("api.results.put", 0)), "count"),
        "api.traces.get.s": (total(main, "api.traces.get"), "s"),
        "api.traces.put.s": (total(main, "api.traces.put"), "s"),
        "api.traces.hit_ratio": (med(inner, hit_ratio), "frac"),
        "api.backends.run_cells.s": (total(main, "api.backends.run_cells"), "s"),
        "dist.run_cells.s": (total(main, "dist.run_cells"), "s"),
        "dist.spawn.s": (total(main, "dist.spawn"), "s"),
        "dist.first_task_done_s": (med(main, lambda s: s.get("first_task_done_s", 0.0)), "s"),
        "dist.coordinator_polls": (calls(main, POLL_SPAN), "count"),
        "dist.attempts_per_task": (med(main, lambda s: s.get("attempts_per_task", 0.0)), "ratio"),
    }
    for layer in LAYERS:
        rows = inner if layer in CELL_LAYERS else main
        values[f"{layer}.self_s"] = (med(rows, lambda s: s["layer_self"][layer]), "s")
    attributed = [s["attributed_frac"] for s in main] + (
        [s["attributed_frac"] for s in inner] if inner is not main else [])
    values["trace.attributed_frac"] = (statistics.median(attributed), "frac")
    values["trace.layer_frac"] = (med(main, lambda s: s["layer_frac"]), "frac")
    values["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
