"""Chunked/streaming variant of the timing replay.

:func:`run_timing_streaming` consumes the miss-request stream as bounded
:class:`~repro.cache.streaming.MissChunk` windows (typically straight
out of :class:`~repro.cache.streaming.StreamingHierarchyPass`) plus the
trace-level :class:`~repro.cache.streaming.FunctionalSummary`, and
produces a :class:`~repro.sim.result.SimResult` **bit-identical** to
``run_timing`` on the assembled trace — for every controller type, every
``mode``, and every chunking (the timing kernels are per-request scalar
recurrences, so carrying their state across chunk boundaries changes
nothing about the arithmetic or its float-addition order).

``mode="reference"`` carries the controller and the
:class:`~repro.cache.write_buffer.WriteBuffer` across chunks and calls
``controller.serve`` per request, exactly like the in-memory reference
loop.  ``mode="fast"`` carries the state of the in-memory fast kernels
instead: the deque write-buffer idiom for base_dram/base_oram, and for
static/dynamic slot controllers the in-memory kernel itself —
:class:`repro.sim.timing._SlotMachine`, the resumable scalar slot loop
(exact-integer timeline, closed-form dummy bursts, epoch transitions),
fed one chunk at a time, with the trailing dummy advance and the
counter publication at ``finish`` time.

Streaming results never record per-request arrays or the observable
trace — those are whole-trace artifacts by definition; use the
in-memory path when you need them.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.cache.streaming import FunctionalSummary, MissChunk
from repro.cache.write_buffer import WriteBuffer
from repro.core.controller import (
    FlatDramController,
    TimingProtectedController,
    UnprotectedController,
)
from repro.cpu.trace import MissTrace
from repro.sim.result import SimResult
from repro.sim.timing import _SlotMachine, _build_result


class _SummaryTrace:
    """Just enough of a ``MissTrace`` for ``_build_result``.

    With ``record_requests=False`` the result assembly touches only the
    energy events, the instruction count, and the source labels — all of
    which the functional summary carries.
    """

    def __init__(self, summary: FunctionalSummary) -> None:
        self.energy = summary.energy
        self.n_instructions = summary.n_instructions
        self.source_name = summary.source_name
        self.source_input = summary.source_input


def summary_of(miss_trace: MissTrace) -> FunctionalSummary:
    """The streaming summary equivalent of an in-memory miss trace."""
    return FunctionalSummary(
        total_compute_cycles=miss_trace.total_compute_cycles,
        n_instructions=miss_trace.n_instructions,
        energy=miss_trace.energy,
        source_name=miss_trace.source_name,
        source_input=miss_trace.source_input,
    )


def miss_trace_chunks(miss_trace: MissTrace, chunk_requests: int):
    """Slice an in-memory miss trace into streamed chunks (test helper)."""
    if chunk_requests <= 0:
        raise ValueError(f"chunk_requests must be positive, got {chunk_requests}")
    n = len(miss_trace.gap_cycles)
    for start in range(0, n, chunk_requests):
        stop = start + chunk_requests
        yield MissChunk(
            gap_cycles=miss_trace.gap_cycles[start:stop],
            is_blocking=miss_trace.is_blocking[start:stop],
            instruction_index=miss_trace.instruction_index[start:stop],
        )


def run_timing_streaming(
    miss_chunks: Iterable[MissChunk],
    summary: FunctionalSummary | MissTrace,
    scheme,
    write_buffer_entries: int = 8,
    mode: str = "fast",
) -> SimResult:
    """Streaming counterpart of :func:`repro.sim.timing.run_timing`.

    ``summary`` may be a :class:`FunctionalSummary`, an in-memory
    ``MissTrace`` whose totals are used directly, or — for lazy
    pipelining straight out of :func:`repro.cache.streaming
    .stream_functional` — a zero-argument callable evaluated only after
    the miss-chunk iterator is exhausted (e.g. ``machine.finish``).
    """
    if mode not in ("fast", "reference"):
        raise ValueError(f"mode must be 'fast' or 'reference', got {mode!r}")
    controller = scheme.build_controller()
    if mode == "fast" and type(controller) is FlatDramController:
        machine = _StreamFlatDram(controller, write_buffer_entries)
    elif mode == "fast" and type(controller) is UnprotectedController:
        machine = _StreamUnprotected(controller, write_buffer_entries)
    elif mode == "fast" and type(controller) is TimingProtectedController:
        machine = _SlotMachine(controller, write_buffer_entries)
    else:
        machine = _StreamReference(controller, write_buffer_entries)

    for chunk in miss_chunks:
        machine.feed(chunk)
    if callable(summary):
        summary = summary()
    if isinstance(summary, MissTrace):
        summary = summary_of(summary)
    end_time = machine.finish(summary)
    return _build_result(
        _SummaryTrace(summary), scheme, controller, end_time,
        completions=None, record_requests=False, record_observable_trace=False,
    )


# ----------------------------------------------------------------------
# Per-controller streaming machines (state carried across chunks)
# ----------------------------------------------------------------------

class _StreamReference:
    """``controller.serve`` per request, WriteBuffer carried across chunks."""

    def __init__(self, controller, entries: int) -> None:
        self.controller = controller
        self.buffer = WriteBuffer(entries=entries)
        self.core = 0.0

    def feed(self, chunk: MissChunk) -> None:
        core = self.core
        serve = self.controller.serve
        admit = self.buffer.admit
        gaps = chunk.gap_cycles
        blocking = chunk.is_blocking
        for i in range(len(gaps)):
            issue = core + gaps[i]
            completion = serve(issue)
            if blocking[i]:
                core = completion
            else:
                core = admit(issue, completion)
        self.core = core

    def finish(self, summary: FunctionalSummary) -> float:
        end_time = self.core + summary.total_compute_cycles
        end_time = max(end_time, self.buffer.drain_all())
        self.controller.finalize(end_time)
        return float(end_time)


class _StreamFlatDram:
    """base_dram: flat latency, deque write-buffer idiom."""

    def __init__(self, controller, entries: int) -> None:
        self.controller = controller
        self.entries = entries
        self.core = 0.0
        self.n = 0
        self.buffer: deque = deque()

    def feed(self, chunk: MissChunk) -> None:
        core = self.core
        entries = self.entries
        latency = self.controller.latency
        buffer = self.buffer
        buf_pop = buffer.popleft
        buf_push = buffer.append
        gaps = chunk.gap_cycles.tolist()
        blocking = chunk.is_blocking.tolist()
        for i in range(len(gaps)):
            issue = core + gaps[i]
            completion = issue + latency
            if blocking[i]:
                core = completion
            else:
                while buffer and buffer[0] <= issue:
                    buf_pop()
                proceed = issue
                while len(buffer) >= entries:
                    oldest = buf_pop()
                    if oldest > proceed:
                        proceed = oldest
                buf_push(completion)
                core = proceed
        self.core = core
        self.n += len(gaps)

    def finish(self, summary: FunctionalSummary) -> float:
        self.controller.stats.real_accesses = self.n
        end_time = self.core + summary.total_compute_cycles
        drain = self.buffer[-1] if self.buffer else 0.0
        return float(max(end_time, drain))


class _StreamUnprotected:
    """base_oram: single-ported serialization, deque write-buffer idiom."""

    def __init__(self, controller, entries: int) -> None:
        self.controller = controller
        self.entries = entries
        self.core = 0.0
        self.prev = 0.0
        self.real = 0
        self.buffer: deque = deque()

    def feed(self, chunk: MissChunk) -> None:
        core = self.core
        prev = self.prev
        real = self.real
        entries = self.entries
        latency = self.controller.latency
        buffer = self.buffer
        buf_pop = buffer.popleft
        buf_push = buffer.append
        gaps = chunk.gap_cycles.tolist()
        blocking = chunk.is_blocking.tolist()
        for i in range(len(gaps)):
            issue = core + gaps[i]
            start = issue if issue > prev else prev
            completion = start + latency
            prev = completion
            real += 1
            if blocking[i]:
                core = completion
            else:
                while buffer and buffer[0] <= issue:
                    buf_pop()
                proceed = issue
                while len(buffer) >= entries:
                    oldest = buf_pop()
                    if oldest > proceed:
                        proceed = oldest
                buf_push(completion)
                core = proceed
        self.core = core
        self.prev = prev
        self.real = real

    def finish(self, summary: FunctionalSummary) -> float:
        self.controller.stats.real_accesses = self.real
        end_time = self.core + summary.total_compute_cycles
        drain = self.buffer[-1] if self.buffer else 0.0
        return float(max(end_time, drain))
