"""Chunked/streaming entry points of the functional cache pass.

The functional kernel is resumable by construction: its machine,
:class:`~repro.cache.vectorized.StreamingHierarchyPass`, carries the
L1/L2 state, the LRU stamp base, the instruction counter, the warm-up
flag, the event counters and the open segment's cycle accumulator
across :meth:`~StreamingHierarchyPass.feed` calls.  The in-memory
``simulate_hierarchy(mode="fast")`` is the same machine fed the whole
trace at once, so a streamed trace replays at fast-kernel speed and its
request stream is **bit-identical** to ``simulate_hierarchy`` for *any*
chunking — including one reference at a time.  Only peak memory
changes: each feed walks its chunk in fixed steps of
:data:`repro.cache.vectorized.DEFAULT_CHUNK_REFS` references, so the
working set is one step plus the cache resident sets, however large the
chunk or the trace.

``tests/ingest/test_streaming_equivalence.py`` pins the digest equality
across randomized and pathological chunkings against both the in-memory
pass and the scalar oracle ``simulate_hierarchy_reference``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.cpu.core import CoreModel
from repro.cpu.trace import MemoryTrace, MissTrace
from repro.cache.hierarchy import HierarchyConfig
from repro.cache.vectorized import (
    FunctionalSummary,
    MissChunk,
    StreamingHierarchyPass,
    assemble_miss_trace,
    concat_requests,
)
from repro.ingest.formats import (
    DEFAULT_CHUNK_REFS,
    TraceChunk,
    TraceHeader,
    header_for,
    trace_chunks,
)

__all__ = [
    "FunctionalSummary",
    "MissChunk",
    "StreamingHierarchyPass",
    "run_functional_streaming",
    "stream_functional",
]


def stream_functional(
    header: TraceHeader,
    chunks: Iterable[TraceChunk],
    config: HierarchyConfig | None = None,
    core: CoreModel | None = None,
    warmup_instructions: int = 0,
) -> tuple[Iterator[MissChunk], StreamingHierarchyPass]:
    """Lazy pipeline stage: trace chunks in, miss chunks out.

    Returns the miss-chunk iterator plus the machine itself; call
    ``machine.finish()`` after exhausting the iterator to obtain the
    :class:`FunctionalSummary` the timing replay needs.
    """
    machine = StreamingHierarchyPass(
        header, config, core, warmup_instructions=warmup_instructions
    )

    def emit() -> Iterator[MissChunk]:
        for chunk in chunks:
            yield machine.feed(chunk)

    return emit(), machine


def run_functional_streaming(
    trace: MemoryTrace | TraceHeader,
    config: HierarchyConfig | None = None,
    core: CoreModel | None = None,
    warmup_instructions: int = 0,
    chunk_refs: int = DEFAULT_CHUNK_REFS,
    chunks: Iterable[TraceChunk] | None = None,
) -> MissTrace:
    """Streaming counterpart of :func:`repro.cache.hierarchy.simulate_hierarchy`.

    Accepts either an in-memory trace (chunked internally at
    ``chunk_refs``) or a ``TraceHeader`` plus an external chunk iterable
    (the ingest path).  Output is bit-identical to the in-memory kernels
    for every chunking.
    """
    if isinstance(trace, MemoryTrace):
        if chunks is not None:
            raise ValueError("pass either a MemoryTrace or (header, chunks), not both")
        header = header_for(trace)
        chunks = trace_chunks(trace, chunk_refs)
    else:
        header = trace
        if chunks is None:
            raise ValueError("streaming from a TraceHeader needs a chunk iterable")

    miss_chunks, machine = stream_functional(
        header, chunks, config, core, warmup_instructions=warmup_instructions
    )
    requests = concat_requests(
        (c.gap_cycles, c.is_blocking, c.instruction_index) for c in miss_chunks
    )
    return assemble_miss_trace(requests, machine.finish())
