"""Streaming kernels are bit-identical to the in-memory kernels.

The streaming variants exist for bounded memory, not approximate
answers: for ANY chunking of the input — including chunk=1, a chunk
larger than the whole trace, and chunks that straddle epoch boundaries
of the dynamic scheme — the functional pass must produce a MissTrace
with the same ``checksum()`` as :func:`simulate_hierarchy`, and the
timing replay must produce the same cycles, counters, epoch history,
and power as :func:`run_timing`.  Chunk boundaries are an
implementation detail; these properties make that a theorem.

The functional machine is the in-memory fast kernel itself, so its
edge cases (boundaries at the warm-up crossover, runs cut by a boundary,
empty chunks, scan-mode switches) are checked against the scalar oracle
``simulate_hierarchy_reference``, and its memory is guarded: it keeps
no reference to a fed chunk, and one feed's working set stays bounded.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import (
    HierarchyConfig,
    simulate_hierarchy,
    simulate_hierarchy_reference,
)
from repro.cache.streaming import (
    StreamingHierarchyPass,
    run_functional_streaming,
    stream_functional,
)
from repro.core.epochs import EpochSchedule
from repro.core.scheme import (
    BaseDramScheme,
    BaseOramScheme,
    DynamicScheme,
    StaticScheme,
)
from repro.cpu.trace import EnergyEvents, MemoryTrace, MissTrace
from repro.ingest import TraceChunk, header_for, trace_chunks
from repro.sim.streaming import miss_trace_chunks, run_timing_streaming
from repro.sim.timing import run_timing
from repro.workloads.registry import build_trace

# Tiny epochs force many rate transitions, so nearly every random chunk
# boundary lands inside some epoch and many straddle a transition.
FAST_EPOCHS = EpochSchedule(first_epoch_cycles=1 << 10, growth=2, tmax_cycles=1 << 40)

SCHEMES = [
    BaseDramScheme(),
    BaseOramScheme(oram_latency=37),
    StaticScheme(rate=19, oram_latency=37),
    StaticScheme(rate=500, oram_latency=1488),
    DynamicScheme(schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37),
]
SCHEME_IDS = ["base_dram", "base_oram", "static_19", "static_500", "dynamic"]


@pytest.fixture(scope="module")
def workload_trace():
    return build_trace("mcf", seed=3, n_instructions=60_000)


@pytest.fixture(scope="module")
def miss_trace(workload_trace):
    return simulate_hierarchy(workload_trace)


def assert_timing_identical(miss_trace, scheme, chunk_requests, mode, entries=8):
    reference = run_timing(
        miss_trace, scheme, write_buffer_entries=entries, record_requests=False
    )
    streamed = run_timing_streaming(
        miss_trace_chunks(miss_trace, chunk_requests),
        miss_trace,
        scheme,
        write_buffer_entries=entries,
        mode=mode,
    )
    assert streamed.cycles == reference.cycles
    assert streamed.n_instructions == reference.n_instructions
    assert streamed.controller.real_accesses == reference.controller.real_accesses
    assert streamed.controller.dummy_accesses == reference.controller.dummy_accesses
    assert streamed.controller.total_waste == reference.controller.total_waste
    assert streamed.epochs == reference.epochs
    assert streamed.power_watts == reference.power_watts


class TestFunctionalStreaming:
    @pytest.mark.parametrize("chunk_refs", [1, 7, 100, 1 << 30],
                             ids=["chunk1", "chunk7", "chunk100", "chunk>trace"])
    @pytest.mark.parametrize("warmup", [0, 30_000])
    def test_checksum_matches_in_memory(self, workload_trace, chunk_refs, warmup):
        reference = simulate_hierarchy(workload_trace, warmup_instructions=warmup)
        streamed = run_functional_streaming(
            workload_trace, warmup_instructions=warmup, chunk_refs=chunk_refs
        )
        assert streamed.checksum() == reference.checksum()

    @given(chunk_refs=st.integers(min_value=1, max_value=200_000))
    @settings(max_examples=25, deadline=None)
    def test_checksum_invariant_under_any_chunking(self, chunk_refs):
        trace = build_trace("mcf", seed=3, n_instructions=60_000)
        streamed = run_functional_streaming(trace, chunk_refs=chunk_refs)
        assert streamed.checksum() == simulate_hierarchy(trace).checksum()

    def test_explicit_header_and_chunks_seam(self, workload_trace):
        # The (header, chunks) entry point — what the ingest pipeline
        # feeds — matches the whole-trace entry point.
        streamed = run_functional_streaming(
            header_for(workload_trace),
            chunks=trace_chunks(workload_trace, chunk_refs=1111),
        )
        assert streamed.checksum() == simulate_hierarchy(workload_trace).checksum()


#: 2-set/2-way L1 over a 2-set/4-way L2: a handful of lines thrashes it.
TINY = HierarchyConfig(
    l1i_bytes=256, l1i_ways=2,
    l1d_bytes=256, l1d_ways=2,
    l2_bytes=512, l2_ways=4,
    line_bytes=64,
)


def make_trace(lines, stores, gaps, name="edge"):
    return MemoryTrace(
        name=name,
        input_name="x",
        addresses=np.asarray(lines, dtype=np.uint64) * 64,
        is_store=np.asarray(stores, dtype=bool),
        gap_instructions=np.asarray(gaps, dtype=np.int64),
    )


def split_at(trace, cuts):
    """Chunks of ``trace`` cut before each index in ``cuts`` (copies)."""
    bounds = [0, *sorted(cuts), trace.n_references]
    return [
        TraceChunk(
            trace.addresses[lo:hi].copy(),
            trace.is_store[lo:hi].copy(),
            trace.gap_instructions[lo:hi].copy(),
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]


def assert_matches_oracle(trace, chunks, config=None, warmup=0):
    reference = simulate_hierarchy_reference(
        trace, config, warmup_instructions=warmup
    )
    streamed = run_functional_streaming(
        header_for(trace), config, warmup_instructions=warmup, chunks=chunks
    )
    assert streamed.checksum() == reference.checksum()
    assert type(streamed.total_compute_cycles) is float
    return reference


def crossover_index(trace, warmup):
    """Index of the first reference counted after ``warmup`` instructions."""
    cum = np.cumsum(trace.gap_instructions + 1)
    return int(np.searchsorted(cum, warmup, side="left"))


class TestResumableKernelEdges:
    """The resumable machine against the scalar oracle, case by case."""

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["before", "at", "after"])
    @pytest.mark.parametrize("bench", ["mcf", "h264ref"])
    def test_boundary_at_warmup_crossover(self, bench, offset):
        trace = build_trace(bench, seed=5, n_instructions=80_000)
        warmup = 30_000
        crossover = crossover_index(trace, warmup)
        assert 1 < crossover < trace.n_references - 1
        assert_matches_oracle(
            trace, split_at(trace, [crossover + offset]), warmup=warmup
        )

    @pytest.mark.parametrize("warmup", [0, 4])
    def test_run_straddling_a_boundary_carries_the_dirty_bit(self, warmup):
        # Line 4 is read twice in chunk one and stored in chunk two; lines
        # 0/2/6/8 then evict it from L1 and L2, so its writeback request
        # exists only if the store's dirty bit survived the boundary.
        lines = [4, 4, 4, 0, 2, 6, 8, 10, 12]
        stores = [False, False, True, False, False, False, False, False, False]
        trace = make_trace(lines, stores, [1] * len(lines))
        reference = assert_matches_oracle(
            trace, split_at(trace, [2]), TINY, warmup=warmup
        )
        assert reference.energy.writebacks == 1

    def test_warmup_longer_than_the_trace(self):
        trace = build_trace("mcf", seed=5, n_instructions=20_000)
        reference = assert_matches_oracle(
            trace, split_at(trace, [100, 101, 900]), warmup=10**9
        )
        assert reference.n_requests == 0
        assert reference.n_instructions == int(trace.gap_instructions.sum()) + trace.n_references

    def test_empty_chunk_mid_stream(self):
        trace = build_trace("mcf", seed=5, n_instructions=40_000)
        crossover = crossover_index(trace, 9_000)
        assert 0 < crossover < 500
        assert_matches_oracle(
            trace, split_at(trace, [crossover, crossover, 500, 500, 1200]),
            warmup=9_000,
        )

    @given(
        lines=st.lists(st.integers(0, 15), min_size=0, max_size=120),
        stores=st.lists(st.booleans(), min_size=120, max_size=120),
        gaps=st.lists(st.integers(0, 12), min_size=120, max_size=120),
        cuts=st.lists(st.integers(0, 120), max_size=6),
        warmup=st.sampled_from([0, 1, 40, 300, 10_000]),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_cuts_any_warmup_match_the_oracle(
        self, lines, stores, gaps, cuts, warmup
    ):
        n = len(lines)
        trace = make_trace(lines, stores[:n], gaps[:n])
        cuts = [min(cut, n) for cut in cuts]
        assert_matches_oracle(trace, split_at(trace, cuts), TINY, warmup=warmup)

    @pytest.mark.parametrize("chunk_refs", [500, 1_000, 2_000, 3_001])
    def test_scan_mode_switches_mid_chunk(self, chunk_refs):
        # The mcf pointer chase alone never leaves the scalar scan mode;
        # spliced between hit-dense h264ref phases it forces the machine
        # from vector to scalar mode and back, at points no chunk size
        # here aligns with.
        mcf = build_trace("mcf", seed=3, n_instructions=300_000)
        h264 = build_trace("h264ref", seed=3, n_instructions=300_000)
        parts = (h264, mcf, h264)
        trace = MemoryTrace(
            name="mcf-spliced", input_name="x",
            addresses=np.concatenate([p.addresses for p in parts]),
            is_store=np.concatenate([p.is_store for p in parts]),
            gap_instructions=np.concatenate([p.gap_instructions for p in parts]),
        )
        machine = StreamingHierarchyPass(header_for(trace))
        modes = ""
        for chunk in trace_chunks(trace, chunk_refs):
            machine.feed(chunk)
            modes += "v" if machine._vector_mode else "s"
        # Vector mode at some chunk end, scalar at a later one, vector
        # again after that: both switches happened inside a chunk.
        assert "vs" in modes and "sv" in modes[modes.index("vs"):]
        assert_matches_oracle(trace, trace_chunks(trace, chunk_refs))

    def test_feed_or_finish_after_finish_raise(self):
        trace = build_trace("mcf", seed=5, n_instructions=10_000)
        chunks, machine = stream_functional(
            header_for(trace), trace_chunks(trace, 500)
        )
        for _ in chunks:
            pass
        machine.finish()
        with pytest.raises(RuntimeError, match="after finish"):
            machine.feed(next(trace_chunks(trace, 10)))
        with pytest.raises(RuntimeError, match="twice"):
            machine.finish()


class TestFunctionalMemoryGuard:
    """Bounded memory is the point of streaming; pin it by allocation."""

    def test_machine_keeps_no_chunk_arrays(self):
        trace = build_trace("mcf", seed=5, n_instructions=40_000)
        machine = StreamingHierarchyPass(header_for(trace))
        chunk = split_at(trace, [])[0]
        machine.feed(chunk)
        addresses = weakref.ref(chunk.addresses)
        del chunk
        gc.collect()
        assert addresses() is None

    def test_one_mcf_feed_peak_allocation(self):
        # 65536 references, the ingest reader's default chunk.  The bound
        # sits below what a per-reference scalar loop peaks at here (about
        # 8.2 MiB) and far below one whole-chunk vectorized step (about
        # 19.9 MiB), so neither shape can come back unnoticed.
        trace = build_trace("mcf", seed=0, n_instructions=2_300_000)
        chunk = next(trace_chunks(trace, 65_536))
        assert len(chunk) == 65_536
        machine = StreamingHierarchyPass(header_for(trace))
        gc.collect()
        tracemalloc.start()
        try:
            machine.feed(chunk)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"one feed peaked at {peak / 2**20:.1f} MiB"


class TestTimingStreaming:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
    @pytest.mark.parametrize("mode", ["fast", "reference"])
    @pytest.mark.parametrize("chunk_requests", [1, 3, 50, 1 << 30],
                             ids=["chunk1", "chunk3", "chunk50", "chunk>trace"])
    def test_matches_in_memory_replay(self, miss_trace, scheme, mode, chunk_requests):
        assert_timing_identical(miss_trace, scheme, chunk_requests, mode)

    @given(chunk_requests=st.integers(min_value=1, max_value=5000),
           scheme_index=st.integers(0, len(SCHEMES) - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_any_chunking(self, chunk_requests, scheme_index):
        trace = build_trace("mcf", seed=3, n_instructions=60_000)
        assert_timing_identical(
            simulate_hierarchy(trace), SCHEMES[scheme_index], chunk_requests, "fast"
        )

    def test_single_entry_write_buffer(self, miss_trace):
        for scheme in SCHEMES:
            assert_timing_identical(miss_trace, scheme, 17, "fast", entries=1)

    def test_epoch_straddling_chunks(self, miss_trace):
        # The dynamic scheme's epoch history must be identical even when
        # a single chunk spans several epoch transitions and when every
        # chunk holds one request.
        scheme = DynamicScheme(schedule=FAST_EPOCHS, initial_rate=25, oram_latency=37)
        reference = run_timing(miss_trace, scheme, record_requests=False)
        assert len(reference.epochs) > 3, "need several epochs for this to bite"
        for chunk_requests in (1, len(reference.epochs), 1 << 30):
            assert_timing_identical(miss_trace, scheme, chunk_requests, "fast")

    def test_unknown_mode_rejected(self, miss_trace):
        with pytest.raises(ValueError, match="mode"):
            run_timing_streaming(
                miss_trace_chunks(miss_trace, 10), miss_trace,
                BaseDramScheme(), mode="psychic",
            )

    def test_callable_summary_enables_lazy_pipelines(self, workload_trace):
        # The full lazy pipeline: functional chunks flow straight into
        # the timing replay, and the summary is only materialized after
        # the chunks drain (machine.finish is the callable).
        scheme = StaticScheme(rate=100, oram_latency=200)
        chunks, machine = stream_functional(
            header_for(workload_trace), trace_chunks(workload_trace, 911)
        )
        streamed = run_timing_streaming(chunks, machine.finish, scheme)
        reference = run_timing(
            simulate_hierarchy(workload_trace), scheme, record_requests=False
        )
        assert streamed.cycles == reference.cycles
        assert streamed.power_watts == reference.power_watts


class TestChunkBounding:
    def test_reader_reslices_oversized_writer_blocks(self, tmp_path):
        # A file written with huge blocks must still stream in
        # reader-sized chunks: downstream memory is bounded by the
        # reader's chunk_refs, not by how the producer wrote the file.
        import io

        from repro.ingest import open_trace_stream, write_binary_trace

        trace = build_trace("mcf", seed=1, n_instructions=20_000)
        buffer = io.BytesIO()
        write_binary_trace(trace, buffer, block_refs=1_000_000)
        buffer.seek(0)
        header, chunks = open_trace_stream(buffer, source="big", chunk_refs=64)
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) <= 64
        assert sum(sizes) == trace.n_references


class TestDegenerateTraces:
    def test_empty_miss_trace_streams(self):
        empty = MissTrace(
            gap_cycles=np.zeros(0), is_blocking=np.zeros(0, bool),
            instruction_index=np.zeros(0, np.int64),
            total_compute_cycles=55.0, n_instructions=10,
            energy=EnergyEvents(n_instructions=10, n_memory_refs=0),
            source_name="empty", source_input="x",
        )
        for scheme in SCHEMES:
            assert_timing_identical(empty, scheme, 8, "fast")
