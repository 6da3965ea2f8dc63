"""Ingest pipeline: import throughput and the bounded-RSS guarantee.

Two measurements, both written to ``benchmarks/BENCH_ingest.json``:

* **throughput** — references/second importing each supported format
  into the content-addressed store (parse + transcode + digest + fsync);
* **peak-memory curve** — the full file-to-SimResult pipeline at 1x, 4x,
  and 16x trace size, in-memory versus streaming.  Peak traced
  allocation (``tracemalloc``) stands in for RSS: it is deterministic,
  covers the numpy buffers that dominate the footprint, and is immune
  to allocator/OS noise.

The gate is the whole point of the streaming kernels: the streaming
pipeline's peak at 16x must stay flat (within ``RSS_FLAT_FACTOR`` of the
1x peak), while the in-memory pipeline's peak grows with the trace.  A
regression that silently materializes the trace — an eager ``list()``,
a stray ``np.concatenate`` — fails here before it ships.
"""

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from benchmarks.conftest import bench_instructions, emit
from repro.cache.hierarchy import simulate_hierarchy
from repro.cache.streaming import stream_functional
from repro.core.scheme import StaticScheme
from repro.cpu.trace import MemoryTrace
from repro.ingest import (
    IngestStore,
    open_trace_stream,
    write_binary_trace,
    write_text_trace,
)
from repro.sim.streaming import run_timing_streaming
from repro.sim.timing import run_timing

ARTIFACT = Path(__file__).parent / "BENCH_ingest.json"

#: Streaming chunk size used throughout (the tradeoffs.md default zone).
CHUNK_REFS = 4096

#: Trace-size multipliers for the memory curve.
SCALES = (1, 4, 16)

#: The streaming pipeline's 16x peak must stay within this factor of its
#: 4x peak — "bounded RSS" made falsifiable.  The 4x point (not 1x) is
#: the baseline because the functional machine's cache-model state is
#: bounded by cache *capacity*, which a 1x trace hasn't fully touched
#: yet: between 1x and 4x the peak grows as the model warms, then
#: plateaus.  A pipeline that materializes the trace grows 4x here.
RSS_FLAT_FACTOR = 1.5

#: And it must beat the in-memory pipeline at 16x by at least this much.
RSS_WIN_FACTOR = 4.0

SCHEME = StaticScheme(rate=100, oram_latency=200)


def _base_refs() -> int:
    # ~1 memory reference per 40 instructions keeps the in-memory side's
    # scalar reference pass affordable at 16x while leaving the footprint
    # gap between the pipelines unmistakable.
    return max(4_000, bench_instructions() // 40)


def make_trace(n: int) -> MemoryTrace:
    rng = np.random.default_rng(17)
    return MemoryTrace(
        "bench-ingest", "synthetic",
        rng.integers(0, 1 << 32, size=n, dtype=np.uint64) * 8,
        rng.random(n) < 0.3,
        rng.integers(0, 40, size=n, dtype=np.int64),
    )


def _write_formats(trace: MemoryTrace, root: Path) -> dict[str, Path]:
    paths = {
        "text": root / "t.trace",
        "text.gz": root / "t.trace.gz",
        "binary": root / "t.rtb",
        "binary.gz": root / "t.rtb.gz",
    }
    write_text_trace(trace, paths["text"])
    write_text_trace(trace, paths["text.gz"], compress=True)
    write_binary_trace(trace, paths["binary"])
    write_binary_trace(trace, paths["binary.gz"], compress=True)
    return paths


def measure_throughput(workdir: Path) -> dict:
    n = _base_refs()
    paths = _write_formats(make_trace(n), workdir / "inputs")
    store = IngestStore(workdir / "store")
    rows = {}
    for label, path in paths.items():
        start = time.perf_counter()
        digest = store.import_trace(path, chunk_refs=CHUNK_REFS)
        elapsed = time.perf_counter() - start
        rows[label] = {
            "references": n,
            "input_bytes": path.stat().st_size,
            "seconds": round(elapsed, 4),
            "refs_per_s": round(n / elapsed),
        }
        assert store.has(digest)
    return rows


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _run_in_memory(path: Path) -> None:
    from repro.ingest import load_memory_trace

    trace = load_memory_trace(path)
    miss_trace = simulate_hierarchy(trace, mode="reference")
    run_timing(miss_trace, SCHEME, record_requests=False)


def _run_streaming(path: Path) -> None:
    header, chunks = open_trace_stream(path, chunk_refs=CHUNK_REFS)
    miss_chunks, machine = stream_functional(header, chunks)
    run_timing_streaming(miss_chunks, machine.finish, SCHEME)


def measure_memory_curve(workdir: Path) -> list[dict]:
    curve = []
    for scale in SCALES:
        n = _base_refs() * scale
        path = workdir / f"scale{scale}.rtb"
        # Built outside the measurement; block size matches the read
        # chunking (what a canonical store entry looks like), so the
        # one-block read buffer is constant across scales.
        write_binary_trace(make_trace(n), path, block_refs=CHUNK_REFS)
        curve.append({
            "scale": scale,
            "references": n,
            "in_memory_peak_bytes": _peak_bytes(lambda: _run_in_memory(path)),
            "streaming_peak_bytes": _peak_bytes(lambda: _run_streaming(path)),
        })
    return curve


def test_bench_ingest(benchmark, tmp_path):
    throughput, curve = benchmark.pedantic(
        lambda: (measure_throughput(tmp_path), measure_memory_curve(tmp_path)),
        rounds=1, iterations=1,
    )

    warm, last = curve[-2], curve[-1]
    flat_ratio = last["streaming_peak_bytes"] / warm["streaming_peak_bytes"]
    assert flat_ratio <= RSS_FLAT_FACTOR, (
        f"streaming peak grew {flat_ratio:.2f}x from {warm['scale']}x to "
        f"{last['scale']}x trace size — the pipeline is materializing something"
    )
    win = last["in_memory_peak_bytes"] / last["streaming_peak_bytes"]
    assert win >= RSS_WIN_FACTOR, (
        f"streaming only {win:.2f}x below in-memory peak at {last['scale']}x"
    )
    for row in curve[1:]:
        assert row["in_memory_peak_bytes"] > row["streaming_peak_bytes"]

    payload = {
        "config": {
            "base_references": _base_refs(),
            "chunk_refs": CHUNK_REFS,
            "scheme": "static:100",
            "rss_flat_factor_limit": RSS_FLAT_FACTOR,
            "rss_win_factor_floor": RSS_WIN_FACTOR,
        },
        "throughput": throughput,
        "peak_memory_curve": curve,
        "gate": {
            "streaming_flat_ratio_16x_vs_4x": round(flat_ratio, 3),
            "in_memory_over_streaming_at_16x": round(win, 1),
        },
    }
    ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    lines = [
        f"{label:>10}: {row['refs_per_s']:>9,} refs/s "
        f"({row['input_bytes']:,} input bytes)"
        for label, row in throughput.items()
    ]
    lines.append("")
    for row in curve:
        lines.append(
            f"{row['scale']:>3}x ({row['references']:,} refs): "
            f"in-memory {row['in_memory_peak_bytes'] / 1e6:7.1f} MB peak, "
            f"streaming {row['streaming_peak_bytes'] / 1e6:7.1f} MB peak"
        )
    lines.append("")
    lines.append(
        f"streaming peak {warm['scale']}x -> {last['scale']}x: {flat_ratio:.2f}x "
        f"(limit {RSS_FLAT_FACTOR}x); beats in-memory by {win:.1f}x at "
        f"{last['scale']}x"
    )
    emit("Ingest: import throughput and bounded-RSS streaming replay",
         "\n".join(lines))
