"""Microbenchmark runner for the simulation kernels.

Five tiers, mirroring the layers this repository's runtime is spent in:

* **functional** — :func:`repro.cache.hierarchy.simulate_hierarchy` on a
  pinned trace, fast kernel vs scalar reference, with a
  :meth:`~repro.cpu.trace.MissTrace.checksum` equivalence check, plus a
  streaming row: the same trace fed to the resumable kernel in
  ingest-sized chunks, timed as a same-process ratio to the in-memory pass;
* **timing** — :func:`repro.sim.timing.run_timing` replays of that trace
  under representative schemes, fast vs reference, with a
  :class:`~repro.sim.result.SimResult` equivalence check;
* **oram** — a functional Path ORAM access burst (2^14 blocks, null
  cipher, mixed reads/writes/dummies): the batched array engine
  (:class:`repro.oram.engine.BatchedPathORAM`) vs the scalar reference
  controller, with a ``state_checksum()`` equivalence check over
  position map + stash + tree;
* **frontier_cell** — one frontier cell's replay workload: a 16-config
  dynamic-grid slice replayed by one
  :func:`repro.sim.timing.run_timing_batch` call versus 16 sequential
  reference replays, with per-config SimResult equivalence checks, and
  versus 16 sequential fast ``run_timing`` replays (the per-scheme
  kernels a batch must not lose to), on dense and sparse traces;
* **tenancy_step** — the multi-tenant service step: 16 closed-loop
  tenants on one shared bank, the batched scheduler (one
  ``access_batch`` call per round) versus round-robin (one call per
  request), with per-tenant result-digest equivalence checks;
* **sweep** — an end-to-end :class:`repro.api.engine.Engine` sweep
  (trace build + functional pass + timing replays), timed as cells/sec.

Workloads are pinned and deterministic (fixed seeds, fixed sizes) so
throughput numbers are comparable across commits; the committed
``benchmarks/baselines.json`` freezes them into a CI gate.

The headline workload is ``kernel_stream`` — an L1-resident streaming
kernel (16 KB region, 8-byte stride) that measures the vectorized
pass at full tilt.  The other entries keep the report honest across the
memory-behaviour spectrum: ``libquantum`` streams through DRAM (misses
dominate), ``mcf`` pointer-chases (the pathological all-miss case where
the kernels can only match the reference), and ``h264ref`` is the
compute-bound paper workload.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.cache.hierarchy import (
    simulate_hierarchy,
    simulate_hierarchy_reference,
)
from repro.cache.streaming import run_functional_streaming
from repro.cpu.trace import MemoryTrace, MissTrace
from repro.sim.timing import run_timing, run_timing_batch
from repro.core.scheme import expand_scheme_grid, scheme_from_spec
from repro.util.rng import make_rng
from repro.workloads.patterns import stream
from repro.workloads.registry import build_trace

#: Pinned perf workloads: name -> builder kwargs.  ``kernel_stream`` is
#: synthetic (built here); the rest come from the workload registry.
PERF_WORKLOADS: tuple[str, ...] = (
    "kernel_stream",
    "libquantum",
    "mcf",
    "h264ref",
)

#: Schemes the timing tier replays (one per controller kernel).
PERF_SCHEMES: tuple[str, ...] = ("base_dram", "base_oram", "static:300", "dynamic:4x4")

#: The pinned frontier-cell batch: a 16-config slice of the dynamic
#: design-space grid (4 rate-set sizes x 4 epoch growths), replayed by
#: one ``run_timing_batch`` call per (workload, repeat).
FRONTIER_CELL_GRID = "grid:dynamic:{rates=2,4,6,8}x{epochs=2,4,6,9}:{learner=avg}"

#: Workloads the frontier-cell tier replays: two request-dense streams,
#: where lockstep runs certify, and a sparse one (``gobmk``), where
#: nearly every request needs dummies and the batch runs per config.
FRONTIER_CELL_WORKLOADS: tuple[str, ...] = ("libquantum", "mcf", "gobmk")

#: The perf-suite tiers, in execution order.
PERF_TIERS: tuple[str, ...] = (
    "functional", "timing", "oram", "frontier_cell", "tenancy_step", "sweep"
)

#: Chunk size of the functional tier's streamed row.  Small enough that
#: every workload crosses many chunk boundaries (quick-mode libquantum
#: has about 23k references), large enough to sit on the measured
#: plateau where per-feed dispatch is noise (docs/tradeoffs.md, Part 5).
STREAMING_CHUNK_REFS = 4096

#: Post-warm-up instruction budgets.
FULL_INSTRUCTIONS = 1_000_000
QUICK_INSTRUCTIONS = 300_000

#: The pinned ORAM access-burst workload: 2^14 addressable blocks, Z=4,
#: 64-byte lines, uniform addresses with 10% dummies and 1/3 writes.
ORAM_WORKLOAD = "oram_burst"
ORAM_BLOCKS = 1 << 14
ORAM_FULL_ACCESSES = 4_000
ORAM_QUICK_ACCESSES = 1_200

#: The pinned tenancy-step workload: 16 closed-loop tenants saturating
#: the shared bank (every round batches all 16 head-of-line requests).
TENANCY_TENANTS = 16
TENANCY_FULL_REQUESTS = 256
TENANCY_QUICK_REQUESTS = 96


def build_perf_trace(name: str, n_instructions: int, seed: int = 0) -> MemoryTrace:
    """Build one pinned perf workload trace.

    ``kernel_stream`` is an L1-resident 8-byte-stride stream over 16 KB
    with short compute gaps — after the first lap every reference hits
    L1, which is exactly the regime the vectorized hit path targets.
    Registry names delegate to the normal workload builders.
    """
    if name != "kernel_stream":
        return build_trace(name, seed=seed, n_instructions=n_instructions)
    rng = make_rng(seed, "perf.kernel_stream")
    mean_gap = 2.0
    n_refs = int(n_instructions / (mean_gap + 1.0))
    segment = stream(
        rng,
        n_refs=n_refs,
        base=1 << 20,
        region_bytes=16 * 1024,
        stride_bytes=8,
        mean_gap=mean_gap,
        store_fraction=0.2,
    )
    return MemoryTrace(
        name="kernel_stream",
        input_name="l1_resident",
        addresses=segment.addresses,
        is_store=segment.is_store,
        gap_instructions=segment.gap_instructions,
    )


@dataclass
class FunctionalBench:
    """One functional-pass measurement (fast vs reference)."""

    workload: str
    n_instructions: int
    n_refs: int
    n_requests: int
    reference_s: float
    fast_s: float
    speedup: float
    refs_per_sec_fast: float
    refs_per_sec_reference: float
    #: The streamed pass (``run_functional_streaming`` in
    #: :data:`STREAMING_CHUNK_REFS`-reference chunks) and its speed over
    #: the in-memory fast pass's, both timed in one process so host speed
    #: cancels out of the ratio.
    refs_per_sec_streaming: float
    streaming_ratio: float
    checksum: str
    #: Fast and streamed outputs both match the reference bit-for-bit.
    equivalent: bool


@dataclass
class TimingBench:
    """One timing-replay measurement (fast vs reference)."""

    workload: str
    scheme: str
    n_requests: int
    reference_s: float
    fast_s: float
    speedup: float
    requests_per_sec_fast: float
    requests_per_sec_reference: float
    equivalent: bool


@dataclass
class OramBench:
    """One functional-ORAM burst measurement (batched engine vs reference)."""

    workload: str
    n_blocks: int
    levels: int
    z: int
    n_accesses: int
    reference_s: float
    fast_s: float
    speedup: float
    accesses_per_sec_fast: float
    accesses_per_sec_reference: float
    checksum: str
    equivalent: bool


@dataclass
class FrontierCellBench:
    """One frontier-cell measurement: batched replay vs sequential oracle.

    ``reference_s`` times ``n_configs`` sequential ``mode="reference"``
    replays (the per-scheme oracle, consistent with every other tier);
    ``fast_s`` times the single ``run_timing_batch`` call that replaces
    them in a frontier sweep; ``per_scheme_s`` times ``n_configs``
    sequential fast ``run_timing`` replays, the alternative a batch
    must not lose to.
    """

    workload: str
    grid: str
    n_configs: int
    n_requests: int
    reference_s: float
    fast_s: float
    speedup: float
    #: Config-requests per second: n_configs * n_requests / wall.
    requests_per_sec_fast: float
    requests_per_sec_reference: float
    equivalent: bool
    #: Per-scheme fast replays, timed alternating with the batch in one
    #: process so host speed cancels out of their ratio.
    per_scheme_s: float
    speedup_vs_per_scheme: float


@dataclass
class TenancyBench:
    """One multi-tenant service-step measurement (batched vs round-robin).

    Both schedulers run the identical tenant set to completion on the
    shared bank; ``equivalent`` checks the scheduler-invariance contract
    (per-tenant result digests identical between the two runs).
    """

    workload: str
    n_tenants: int
    requests_per_tenant: int
    n_requests: int
    reference_s: float
    fast_s: float
    speedup: float
    requests_per_sec_fast: float
    requests_per_sec_reference: float
    equivalent: bool


@dataclass
class SweepBench:
    """End-to-end engine sweep measurement."""

    benchmarks: tuple[str, ...]
    schemes: tuple[str, ...]
    n_instructions: int
    cells: int
    wall_s: float
    cells_per_sec: float


@dataclass
class PerfReport:
    """Full perf-suite output (serializes to BENCH_perf.json)."""

    version: int
    quick: bool
    n_instructions: int
    repeats: int
    functional: list[FunctionalBench] = field(default_factory=list)
    timing: list[TimingBench] = field(default_factory=list)
    oram: list[OramBench] = field(default_factory=list)
    frontier_cell: list[FrontierCellBench] = field(default_factory=list)
    tenancy_step: list[TenancyBench] = field(default_factory=list)
    sweep: SweepBench | None = None

    @property
    def all_equivalent(self) -> bool:
        """True when every fast-path run matched its reference bit-for-bit."""
        return (
            all(b.equivalent for b in self.functional)
            and all(b.equivalent for b in self.timing)
            and all(b.equivalent for b in self.oram)
            and all(b.equivalent for b in self.frontier_cell)
            and all(b.equivalent for b in self.tenancy_step)
        )

    def functional_speedup(self, workload: str) -> float | None:
        """Measured functional-pass speedup for one workload."""
        for bench in self.functional:
            if bench.workload == workload:
                return bench.speedup
        return None

    def oram_speedup(self, workload: str) -> float | None:
        """Measured ORAM-burst speedup for one workload."""
        for bench in self.oram:
            if bench.workload == workload:
                return bench.speedup
        return None

    def frontier_cell_speedup(self, workload: str) -> float | None:
        """Measured batched-replay speedup for one workload."""
        for bench in self.frontier_cell:
            if bench.workload == workload:
                return bench.speedup
        return None

    def tenancy_step_speedup(self, workload: str) -> float | None:
        """Measured batched-scheduler speedup for one tenancy workload."""
        for bench in self.tenancy_step:
            if bench.workload == workload:
                return bench.speedup
        return None

    def to_dict(self) -> dict:
        """JSON-ready payload."""
        payload = asdict(self)
        if self.sweep is not None:
            payload["sweep"]["benchmarks"] = list(self.sweep.benchmarks)
            payload["sweep"]["schemes"] = list(self.sweep.schemes)
        return payload

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"perf suite ({'quick' if self.quick else 'full'}, "
            f"{self.n_instructions} instructions, best of {self.repeats})",
            "",
            "functional pass (refs/sec):",
        ]
        for b in self.functional:
            flag = "ok" if b.equivalent else "MISMATCH"
            lines.append(
                f"  {b.workload:>14}: {b.refs_per_sec_fast:>12,.0f} fast"
                f"  {b.refs_per_sec_reference:>12,.0f} ref"
                f"  {b.speedup:5.1f}x  [{flag}]"
            )
            lines.append(
                f"  {'streamed':>14}: {b.refs_per_sec_streaming:>12,.0f} in "
                f"{STREAMING_CHUNK_REFS}-ref chunks, {b.streaming_ratio:.2f}x of fast"
            )
        lines.append("timing replay (requests/sec):")
        for b in self.timing:
            flag = "ok" if b.equivalent else "MISMATCH"
            lines.append(
                f"  {b.workload:>14} {b.scheme:>12}: {b.requests_per_sec_fast:>12,.0f} fast"
                f"  {b.requests_per_sec_reference:>12,.0f} ref"
                f"  {b.speedup:5.1f}x  [{flag}]"
            )
        lines.append("functional ORAM (accesses/sec):")
        for b in self.oram:
            flag = "ok" if b.equivalent else "MISMATCH"
            lines.append(
                f"  {b.workload:>14}: {b.accesses_per_sec_fast:>12,.0f} fast"
                f"  {b.accesses_per_sec_reference:>12,.0f} ref"
                f"  {b.speedup:5.1f}x  [{flag}]"
            )
        if self.frontier_cell:
            lines.append("frontier cell (config-requests/sec):")
        for b in self.frontier_cell:
            flag = "ok" if b.equivalent else "MISMATCH"
            lines.append(
                f"  {b.workload:>14} x{b.n_configs} configs:"
                f" {b.requests_per_sec_fast:>12,.0f} batched"
                f"  {b.requests_per_sec_reference:>12,.0f} ref"
                f"  {b.speedup:5.1f}x  [{flag}]"
                f"  {b.speedup_vs_per_scheme:.2f}x of per-scheme fast"
            )
        if self.tenancy_step:
            lines.append("tenancy step (requests/sec):")
        for b in self.tenancy_step:
            flag = "ok" if b.equivalent else "MISMATCH"
            lines.append(
                f"  {b.workload:>14}: {b.requests_per_sec_fast:>12,.0f} batched"
                f"  {b.requests_per_sec_reference:>12,.0f} rr"
                f"  {b.speedup:5.1f}x  [{flag}]"
            )
        if self.sweep is not None:
            lines.append(
                f"end-to-end sweep: {self.sweep.cells} cells in "
                f"{self.sweep.wall_s:.2f}s = {self.sweep.cells_per_sec:.1f} cells/sec"
            )
        return "\n".join(lines)


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """Minimum wall time over ``repeats`` calls, plus the last value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best, value


def _results_equivalent(fast, ref) -> bool:
    """Bit-level SimResult comparison (the timing equivalence contract)."""
    return (
        fast.cycles == ref.cycles
        and fast.n_instructions == ref.n_instructions
        and fast.controller.real_accesses == ref.controller.real_accesses
        and fast.controller.dummy_accesses == ref.controller.dummy_accesses
        and fast.controller.total_waste == ref.controller.total_waste
        and fast.epochs == ref.epochs
        and np.asarray(fast.request_completion_times, dtype=np.float64).tobytes()
        == np.asarray(ref.request_completion_times, dtype=np.float64).tobytes()
        and fast.power_watts == ref.power_watts
    )


def bench_functional(
    workload: str, n_instructions: int, repeats: int, warmup_fraction: float = 0.30
) -> tuple[FunctionalBench, MissTrace]:
    """Time the functional pass on one workload, fast vs reference."""
    warmup = int(n_instructions * warmup_fraction)
    trace = build_perf_trace(workload, n_instructions + warmup)
    ref_s, ref_mt = _best_of(
        lambda: simulate_hierarchy_reference(trace, warmup_instructions=warmup),
        max(1, repeats // 2),
    )
    # Fast and streamed passes alternate, so a burst of host load hits
    # both sides of their ratio alike.
    fast_s = streaming_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fast_mt = simulate_hierarchy(trace, warmup_instructions=warmup, mode="fast")
        t1 = time.perf_counter()
        streamed_mt = run_functional_streaming(
            trace, warmup_instructions=warmup, chunk_refs=STREAMING_CHUNK_REFS
        )
        t2 = time.perf_counter()
        fast_s = min(fast_s, t1 - t0)
        streaming_s = min(streaming_s, t2 - t1)
    checksum = fast_mt.checksum()
    bench = FunctionalBench(
        workload=workload,
        n_instructions=n_instructions,
        n_refs=trace.n_references,
        n_requests=fast_mt.n_requests,
        reference_s=ref_s,
        fast_s=fast_s,
        speedup=ref_s / fast_s,
        refs_per_sec_fast=trace.n_references / fast_s,
        refs_per_sec_reference=trace.n_references / ref_s,
        refs_per_sec_streaming=trace.n_references / streaming_s,
        streaming_ratio=fast_s / streaming_s,
        checksum=checksum,
        equivalent=ref_mt.checksum() == checksum == streamed_mt.checksum(),
    )
    return bench, fast_mt


def bench_timing(
    workload: str, miss_trace: MissTrace, scheme_spec: str, repeats: int
) -> TimingBench:
    """Time the replay of one miss trace under one scheme."""
    scheme = scheme_from_spec(scheme_spec)
    ref_s, ref_result = _best_of(
        lambda: run_timing(miss_trace, scheme, mode="reference"),
        max(1, repeats // 2),
    )
    fast_s, fast_result = _best_of(
        lambda: run_timing(miss_trace, scheme, mode="fast"), repeats
    )
    n = miss_trace.n_requests
    return TimingBench(
        workload=workload,
        scheme=scheme_spec,
        n_requests=n,
        reference_s=ref_s,
        fast_s=fast_s,
        speedup=ref_s / fast_s,
        requests_per_sec_fast=n / fast_s if fast_s > 0 else 0.0,
        requests_per_sec_reference=n / ref_s if ref_s > 0 else 0.0,
        equivalent=_results_equivalent(fast_result, ref_result),
    )


def build_oram_trace(
    n_accesses: int,
    n_blocks: int = ORAM_BLOCKS,
    seed: int = 0,
    rng_label: str = "perf.oram_burst",
) -> tuple[np.ndarray, np.ndarray]:
    """Pinned ORAM access mix: uniform addresses, 10% dummies, 1/3 writes.

    The one canonical mix for ORAM throughput/stash measurement; other
    harnesses (``repro.analysis.stash_scaling``) reuse it under their
    own ``rng_label`` to keep their streams independent but the mix
    definition single-sourced.
    """
    rng = make_rng(seed, rng_label)
    addresses = rng.integers(0, n_blocks, size=n_accesses).astype(np.int64)
    addresses[rng.random(n_accesses) < 0.10] = -1
    is_write = rng.random(n_accesses) < (1.0 / 3.0)
    return addresses, is_write


def bench_oram(n_accesses: int, repeats: int) -> OramBench:
    """Time the functional ORAM burst, batched engine vs scalar reference.

    Both kernels run the identical pinned trace from a fresh controller
    (accesses mutate state, so each repeat rebuilds; construction is
    outside the timed region) under the null cipher, and the final
    position-map/stash/tree state must hash identically.
    """
    from repro.oram.config import TreeGeometry
    from repro.oram.encryption import NullCipher
    from repro.oram.engine import BatchedPathORAM
    from repro.oram.path_oram import PathORAM

    geometry = TreeGeometry.for_block_count(
        n_blocks=ORAM_BLOCKS, blocks_per_bucket=4, block_bytes=64
    )
    addresses, is_write = build_oram_trace(n_accesses)

    def time_kernel(build, runs: int) -> tuple[float, object]:
        best = float("inf")
        oram = None
        for _ in range(runs):
            oram = build()
            t0 = time.perf_counter()
            oram.run_trace(addresses, is_write)
            elapsed = time.perf_counter() - t0
            best = min(best, elapsed)
        return best, oram

    ref_s, reference = time_kernel(
        lambda: PathORAM(geometry, ORAM_BLOCKS, seed=1, cipher=NullCipher()),
        max(1, repeats // 2),
    )
    fast_s, batched = time_kernel(
        lambda: BatchedPathORAM(geometry, ORAM_BLOCKS, seed=1), repeats
    )
    checksum = batched.state_checksum()
    return OramBench(
        workload=ORAM_WORKLOAD,
        n_blocks=ORAM_BLOCKS,
        levels=geometry.levels,
        z=geometry.blocks_per_bucket,
        n_accesses=n_accesses,
        reference_s=ref_s,
        fast_s=fast_s,
        speedup=ref_s / fast_s,
        accesses_per_sec_fast=n_accesses / fast_s,
        accesses_per_sec_reference=n_accesses / ref_s,
        checksum=checksum,
        equivalent=checksum == reference.state_checksum(),
    )


def bench_frontier_cell(
    workload: str, miss_trace: MissTrace, repeats: int,
    grid: str = FRONTIER_CELL_GRID,
) -> FrontierCellBench:
    """Time one frontier cell: a batched grid replay vs sequential oracle.

    The fast path is exactly what a frontier sweep dispatches per
    (benchmark, seed): one ``run_timing_batch`` call over the grid
    slice.  The reference is the per-scheme scalar oracle, replayed
    sequentially — the same fast-vs-reference contract as every other
    tier.  Every per-config result must be bit-identical.  The batch is
    also timed against the per-scheme fast kernels, alternating.
    """
    schemes = [scheme_from_spec(spec) for spec in expand_scheme_grid(grid)]
    ref_s, ref_results = _best_of(
        lambda: run_timing_batch(miss_trace, schemes, mode="reference"),
        max(1, repeats // 2),
    )
    fast_s = per_scheme_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fast_results = run_timing_batch(miss_trace, schemes, mode="fast")
        t1 = time.perf_counter()
        for scheme in schemes:
            run_timing(miss_trace, scheme)
        t2 = time.perf_counter()
        fast_s = min(fast_s, t1 - t0)
        per_scheme_s = min(per_scheme_s, t2 - t1)
    n = miss_trace.n_requests
    total = n * len(schemes)
    return FrontierCellBench(
        workload=workload,
        grid=grid,
        n_configs=len(schemes),
        n_requests=n,
        reference_s=ref_s,
        fast_s=fast_s,
        speedup=ref_s / fast_s,
        requests_per_sec_fast=total / fast_s if fast_s > 0 else 0.0,
        requests_per_sec_reference=total / ref_s if ref_s > 0 else 0.0,
        equivalent=all(
            _results_equivalent(fast, ref)
            for fast, ref in zip(fast_results, ref_results)
        ),
        per_scheme_s=per_scheme_s,
        speedup_vs_per_scheme=per_scheme_s / fast_s,
    )


def bench_tenancy_step(
    requests_per_tenant: int, repeats: int, n_tenants: int = TENANCY_TENANTS
) -> TenancyBench:
    """Time the multi-tenant service step, batched vs round-robin.

    Both runs use the identical pinned closed-loop workload (every
    tenant saturates, so each batched round packs all ``n_tenants`` head
    requests into one ``access_batch`` call, while round-robin issues
    one call per request).  Simulated service capacity is identical by
    construction; the measured difference is pure kernel amortization.
    Per-tenant result digests must match between the two runs — the
    scheduler-invariance contract.
    """
    from repro.tenancy import TenancyConfig, run_tenancy, with_overrides

    config = TenancyConfig(
        n_tenants=n_tenants,
        requests_per_tenant=requests_per_tenant,
        mean_gap_slots=0.0,
        seed=0,
    )

    def run(scheduler: str):
        return run_tenancy(with_overrides(config, scheduler=scheduler))

    ref_s, ref_report = _best_of(lambda: run("round_robin"), max(1, repeats // 2))
    fast_s, fast_report = _best_of(lambda: run("batched"), repeats)
    n = n_tenants * requests_per_tenant
    return TenancyBench(
        workload=f"tenants_{n_tenants}",
        n_tenants=n_tenants,
        requests_per_tenant=requests_per_tenant,
        n_requests=n,
        reference_s=ref_s,
        fast_s=fast_s,
        speedup=ref_s / fast_s,
        requests_per_sec_fast=n / fast_s if fast_s > 0 else 0.0,
        requests_per_sec_reference=n / ref_s if ref_s > 0 else 0.0,
        equivalent=[t.digest for t in fast_report.tenants]
        == [t.digest for t in ref_report.tenants],
    )


def bench_sweep(n_instructions: int) -> SweepBench:
    """Time an end-to-end engine sweep (fast kernels, serial backend)."""
    from repro.api.engine import Engine
    from repro.api.execution import reset_local_sims
    from repro.api.spec import ExperimentSpec

    benchmarks = ("libquantum", "h264ref")
    spec = ExperimentSpec(
        name="perf sweep",
        benchmarks=benchmarks,
        schemes=PERF_SCHEMES,
        n_instructions=n_instructions,
    )
    reset_local_sims()  # cold caches: measure real work, not dict hits
    t0 = time.perf_counter()
    Engine().run(spec, use_cache=False)
    wall = time.perf_counter() - t0
    reset_local_sims()
    return SweepBench(
        benchmarks=benchmarks,
        schemes=PERF_SCHEMES,
        n_instructions=n_instructions,
        cells=spec.n_cells,
        wall_s=wall,
        cells_per_sec=spec.n_cells / wall,
    )


def run_perf_suite(
    quick: bool = False,
    repeats: int | None = None,
    tiers: tuple[str, ...] | None = None,
) -> PerfReport:
    """Run the suite: functional x workloads, timing x schemes, ORAM,
    frontier cell, sweep.

    ``tiers`` restricts the run to a subset of :data:`PERF_TIERS`
    (``repro perf --tier frontier_cell``); miss traces that restricted
    tiers need are still computed, just not timed.
    """
    n_instructions = QUICK_INSTRUCTIONS if quick else FULL_INSTRUCTIONS
    if repeats is None:
        repeats = 3 if quick else 5
    if tiers is None:
        tiers = PERF_TIERS
    unknown = set(tiers) - set(PERF_TIERS)
    if unknown:
        raise ValueError(
            f"unknown perf tiers {sorted(unknown)}; accepted: {', '.join(PERF_TIERS)}"
        )
    report = PerfReport(
        version=5, quick=quick, n_instructions=n_instructions, repeats=repeats
    )
    miss_traces: dict[str, MissTrace] = {}

    def miss_trace_for(workload: str) -> MissTrace:
        trace = miss_traces.get(workload)
        if trace is None:
            warmup = int(n_instructions * 0.30)
            trace = simulate_hierarchy(
                build_perf_trace(workload, n_instructions + warmup),
                warmup_instructions=warmup, mode="fast",
            )
            miss_traces[workload] = trace
        return trace

    if "functional" in tiers:
        for workload in PERF_WORKLOADS:
            bench, miss_trace = bench_functional(workload, n_instructions, repeats)
            report.functional.append(bench)
            miss_traces[workload] = miss_trace
    # Timing tier: libquantum exercises the request-dense path, mcf the
    # blocking-heavy one.  (kernel_stream produces no LLC requests at
    # all, so there is nothing for the replay to measure there.)
    if "timing" in tiers:
        for workload in ("libquantum", "mcf"):
            for scheme_spec in PERF_SCHEMES:
                report.timing.append(
                    bench_timing(
                        workload, miss_trace_for(workload), scheme_spec, repeats
                    )
                )
    if "oram" in tiers:
        oram_accesses = ORAM_QUICK_ACCESSES if quick else ORAM_FULL_ACCESSES
        report.oram.append(bench_oram(oram_accesses, repeats))
    if "frontier_cell" in tiers:
        for workload in FRONTIER_CELL_WORKLOADS:
            report.frontier_cell.append(
                bench_frontier_cell(workload, miss_trace_for(workload), repeats)
            )
    if "tenancy_step" in tiers:
        tenancy_requests = TENANCY_QUICK_REQUESTS if quick else TENANCY_FULL_REQUESTS
        report.tenancy_step.append(bench_tenancy_step(tenancy_requests, repeats))
    if "sweep" in tiers:
        report.sweep = bench_sweep(n_instructions)
    return report
