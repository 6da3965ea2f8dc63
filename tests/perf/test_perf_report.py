"""Tests for the perf microbenchmark runner and baseline gating."""

import json

import pytest

from repro.perf.bench import (
    FrontierCellBench,
    FunctionalBench,
    OramBench,
    PerfReport,
    SweepBench,
    TimingBench,
    bench_functional,
    bench_oram,
    bench_timing,
    build_oram_trace,
    build_perf_trace,
)
from repro.perf.report import (
    check_against_baseline,
    load_baseline,
    report_to_baseline,
    save_report,
    write_baseline,
)


def _functional(workload="kernel_stream", rps=1_000_000.0, speedup=6.0,
                equivalent=True, streaming_ratio=1.0):
    return FunctionalBench(
        workload=workload, n_instructions=100_000, n_refs=30_000, n_requests=10,
        reference_s=0.18, fast_s=0.03, speedup=speedup,
        refs_per_sec_fast=rps, refs_per_sec_reference=rps / speedup,
        refs_per_sec_streaming=rps * streaming_ratio,
        streaming_ratio=streaming_ratio,
        checksum="abc", equivalent=equivalent,
    )


def _timing(workload="libquantum", scheme="base_dram", rps=5e6, equivalent=True):
    return TimingBench(
        workload=workload, scheme=scheme, n_requests=1000,
        reference_s=0.01, fast_s=0.001, speedup=10.0,
        requests_per_sec_fast=rps, requests_per_sec_reference=rps / 10,
        equivalent=equivalent,
    )


def _oram(aps=50_000.0, speedup=15.0, equivalent=True):
    return OramBench(
        workload="oram_burst", n_blocks=1 << 14, levels=14, z=4, n_accesses=2000,
        reference_s=0.6, fast_s=0.6 / speedup, speedup=speedup,
        accesses_per_sec_fast=aps, accesses_per_sec_reference=aps / speedup,
        checksum="def", equivalent=equivalent,
    )


def _frontier_cell(workload="libquantum", rps=4e6, speedup=6.0, equivalent=True,
                   vs_per_scheme=1.0):
    return FrontierCellBench(
        workload=workload, grid="grid:dynamic:{rates=2,4}x{epochs=2,4}",
        n_configs=16, n_requests=4000,
        reference_s=0.1, fast_s=0.1 / speedup, speedup=speedup,
        requests_per_sec_fast=rps, requests_per_sec_reference=rps / speedup,
        equivalent=equivalent,
        per_scheme_s=0.1 / speedup * vs_per_scheme,
        speedup_vs_per_scheme=vs_per_scheme,
    )


def _report(**kwargs):
    defaults = dict(
        version=3, quick=True, n_instructions=100_000, repeats=1,
        functional=[_functional(), _functional(workload="libquantum")],
        timing=[_timing()], oram=[_oram()],
        frontier_cell=[_frontier_cell(), _frontier_cell(workload="gobmk", speedup=3.0)],
        sweep=SweepBench(
            benchmarks=("a",), schemes=("base_dram",), n_instructions=100_000,
            cells=2, wall_s=0.5, cells_per_sec=4.0,
        ),
    )
    defaults.update(kwargs)
    return PerfReport(**defaults)


class TestBaselineGate:
    def test_fresh_baseline_always_passes(self):
        report = _report()
        assert check_against_baseline(report, report_to_baseline(report)) == []

    def test_throughput_drop_within_tolerance_passes(self):
        baseline = report_to_baseline(_report())
        dropped = _report(functional=[
            _functional(rps=750_000.0), _functional(workload="libquantum"),
        ])
        assert check_against_baseline(dropped, baseline) == []

    def test_throughput_drop_beyond_tolerance_fails(self):
        baseline = report_to_baseline(_report())
        dropped = _report(functional=[
            _functional(rps=500_000.0), _functional(workload="libquantum"),
        ])
        failures = check_against_baseline(dropped, baseline)
        assert len(failures) == 1
        assert "below baseline" in failures[0]

    def test_timing_regression_fails(self):
        baseline = report_to_baseline(_report())
        dropped = _report(timing=[_timing(rps=1e6)])
        failures = check_against_baseline(dropped, baseline)
        assert any("timing[libquantum/base_dram]" in f for f in failures)

    def test_sweep_regression_fails(self):
        baseline = report_to_baseline(_report())
        slow = _report(sweep=SweepBench(
            benchmarks=("a",), schemes=("base_dram",), n_instructions=100_000,
            cells=2, wall_s=5.0, cells_per_sec=0.4,
        ))
        failures = check_against_baseline(slow, baseline)
        assert any(f.startswith("sweep:") for f in failures)

    def test_equivalence_mismatch_always_fails(self):
        baseline = report_to_baseline(_report())
        broken = _report(functional=[_functional(equivalent=False)])
        failures = check_against_baseline(broken, baseline)
        assert any("correctness bug" in f for f in failures)

    def test_headline_speedup_floor(self):
        baseline = report_to_baseline(_report())
        # Throughput holds but the speedup collapsed (reference got fast).
        slow = _report(functional=[_functional(speedup=2.0)])
        failures = check_against_baseline(slow, baseline)
        assert any("below the required" in f for f in failures)

    def test_unknown_metrics_in_report_are_ignored(self):
        baseline = report_to_baseline(_report())
        extra = _report(
            functional=[
                _functional(), _functional(workload="libquantum"),
                _functional(workload="new_workload"),
            ]
        )
        assert check_against_baseline(extra, baseline) == []

    def test_oram_equivalence_mismatch_fails(self):
        baseline = report_to_baseline(_report())
        broken = _report(oram=[_oram(equivalent=False)])
        failures = check_against_baseline(broken, baseline)
        assert any("oram[oram_burst]" in f and "correctness bug" in f for f in failures)

    def test_oram_throughput_regression_fails(self):
        baseline = report_to_baseline(_report())
        dropped = _report(oram=[_oram(aps=20_000.0)])
        failures = check_against_baseline(dropped, baseline)
        assert any("oram[oram_burst]" in f and "below baseline" in f for f in failures)

    def test_oram_speedup_floor(self):
        baseline = report_to_baseline(_report())
        slow = _report(oram=[_oram(speedup=6.0)])
        failures = check_against_baseline(slow, baseline)
        assert any("oram[oram_burst]" in f and "10.0x floor" in f for f in failures)

    def test_missing_oram_headline_fails(self):
        baseline = report_to_baseline(_report())
        # The oram tier ran, but the headline workload is absent.
        other = _oram()
        other.workload = "oram_other"
        missing = _report(oram=[other])
        failures = check_against_baseline(missing, baseline)
        assert any("not measured" in f for f in failures)

    def test_tier_restricted_report_skips_absent_floors(self):
        """A --tier frontier_cell report isn't failed for absent tiers."""
        baseline = report_to_baseline(_report())
        restricted = _report(functional=[], timing=[], oram=[], sweep=None)
        assert check_against_baseline(restricted, baseline) == []

    def test_functional_below_oracle_fails(self):
        """No functional tier may ship with speedup < 1.0."""
        baseline = report_to_baseline(_report())
        slow = _report(
            functional=[_functional(), _functional(workload="mcf", speedup=0.85)]
        )
        failures = check_against_baseline(slow, baseline)
        assert any("ship floor" in f and "mcf" in f for f in failures)

    def test_functional_at_oracle_passes_ship_floor(self):
        baseline = report_to_baseline(_report())
        report = _report(
            functional=[_functional(), _functional(workload="mcf", speedup=1.0)]
        )
        failures = check_against_baseline(report, baseline)
        assert not any("ship floor" in f for f in failures)

    def test_frontier_cell_floor_fails(self):
        baseline = report_to_baseline(_report())
        slow = _report(frontier_cell=[_frontier_cell(speedup=4.0)])
        failures = check_against_baseline(slow, baseline)
        assert any("frontier_cell[libquantum]" in f and "floor" in f for f in failures)

    def test_frontier_cell_losing_to_per_scheme_fails(self):
        # The numpy per-request stepping ran the sparse gobmk batch at
        # about 0.18x of its per-scheme fast replays.
        baseline = report_to_baseline(_report())
        slow = _report(frontier_cell=[
            _frontier_cell(),
            _frontier_cell(workload="gobmk", speedup=3.0, vs_per_scheme=0.18),
        ])
        assert check_against_baseline(slow, baseline) == [
            "frontier_cell[gobmk]: batched replay runs at 0.18x of the "
            "per-scheme fast kernels, below the 0.50x floor"
        ]

    def test_missing_sparse_frontier_cell_fails(self):
        baseline = report_to_baseline(_report())
        failures = check_against_baseline(
            _report(frontier_cell=[_frontier_cell()]), baseline
        )
        assert failures == ["frontier_cell[gobmk]: sparse workload not measured"]

    def test_frontier_cell_regression_fails(self):
        baseline = report_to_baseline(_report())
        slow = _report(frontier_cell=[_frontier_cell(rps=1e6)])
        failures = check_against_baseline(slow, baseline)
        assert any("config-req/s" in f for f in failures)

    def test_frontier_cell_mismatch_fails(self):
        baseline = report_to_baseline(_report())
        bad = _report(frontier_cell=[_frontier_cell(equivalent=False)])
        failures = check_against_baseline(bad, baseline)
        assert any("frontier_cell" in f and "correctness" in f for f in failures)

    def test_streaming_ratio_floor_fails_a_scalar_speed_stream(self):
        baseline = report_to_baseline(_report())
        slow = _report(functional=[
            _functional(), _functional(workload="libquantum", streaming_ratio=0.3),
        ])
        assert check_against_baseline(slow, baseline) == [
            "streaming[libquantum]: streamed pass runs at 0.30x of the "
            "in-memory pass, below the 0.70x floor"
        ]

    def test_missing_streaming_headline_fails(self):
        baseline = report_to_baseline(_report())
        failures = check_against_baseline(
            _report(functional=[_functional()]), baseline
        )
        assert failures == ["streaming[libquantum]: headline workload not measured"]


class TestSerialization:
    def test_report_round_trip(self, tmp_path):
        report = _report()
        path = tmp_path / "BENCH_perf.json"
        save_report(report, path)
        payload = json.loads(path.read_text())
        assert payload["functional"][0]["workload"] == "kernel_stream"
        assert payload["sweep"]["cells_per_sec"] == 4.0

    def test_baseline_round_trip(self, tmp_path):
        report = _report()
        path = tmp_path / "baselines.json"
        write_baseline(report, path)
        baseline = load_baseline(path)
        assert baseline["headline_workload"] == "kernel_stream"
        assert baseline["functional"]["kernel_stream"]["refs_per_sec"] == 1_000_000
        assert check_against_baseline(report, baseline) == []


class TestRealBenches:
    """Tiny real measurements: the equivalence flags must come back true."""

    def test_functional_bench_is_equivalent(self):
        bench, miss_trace = bench_functional("kernel_stream", 30_000, repeats=1)
        assert bench.equivalent
        assert bench.n_refs > 0
        assert bench.checksum == miss_trace.checksum()
        assert bench.streaming_ratio == pytest.approx(
            bench.refs_per_sec_streaming / bench.refs_per_sec_fast
        )

    def test_timing_bench_is_equivalent(self):
        _, miss_trace = bench_functional("libquantum", 30_000, repeats=1)
        bench = bench_timing("libquantum", miss_trace, "dynamic:4x4", repeats=1)
        assert bench.equivalent
        assert bench.n_requests > 0

    def test_kernel_stream_trace_is_l1_resident(self):
        trace = build_perf_trace("kernel_stream", 50_000)
        assert trace.name == "kernel_stream"
        # 16 KB region / 64 B lines = 256 distinct lines.
        import numpy as np

        lines = np.unique(np.asarray(trace.addresses) // 64)
        assert len(lines) <= 256

    def test_unknown_workload_falls_through_to_registry(self):
        with pytest.raises(ValueError, match="unknown workload"):
            build_perf_trace("not_a_workload", 10_000)

    def test_oram_bench_is_equivalent_and_fast(self):
        bench = bench_oram(n_accesses=300, repeats=1)
        assert bench.equivalent
        assert bench.speedup > 1.0  # full 10x is asserted at bench scale in CI
        assert bench.n_blocks == 1 << 14

    def test_oram_trace_mix(self):
        addresses, is_write = build_oram_trace(10_000)
        import numpy as np

        dummy_fraction = float(np.mean(addresses == -1))
        assert 0.05 < dummy_fraction < 0.15
        assert 0.25 < float(np.mean(is_write)) < 0.40


REPO_ROOT = __import__("pathlib").Path(__file__).resolve().parents[2]


class TestCommittedBaseline:
    """The repository's committed perf artifacts stay loadable and sane."""

    def test_committed_baseline_parses(self):
        baseline = load_baseline(REPO_ROOT / "benchmarks" / "baselines.json")
        assert baseline["headline_workload"] == "kernel_stream"
        assert baseline["min_functional_speedup"] >= 5.0
        assert 0.0 < baseline["tolerance"] < 1.0
        assert "kernel_stream" in baseline["functional"]

    def test_committed_baseline_gates_streaming(self):
        # The scalar streaming port ran libquantum at about 0.3x of the
        # in-memory pass; the committed floor must reject that.
        baseline = load_baseline(REPO_ROOT / "benchmarks" / "baselines.json")
        assert 0.5 <= baseline["min_streaming_ratio"] < 1.0

    def test_committed_baseline_gates_sparse_frontier_cell(self):
        # The batch must not lose badly to the per-scheme fast kernels
        # on the sparse workload (the old kernel ran gobmk at 0.18x).
        baseline = load_baseline(REPO_ROOT / "benchmarks" / "baselines.json")
        assert baseline["min_frontier_cell_vs_per_scheme"] >= 0.5

    def test_committed_baseline_gates_oram(self):
        baseline = load_baseline(REPO_ROOT / "benchmarks" / "baselines.json")
        assert baseline["min_oram_speedup"] >= 10.0
        assert "oram_burst" in baseline["oram"]

    def test_committed_report_records_oram_speedup(self):
        payload = json.loads((REPO_ROOT / "benchmarks" / "BENCH_perf.json").read_text())
        oram = [b for b in payload["oram"] if b["workload"] == "oram_burst"]
        assert oram and oram[0]["speedup"] >= 10.0
        assert oram[0]["equivalent"] is True

    def test_committed_report_records_headline_speedup(self):
        payload = json.loads((REPO_ROOT / "benchmarks" / "BENCH_perf.json").read_text())
        headline = [
            b for b in payload["functional"] if b["workload"] == "kernel_stream"
        ]
        assert headline and headline[0]["speedup"] >= 5.0
        assert headline[0]["equivalent"] is True
        assert payload["n_instructions"] == 1_000_000
