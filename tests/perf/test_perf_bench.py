"""Tests for the perf suite runner: tiers, the frontier-cell bench, and
the committed artifact's ship floors."""

import json
from pathlib import Path

import pytest

from repro.cache.hierarchy import simulate_hierarchy
from repro.perf.bench import (
    FRONTIER_CELL_GRID,
    FRONTIER_CELL_WORKLOADS,
    PERF_TIERS,
    bench_frontier_cell,
    build_perf_trace,
    run_perf_suite,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def small_miss_trace():
    n = 60_000
    warmup = int(n * 0.30)
    trace = build_perf_trace("libquantum", n + warmup)
    return simulate_hierarchy(trace, warmup_instructions=warmup)


class TestFrontierCellBench:
    def test_batch_is_equivalent_and_counts_configs(self, small_miss_trace):
        bench = bench_frontier_cell("libquantum", small_miss_trace, repeats=1)
        assert bench.equivalent
        assert bench.n_configs == 16
        assert bench.grid == FRONTIER_CELL_GRID
        assert bench.n_requests == small_miss_trace.n_requests
        assert bench.speedup > 0
        assert bench.requests_per_sec_fast > bench.n_requests
        assert bench.per_scheme_s > 0
        assert bench.speedup_vs_per_scheme == pytest.approx(
            bench.per_scheme_s / bench.fast_s
        )


class TestTierSelection:
    def test_single_tier_runs_only_that_tier(self, small_miss_trace):
        report = run_perf_suite(quick=True, repeats=1, tiers=("frontier_cell",))
        assert [b.workload for b in report.frontier_cell] == list(
            FRONTIER_CELL_WORKLOADS
        )
        assert all(b.equivalent for b in report.frontier_cell)
        assert not report.functional
        assert not report.timing
        assert not report.oram
        assert report.sweep is None

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown perf tier"):
            run_perf_suite(quick=True, repeats=1, tiers=("warp",))

    def test_tier_names_cover_report_sections(self):
        assert set(PERF_TIERS) == {
            "functional", "timing", "oram", "frontier_cell", "tenancy_step", "sweep"
        }


class TestCommittedArtifact:
    """The committed BENCH_perf.json is what 'ships'."""

    @pytest.fixture(scope="class")
    def committed(self):
        return json.loads((REPO_ROOT / "benchmarks" / "BENCH_perf.json").read_text())

    def test_no_functional_tier_ships_below_oracle(self, committed):
        for bench in committed["functional"]:
            assert bench["speedup"] >= 1.0, (
                f"functional[{bench['workload']}] ships at {bench['speedup']}x"
            )

    def test_frontier_cell_ships_at_five_x(self, committed):
        cells = committed["frontier_cell"]
        assert cells, "frontier_cell tier missing from the committed report"
        by_workload = {b["workload"]: b for b in cells}
        assert by_workload["libquantum"]["speedup"] >= 5.0
        assert all(b["equivalent"] for b in cells)

    def test_sparse_frontier_cell_ships_near_per_scheme(self, committed):
        by_workload = {b["workload"]: b for b in committed["frontier_cell"]}
        assert by_workload["gobmk"]["speedup_vs_per_scheme"] >= 0.5

    def test_committed_baseline_has_ship_floors(self):
        baseline = json.loads(
            (REPO_ROOT / "benchmarks" / "baselines.json").read_text()
        )
        assert baseline["min_functional_speedup_all"] >= 1.0
        assert baseline["min_frontier_cell_speedup"] >= 5.0
        assert "frontier_cell" in baseline
