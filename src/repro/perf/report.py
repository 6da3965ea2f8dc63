"""Perf report serialization and baseline gating.

``benchmarks/baselines.json`` freezes the throughput of each pinned
microbenchmark.  :func:`check_against_baseline` compares a fresh
:class:`~repro.perf.bench.PerfReport` against it and returns the list of
failures; CI fails the perf job when that list is non-empty.

Gating rules:

* every fast-path measurement must be byte-equivalent to its reference
  (a mismatch is a correctness bug, never tolerated) — for the ORAM
  tier the contract is the ``state_checksum()`` over position map,
  stash, and tree;
* throughput must stay within ``tolerance`` (default 30%) of the
  committed baseline, metric by metric;
* the functional-pass speedup on the headline workload must stay above
  ``min_functional_speedup``, the ORAM-burst speedup above
  ``min_oram_speedup`` (the batched engine's 10x acceptance floor), the
  config-batched frontier-cell speedup above
  ``min_frontier_cell_speedup`` (the 16-config batch's 5x floor), and
  the batched tenancy scheduler above ``min_tenancy_step_speedup``
  (>= 3x over round-robin at 16 tenants);
* **no functional tier may ship with a speedup below 1.0** — a fast
  kernel slower than its own oracle on any pinned workload is a
  regression, full stop (``min_functional_speedup_all``);
* the streamed functional pass on libquantum must run at
  ``min_streaming_ratio`` or more of the in-memory pass's speed, a
  same-process ratio that host speed cannot flip;
* the batched frontier cell on the sparse workload (gobmk) must run at
  ``min_frontier_cell_vs_per_scheme`` or more of the speed of replaying
  its schemes one by one through the fast ``run_timing`` — the other
  same-process ratio, and the one that catches a batch losing to the
  per-scheme kernels where lockstep rarely certifies.

Updating the baseline after an intentional change:

    python -m repro perf --update-baseline benchmarks/baselines.json
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.perf.bench import PerfReport

#: Throughput may drop at most this fraction below baseline before CI fails.
DEFAULT_TOLERANCE = 0.30

#: The headline functional-pass workload and its required speedup.
HEADLINE_WORKLOAD = "kernel_stream"
DEFAULT_MIN_SPEEDUP = 5.0

#: The ORAM access-burst workload and the batched engine's speedup floor.
ORAM_HEADLINE_WORKLOAD = "oram_burst"
DEFAULT_MIN_ORAM_SPEEDUP = 10.0

#: Every functional workload must at least match its scalar oracle.
DEFAULT_MIN_FUNCTIONAL_SPEEDUP_ALL = 1.0

#: The streaming headline workload and its floor on streamed over
#: in-memory refs/s.  The resumable kernel streams libquantum at about
#: 0.9x in 4096-reference chunks; the scalar streaming port it replaced
#: ran at about 0.3x.
STREAMING_HEADLINE_WORKLOAD = "libquantum"
DEFAULT_MIN_STREAMING_RATIO = 0.7

#: The frontier-cell headline workload and the batched replay's floor:
#: a 16-config batch must beat 16 sequential reference replays >= 5x.
FRONTIER_CELL_HEADLINE_WORKLOAD = "libquantum"
DEFAULT_MIN_FRONTIER_CELL_SPEEDUP = 5.0

#: The sparse frontier-cell workload and the batched replay's floor on
#: per-scheme fast time over batched time.  Lockstep certifies almost
#: nothing on gobmk, so the batch runs per config and lands at about
#: 0.95x; the numpy per-request stepping it replaced ran at about 0.18x.
FRONTIER_CELL_SPARSE_WORKLOAD = "gobmk"
DEFAULT_MIN_FRONTIER_CELL_VS_PER_SCHEME = 0.5

#: The tenancy headline workload and the batched scheduler's floor:
#: packing 16 tenants per bank call must beat round-robin >= 3x.
TENANCY_STEP_HEADLINE_WORKLOAD = "tenants_16"
DEFAULT_MIN_TENANCY_STEP_SPEEDUP = 3.0


def save_report(report: PerfReport, path: str | Path) -> None:
    """Write a report as pretty-printed JSON (BENCH_perf.json)."""
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def report_to_baseline(report: PerfReport) -> dict:
    """Distill a report into the committed baseline payload."""
    return {
        "tolerance": DEFAULT_TOLERANCE,
        "min_functional_speedup": DEFAULT_MIN_SPEEDUP,
        "headline_workload": HEADLINE_WORKLOAD,
        "min_functional_speedup_all": DEFAULT_MIN_FUNCTIONAL_SPEEDUP_ALL,
        "min_streaming_ratio": DEFAULT_MIN_STREAMING_RATIO,
        "min_oram_speedup": DEFAULT_MIN_ORAM_SPEEDUP,
        "oram_headline_workload": ORAM_HEADLINE_WORKLOAD,
        "min_frontier_cell_speedup": DEFAULT_MIN_FRONTIER_CELL_SPEEDUP,
        "frontier_cell_headline_workload": FRONTIER_CELL_HEADLINE_WORKLOAD,
        "min_frontier_cell_vs_per_scheme": DEFAULT_MIN_FRONTIER_CELL_VS_PER_SCHEME,
        "min_tenancy_step_speedup": DEFAULT_MIN_TENANCY_STEP_SPEEDUP,
        "tenancy_step_headline_workload": TENANCY_STEP_HEADLINE_WORKLOAD,
        "functional": {
            b.workload: {
                "refs_per_sec": round(b.refs_per_sec_fast),
                "speedup": round(b.speedup, 2),
            }
            for b in report.functional
        },
        "timing": {
            f"{b.workload}/{b.scheme}": {
                "requests_per_sec": round(b.requests_per_sec_fast),
                "speedup": round(b.speedup, 2),
            }
            for b in report.timing
        },
        "oram": {
            b.workload: {
                "accesses_per_sec": round(b.accesses_per_sec_fast),
                "speedup": round(b.speedup, 2),
            }
            for b in report.oram
        },
        "frontier_cell": {
            b.workload: {
                "requests_per_sec": round(b.requests_per_sec_fast),
                "speedup": round(b.speedup, 2),
            }
            for b in report.frontier_cell
        },
        "tenancy_step": {
            b.workload: {
                "requests_per_sec": round(b.requests_per_sec_fast),
                "speedup": round(b.speedup, 2),
            }
            for b in report.tenancy_step
        },
        "sweep": {"cells_per_sec": round(report.sweep.cells_per_sec, 2)}
        if report.sweep
        else {},
    }


def write_baseline(report: PerfReport, path: str | Path) -> None:
    """Write ``benchmarks/baselines.json`` from a fresh report."""
    Path(path).write_text(json.dumps(report_to_baseline(report), indent=2) + "\n")


def load_baseline(path: str | Path) -> dict:
    """Load a committed baseline file."""
    return json.loads(Path(path).read_text())


def check_against_baseline(report: PerfReport, baseline: dict) -> list[str]:
    """Compare a report against a baseline; return failure descriptions.

    Empty list == gate passes.
    """
    failures: list[str] = []
    tolerance = float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    floor = 1.0 - tolerance

    for bench in report.functional:
        if not bench.equivalent:
            failures.append(
                f"functional[{bench.workload}]: fast or streamed kernel output "
                "diverges from the scalar reference (correctness bug)"
            )
    for bench in report.timing:
        if not bench.equivalent:
            failures.append(
                f"timing[{bench.workload}/{bench.scheme}]: fast replay "
                "diverges from the reference (correctness bug)"
            )
    for bench in report.oram:
        if not bench.equivalent:
            failures.append(
                f"oram[{bench.workload}]: batched engine state diverges "
                "from the reference controller (correctness bug)"
            )
    for bench in report.frontier_cell:
        if not bench.equivalent:
            failures.append(
                f"frontier_cell[{bench.workload}]: batched replay diverges "
                "from the per-scheme reference (correctness bug)"
            )
    for bench in report.tenancy_step:
        if not bench.equivalent:
            failures.append(
                f"tenancy_step[{bench.workload}]: batched-scheduler tenant "
                "digests diverge from round-robin (correctness bug)"
            )

    for bench in report.functional:
        base = baseline.get("functional", {}).get(bench.workload)
        if base is None:
            continue
        required = base["refs_per_sec"] * floor
        if bench.refs_per_sec_fast < required:
            failures.append(
                f"functional[{bench.workload}]: {bench.refs_per_sec_fast:,.0f} refs/s "
                f"is more than {tolerance:.0%} below baseline "
                f"{base['refs_per_sec']:,} refs/s"
            )
    for bench in report.timing:
        key = f"{bench.workload}/{bench.scheme}"
        base = baseline.get("timing", {}).get(key)
        if base is None:
            continue
        required = base["requests_per_sec"] * floor
        if bench.requests_per_sec_fast < required:
            failures.append(
                f"timing[{key}]: {bench.requests_per_sec_fast:,.0f} req/s is more "
                f"than {tolerance:.0%} below baseline {base['requests_per_sec']:,} req/s"
            )

    for bench in report.oram:
        base = baseline.get("oram", {}).get(bench.workload)
        if base is None:
            continue
        required = base["accesses_per_sec"] * floor
        if bench.accesses_per_sec_fast < required:
            failures.append(
                f"oram[{bench.workload}]: {bench.accesses_per_sec_fast:,.0f} acc/s "
                f"is more than {tolerance:.0%} below baseline "
                f"{base['accesses_per_sec']:,} acc/s"
            )

    for bench in report.frontier_cell:
        base = baseline.get("frontier_cell", {}).get(bench.workload)
        if base is None:
            continue
        required = base["requests_per_sec"] * floor
        if bench.requests_per_sec_fast < required:
            failures.append(
                f"frontier_cell[{bench.workload}]: "
                f"{bench.requests_per_sec_fast:,.0f} config-req/s is more "
                f"than {tolerance:.0%} below baseline "
                f"{base['requests_per_sec']:,} config-req/s"
            )

    for bench in report.tenancy_step:
        base = baseline.get("tenancy_step", {}).get(bench.workload)
        if base is None:
            continue
        required = base["requests_per_sec"] * floor
        if bench.requests_per_sec_fast < required:
            failures.append(
                f"tenancy_step[{bench.workload}]: "
                f"{bench.requests_per_sec_fast:,.0f} req/s is more than "
                f"{tolerance:.0%} below baseline "
                f"{base['requests_per_sec']:,} req/s"
            )

    sweep_base = baseline.get("sweep", {}).get("cells_per_sec")
    if sweep_base is not None and report.sweep is not None:
        if report.sweep.cells_per_sec < sweep_base * floor:
            failures.append(
                f"sweep: {report.sweep.cells_per_sec:.2f} cells/s is more than "
                f"{tolerance:.0%} below baseline {sweep_base} cells/s"
            )

    min_speedup = float(baseline.get("min_functional_speedup", 0.0))
    headline = baseline.get("headline_workload", HEADLINE_WORKLOAD)
    if min_speedup > 0 and report.functional:
        measured = report.functional_speedup(headline)
        if measured is None:
            failures.append(f"functional[{headline}]: headline workload not measured")
        elif measured < min_speedup:
            failures.append(
                f"functional[{headline}]: speedup {measured:.1f}x is below the "
                f"required {min_speedup:.1f}x floor"
            )

    min_oram = float(baseline.get("min_oram_speedup", 0.0))
    oram_headline = baseline.get("oram_headline_workload", ORAM_HEADLINE_WORKLOAD)
    if min_oram > 0 and report.oram:
        measured = report.oram_speedup(oram_headline)
        if measured is None:
            failures.append(f"oram[{oram_headline}]: headline workload not measured")
        elif measured < min_oram:
            failures.append(
                f"oram[{oram_headline}]: speedup {measured:.1f}x is below the "
                f"required {min_oram:.1f}x floor"
            )

    # No functional tier may ship slower than its own scalar oracle.
    min_all = float(
        baseline.get(
            "min_functional_speedup_all", DEFAULT_MIN_FUNCTIONAL_SPEEDUP_ALL
        )
    )
    for bench in report.functional:
        if bench.speedup < min_all:
            failures.append(
                f"functional[{bench.workload}]: speedup {bench.speedup:.2f}x "
                f"is below the {min_all:.1f}x ship floor (fast kernel slower "
                "than its oracle)"
            )

    min_ratio = float(baseline.get("min_streaming_ratio", 0.0))
    if min_ratio > 0 and report.functional:
        bench = next(
            (b for b in report.functional
             if b.workload == STREAMING_HEADLINE_WORKLOAD),
            None,
        )
        if bench is None:
            failures.append(
                f"streaming[{STREAMING_HEADLINE_WORKLOAD}]: headline workload "
                "not measured"
            )
        elif bench.streaming_ratio < min_ratio:
            failures.append(
                f"streaming[{STREAMING_HEADLINE_WORKLOAD}]: streamed pass runs at "
                f"{bench.streaming_ratio:.2f}x of the in-memory pass, below "
                f"the {min_ratio:.2f}x floor"
            )

    min_cell = float(baseline.get("min_frontier_cell_speedup", 0.0))
    cell_headline = baseline.get(
        "frontier_cell_headline_workload", FRONTIER_CELL_HEADLINE_WORKLOAD
    )
    if min_cell > 0 and report.frontier_cell:
        measured = report.frontier_cell_speedup(cell_headline)
        if measured is None:
            failures.append(
                f"frontier_cell[{cell_headline}]: headline workload not measured"
            )
        elif measured < min_cell:
            failures.append(
                f"frontier_cell[{cell_headline}]: speedup {measured:.1f}x is "
                f"below the required {min_cell:.1f}x floor"
            )

    min_vs_per_scheme = float(baseline.get("min_frontier_cell_vs_per_scheme", 0.0))
    if min_vs_per_scheme > 0 and report.frontier_cell:
        bench = next(
            (b for b in report.frontier_cell
             if b.workload == FRONTIER_CELL_SPARSE_WORKLOAD),
            None,
        )
        if bench is None:
            failures.append(
                f"frontier_cell[{FRONTIER_CELL_SPARSE_WORKLOAD}]: sparse "
                "workload not measured"
            )
        elif bench.speedup_vs_per_scheme < min_vs_per_scheme:
            failures.append(
                f"frontier_cell[{FRONTIER_CELL_SPARSE_WORKLOAD}]: batched "
                f"replay runs at {bench.speedup_vs_per_scheme:.2f}x of the "
                "per-scheme fast kernels, below the "
                f"{min_vs_per_scheme:.2f}x floor"
            )

    min_tenancy = float(baseline.get("min_tenancy_step_speedup", 0.0))
    tenancy_headline = baseline.get(
        "tenancy_step_headline_workload", TENANCY_STEP_HEADLINE_WORKLOAD
    )
    if min_tenancy > 0 and report.tenancy_step:
        measured = report.tenancy_step_speedup(tenancy_headline)
        if measured is None:
            failures.append(
                f"tenancy_step[{tenancy_headline}]: headline workload not measured"
            )
        elif measured < min_tenancy:
            failures.append(
                f"tenancy_step[{tenancy_headline}]: speedup {measured:.1f}x is "
                f"below the required {min_tenancy:.1f}x floor"
            )
    return failures
