"""End-to-end host-time benchmark of the repro package.

Run from the root of a source checkout::

    python3 bench_e2e/run.py --workload paper-figures --seed 0 --seconds 30 --trace 0
    python3 bench_e2e/run.py --workload all --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer split (see
README.md).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output check passed; it is 2, with no
JSON, when the checkout has no ``src/repro`` package to measure or no
operation completed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import suite

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_e2e"

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_PROBES = 3

#: Timed operations per run, at least (the median needs a middle).
MIN_OPS = 3

#: Traced self times must cover the operation's wall time this closely.
ATTRIBUTION_TOLERANCE = 0.10

WORKLOAD_NAMES = tuple(suite.WORKLOADS)

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "cells_per_cpu_s": "1/s",
    "sim_minst_per_cpu_s": "Minst/s",
    "peak_rss_mb": "MiB",
    "success_rate": "frac",
}


def host_context() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(os.getloadavg()),
    }


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its reaped children.

    The kernel leaves out the time the hypervisor ran other guests on
    this vCPU (steal), which wall time counts in full.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reset_peak_rss() -> None:
    """Restart this process's VmHWM at its current RSS (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then also covers earlier work; still an upper bound


def peak_rss_mib() -> float:
    """Larger of this process's peak RSS since :func:`reset_peak_rss`
    and the largest peak of any child it has reaped (queue workers)."""
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own_kib = int(line.split()[1])
    except OSError:
        pass
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, children_kib) / 1024.0


def time_setup(name: str, seed: int) -> list[float]:
    """CPU seconds a fresh interpreter spends until its workload is ready."""
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import suite; suite.probe(%r, %d)"
        % (str(SRC), str(BENCH_DIR), name, seed)
    )
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        words = proc.stdout.readline().split()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"set-up probe for {name} failed")
        samples.append(float(words[1]))
    return samples


class Run:
    """One workload's measurement: set-up, reference, timed operations."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.workload = suite.WORKLOADS[name](seed)
        self.ops = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.traced_walls: list[float] = []
        self.peaks: list[float] = []
        self.summaries: dict[str, list[dict]] = {"main": [], "serial": []}
        self.counts: set[tuple] = set()
        self.calls: dict[str, set] = {"main": set(), "serial": set()}
        self.spans: list[list] = []
        self.setup: list[float] = []
        self.cells, self.minst = 0, 0.0

    def _op(self, kind: str, root: Path, tracer: spans.Tracer | None) -> list[str]:
        """Run one cold operation and check it; returns its problems."""
        from repro.api.execution import reset_local_sims

        run = self.workload.serial_replay if kind == "serial" else self.workload.run_op
        reset_local_sims()
        gc.collect()
        reset_peak_rss()
        started_at = time.time()
        if tracer is None:
            start, cpu = time.perf_counter(), cpu_seconds()
            output = run(root)
            wall = time.perf_counter() - start
            self.cpus.append(cpu_seconds() - cpu)
            self.walls.append(wall)
            self.peaks.append(peak_rss_mib())
        else:
            first = len(tracer.spans)
            with tracer.operation(self.ops):
                start = time.perf_counter()
                output = run(root)
                wall = time.perf_counter() - start
            summary = spans.op_summary(tracer.spans[first:], wall)
            if kind == "main":
                self.traced_walls.append(wall)
                if isinstance(self.workload, suite.QueueFleet):
                    summary.update(self.workload.fleet_facts(started_at))
            self.summaries[kind].append(summary)
            self.calls[kind].add(spans.deterministic_counts(summary))
        outcome = self.workload.check(output, root)
        self.counts.add(outcome.counts)
        self.cells, self.minst = outcome.cells, outcome.minst
        problems = list(outcome.problems)
        if outcome.digest != self.expected.digest:
            problems.append(f"digest {outcome.digest[:16]} differs from the reference")
        if self.pinned is not None and outcome.digest != self.pinned:
            problems.append(f"digest {outcome.digest[:16]} differs from the pin")
        if wall > suite.OP_TIMEOUT_S:
            problems.append(f"took {wall:.1f}s (timeout)")
        if tracer is not None and abs(summary["attributed_frac"] - 1.0) > ATTRIBUTION_TOLERANCE:
            problems.append(
                f"traced self times cover {summary['attributed_frac']:.3f} of the wall time"
            )
        return problems

    def _attempt(self, kind: str, tracer: spans.Tracer | None) -> None:
        self.ops += 1
        root = self.work / f"op{self.ops}"
        try:
            problems = self._op(kind, root, tracer)
        except Exception as error:  # a failed operation must not end the run
            problems = [f"{type(error).__name__}: {error}"]
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.append(f"op {self.ops} ({kind}): {'; '.join(problems)}")

    def measure(self) -> None:
        pins = json.loads((BENCH_DIR / "pins.json").read_text())
        self.pinned = pins["digests"][self.name] if self.seed == pins["default_seed"] else None
        self.workload.make_inputs(self.work / "inputs")
        self.expected = self.workload.reference(self.work / "reference")
        if self.expected.problems:
            raise RuntimeError(f"reference run: {'; '.join(self.expected.problems)}")
        if self.pinned is not None and self.expected.digest != self.pinned:
            self.problems.append(f"reference digest {self.expected.digest} differs from the pin")
        self.counts.add(self.expected.counts)
        shutil.rmtree(self.work / "reference", ignore_errors=True)

        tracer = None
        cycle = [("main", None)]
        if self.trace:
            tracer = spans.Tracer()
            cycle.append(("main", tracer))
            if self.name in suite.POOLED:
                cycle.append(("serial", tracer))
        start = time.perf_counter()
        step = 0
        while True:
            kind, op_tracer = cycle[step % len(cycle)]
            self._attempt(kind, op_tracer)
            step += 1
            elapsed = time.perf_counter() - start
            if step % len(cycle) == 0 and elapsed >= self.seconds and (
                len(self.walls) >= MIN_OPS or elapsed >= 3 * self.seconds
            ):
                break
        if len(self.counts) > 1:
            self.problems.append(f"simulated counts differ across operations: {self.counts}")
        for kind, seen in self.calls.items():
            if len(seen) > 1:
                self.problems.append(f"{kind} traced call counts differ across operations")
        if tracer is not None:
            self.spans = tracer.spans
        else:
            self.setup = time_setup(self.name, self.seed)

    @property
    def completed(self) -> bool:
        """At least one operation of every kind the metrics need ran."""
        if not self.walls:
            return False
        return not self.trace or bool(self.summaries["main"])

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def end_to_end(self) -> dict:
        cpu = statistics.median(self.cpus)
        values = {
            "setup_s": statistics.median(self.setup),
            "cpu_s": cpu,
            "cells_per_cpu_s": self.cells / cpu,
            "sim_minst_per_cpu_s": self.minst / cpu,
            "peak_rss_mb": statistics.median(self.peaks),
            "success_rate": (self.ops - self.failed) / self.ops,
        }
        return {key: {"value": value, "unit": END_TO_END_UNITS[key]}
                for key, value in values.items()}

    def per_layer(self) -> dict:
        return spans.layer_metrics(
            self.summaries["main"],
            self.summaries["serial"] or self.summaries["main"],
            untraced_wall=statistics.median(self.walls),
            traced_wall=statistics.median(self.traced_walls),
            counts=sorted(self.counts)[0],
        )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    work = OUT_DIR / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(name, seed, seconds, trace, work)
    try:
        run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run


def write_spans(run: Run, host: dict) -> Path:
    """Write the traced run's spans out once the run has ended."""
    path = OUT_DIR / f"spans-{run.name}-seed{run.seed}.json"
    path.write_text(json.dumps({
        "workload": run.name,
        "seed": run.seed,
        "host": host,
        "columns": ["op", "id", "parent", "name", "start", "end", "work"],
        "spans": run.spans,
    }))
    return path


def report(run: Run, metrics: dict) -> None:
    """Human-readable table, one metric per line with its unit."""
    print(f"{run.name} seed {run.seed}: {run.ops} operations, {run.failed} failed "
          f"(error_rate {run.failed / run.ops:.4f}), {run.cells} cells per operation, "
          f"median wall {statistics.median(run.walls):.4f} s per untraced operation, "
          f"output digest {run.expected.digest}")
    for key, metric in metrics.items():
        print(f"  {key:<44} {metric['value']:>14.6g} {metric['unit']}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    host = host_context()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs, metrics = [], {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if not run.completed:
            print(f"error: no {name} operation completed", file=sys.stderr)
            for problem in run.problems:
                print(f"  {problem}", file=sys.stderr)
            return 2
        own = run.per_layer() if args.trace else run.end_to_end()
        if args.trace:
            print(f"spans written to {write_spans(run, host)}")
        report(run, own)
        runs.append(run)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: value for key, value in own.items()})
    host["loadavg_after"] = list(os.getloadavg())
    print("host: " + json.dumps(host, sort_keys=True))
    correct = all(run.correct for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run.ops for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
