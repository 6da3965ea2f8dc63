"""The four benchmark workloads.

Each workload class splits its life into the phases the benchmark
times separately:

- ``__init__`` is the program's set-up: import ``repro`` and build the
  engine, backend or store.  ``setup_s`` times exactly this, from a
  fresh interpreter (:func:`probe`).
- ``make_inputs`` generates the inputs from the seed (benchmark side,
  untimed).
- ``reference`` computes the expected outputs, through an independent
  path where the program has one (serial backend, in-memory replay).
- ``run_op`` is one timed operation; ``check`` verifies its outputs.

Every operation starts cold: a fresh cache or store directory, and the
caller drops the per-process simulators (``reset_local_sims``) first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

#: Post-warm-up instruction budget of every engine cell.
N_INSTRUCTIONS = 200_000

#: The modelled caches warm on this prefix before statistics start.
WARMUP_FRACTION = 0.30

#: Ingested traces are longer, so each spans several stream chunks.
N_INGEST_INSTRUCTIONS = 2_000_000

#: An operation slower than this counts as failed (timeout).
OP_TIMEOUT_S = 60.0

#: Queue workers; never more than the 2-core reference host has.
WORKERS = 2


@dataclass
class Outcome:
    """What one operation produced, reduced to checkable facts."""

    digest: str
    cells: int
    minst: float
    real_accesses: int
    dummy_accesses: int
    problems: list[str] = field(default_factory=list)

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.cells, self.real_accesses, self.dummy_accesses)


def _outcome_of(results, expected_cells: int) -> Outcome:
    """Facts of a list of ResultSets: combined digest, counts, meta checks."""
    records = [record for result in results for record in result.records]
    digest = hashlib.sha256(
        "".join(result.digest() for result in results).encode()
    ).hexdigest()
    outcome = Outcome(
        digest=digest,
        cells=len(records),
        minst=sum(record.n_instructions for record in records) / 1e6,
        real_accesses=sum(record.real_accesses for record in records),
        dummy_accesses=sum(record.dummy_accesses for record in records),
    )
    if outcome.cells != expected_cells:
        outcome.problems.append(f"{outcome.cells} records, expected {expected_cells}")
    for result in results:
        if result.meta.get("cells_poisoned"):
            outcome.problems.append(f"{result.meta['cells_poisoned']} poisoned cells")
        if result.meta["cells_run"] + result.meta["cache_hits"] != result.meta["cells"]:
            outcome.problems.append(f"cell accounting off: {result.meta}")
    return outcome


class _EngineWorkload:
    """A workload that runs ExperimentSpecs through one Engine backend."""

    specs: list
    backend: object

    def make_inputs(self, root: Path) -> None:
        """Engine workloads generate their traces inside the program."""

    def _run(self, backend, root: Path) -> list:
        from repro.api import Engine, ExperimentCache

        engine = Engine(backend, cache=ExperimentCache(root))
        return [engine.run(spec) for spec in self.specs]

    def run_op(self, root: Path) -> list:
        return self._run(self.backend, root)

    def serial_replay(self, root: Path) -> list:
        """The same specs on the in-process serial backend."""
        from repro.api import SerialBackend

        return self._run(SerialBackend(), root)

    def reference(self, root: Path) -> Outcome:
        """Serial-backend run: the independent path the queue must match."""
        return self.check(self.serial_replay(root), root)

    def check(self, results: list, root: Path) -> Outcome:
        return _outcome_of(results, sum(spec.n_cells for spec in self.specs))


class PaperFigures(_EngineWorkload):
    """All six figure specs on one SerialBackend Engine, cold each time."""

    name = "paper-figures"

    def __init__(self, seed: int) -> None:
        from repro.api import SerialBackend, figures

        params = dict(n_instructions=N_INSTRUCTIONS, seeds=(seed,),
                      warmup_fraction=WARMUP_FRACTION)
        self.specs = [
            figures.figure2_spec(**params),
            figures.figure5_spec(**params),
            figures.figure6_spec(**params),
            figures.figure7_spec(**params),
            figures.figure8a_spec(**params),
            figures.figure8b_spec(**params),
        ]
        self.backend = SerialBackend()
        self.passes = len({
            (cell.benchmark, cell.input_name)
            for spec in self.specs for cell in spec.cells()
        })

    def reference(self, root: Path) -> Outcome:
        """The serial backend is this workload's own path: the reference
        run is a full cold operation, and later ones must repeat it."""
        return self.check(self.run_op(root), root)

    def check(self, results: list, root: Path) -> Outcome:
        from repro.api import ExperimentCache

        outcome = super().check(results, root)
        passes = ExperimentCache(root).traces.entry_count()
        if passes != self.passes:
            outcome.problems.append(
                f"{passes} functional passes, expected {self.passes}"
            )
        return outcome


class QueueFleet(_EngineWorkload):
    """A 32-cell spec drained by a fresh 2-worker subprocess fleet."""

    name = "queue-fleet"

    def __init__(self, seed: int) -> None:
        from repro.api import ExperimentSpec
        from repro.dist import WorkQueueBackend

        self.specs = [ExperimentSpec(
            name="queue fleet",
            benchmarks=("mcf", "libquantum", "h264ref", "astar/rivers"),
            schemes=("base_dram", "base_oram", "static:300", "dynamic:4x4"),
            seeds=(seed, seed + 1),
            n_instructions=N_INSTRUCTIONS,
            warmup_fraction=WARMUP_FRACTION,
        )]
        self.backend = WorkQueueBackend(workers=WORKERS, wait_timeout_s=OP_TIMEOUT_S)

    def fleet_facts(self, started_at: float) -> dict:
        """Coordinator-side facts of the last run, read from the queue board."""
        queue = self.backend.queue
        done_at = [
            json.loads(path.read_text())["completed_at"]
            for path in (queue.root / "done").glob("*.json")
        ]
        tasks = queue.task_ids()
        failed_claims = sum(queue.attempts_used(task) for task in tasks)
        return {
            "first_task_done_s": min(done_at) - started_at if done_at else 0.0,
            "attempts_per_task": (len(done_at) + failed_claims) / len(tasks) if tasks else 0.0,
        }


class IngestStream:
    """Import .rtb traces into a fresh IngestStore and stream-replay them."""

    name = "ingest-stream"
    benchmarks = ("libquantum", "mcf", "h264ref")
    schemes = ("static:300", "dynamic:4x4")

    def __init__(self, seed: int) -> None:
        # Set-up pays the imports of the streaming replay path.
        import repro.cache.streaming  # noqa: F401
        import repro.ingest  # noqa: F401
        import repro.sim.streaming  # noqa: F401

        self.seed = seed
        self.warmup = int(N_INGEST_INSTRUCTIONS * WARMUP_FRACTION)
        self.paths: list[Path] = []
        self.content_digests: list[str] = []

    def make_inputs(self, root: Path) -> None:
        """Write one binary trace file per benchmark, built from the seed."""
        from repro.ingest import write_binary_trace
        from repro.workloads import build_trace

        root.mkdir(parents=True, exist_ok=True)
        self.paths, self.content_digests = [], []
        for bench in self.benchmarks:
            trace = build_trace(bench, seed=self.seed,
                                n_instructions=N_INGEST_INSTRUCTIONS + self.warmup)
            path = root / f"{bench}.rtb"
            write_binary_trace(trace, path)
            self.paths.append(path)
            self.content_digests.append(trace.content_digest())

    def run_op(self, root: Path) -> list:
        """The ``repro ingest --import`` and ``--replay`` path, per trace and
        scheme.  Calls go through module attributes so the traced run's
        wrappers see them."""
        import repro.cache.streaming as cache_streaming
        import repro.core.scheme as core_scheme
        import repro.sim.streaming as sim_streaming
        from repro.ingest import IngestStore

        store = IngestStore(root)
        digests = [store.import_trace(path) for path in self.paths]
        rows = []
        for digest in digests:
            for spec in self.schemes:
                scheme = core_scheme.scheme_from_spec(spec)
                header, chunks = store.open_stream(digest)
                miss_chunks, machine = cache_streaming.stream_functional(
                    header, chunks, warmup_instructions=self.warmup
                )
                result = sim_streaming.run_timing_streaming(
                    miss_chunks, machine.finish, scheme
                )
                rows.append((digest, spec, result))
        return rows

    def reference(self, root: Path) -> Outcome:
        """In-memory functional pass plus ``run_timing`` on each trace."""
        from repro.cache.hierarchy import simulate_hierarchy
        from repro.core.scheme import scheme_from_spec
        from repro.ingest import load_memory_trace
        from repro.sim.timing import run_timing

        rows = []
        for path, digest in zip(self.paths, self.content_digests):
            miss_trace = simulate_hierarchy(
                load_memory_trace(path), warmup_instructions=self.warmup
            )
            for spec in self.schemes:
                result = run_timing(miss_trace, scheme_from_spec(spec),
                                    record_requests=False)
                rows.append((digest, spec, result))
        return self.check(rows, root)

    def check(self, rows: list, root: Path) -> Outcome:
        facts = [
            [digest, spec, result.cycles, result.power_watts,
             result.controller.total_waste, result.controller.real_accesses,
             result.controller.dummy_accesses, result.n_instructions]
            for digest, spec, result in rows
        ]
        outcome = Outcome(
            digest=hashlib.sha256(json.dumps(facts).encode()).hexdigest(),
            cells=len(rows),
            minst=sum(row[7] for row in facts) / 1e6,
            real_accesses=sum(row[5] for row in facts),
            dummy_accesses=sum(row[6] for row in facts),
        )
        imported = list(dict.fromkeys(row[0] for row in facts))
        if imported != self.content_digests:
            outcome.problems.append("imported digests differ from the traces written")
        expected = len(self.benchmarks) * len(self.schemes)
        if outcome.cells != expected:
            outcome.problems.append(f"{outcome.cells} replays, expected {expected}")
        return outcome


WORKLOADS = {cls.name: cls for cls in (PaperFigures, IngestStream, QueueFleet)}

#: Workloads whose cells execute in other processes; their worker-side
#: layers are measured by a traced serial replay of the same spec.
POOLED = ("queue-fleet",)


def probe(name: str, seed: int) -> None:
    """Fresh-interpreter set-up: what ``setup_s`` times.  Prints the CPU
    seconds this interpreter has used since it started."""
    import time

    import repro  # noqa: F401

    WORKLOADS[name](seed)
    print("ready", time.process_time(), flush=True)
