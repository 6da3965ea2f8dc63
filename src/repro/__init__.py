"""repro: reproduction of "Suppressing the Oblivious RAM Timing Channel
While Making Information Leakage and Program Efficiency Trade-offs"
(Fletcher, Ren, Yu, van Dijk, Khan, Devadas — HPCA 2014).

The package implements the paper's leakage-aware secure processor — a
Path-ORAM-backed memory system whose timing channel is bounded to
``|E| * lg |R|`` bits by restricting rate changes to epoch transitions —
together with every substrate the evaluation depends on: the Path ORAM
protocol, cache hierarchy, in-order core timing, DDR3-lite DRAM model,
Table 2 power model, SPEC-like workloads, and the user/server security
protocols.

Quickstart — declare an experiment, run it, query the results::

    from repro import Engine, ExperimentSpec

    spec = ExperimentSpec(
        benchmarks=("mcf", "h264ref"),
        schemes=("base_dram", "base_oram", "static:300", "dynamic:4x4"),
        n_instructions=500_000,
    )
    results = Engine().run(spec)
    print(results.render())
    print(results.overhead("mcf", "dynamic:4x4"))   # x base_dram

Scale the same spec up without touching it: ``Engine(ProcessPoolBackend())``
shards cells across cores, ``Engine(..., cache="~/.cache/repro")`` makes
repeated sweeps free, and ``python -m repro sweep ...`` does both from the
shell.  Every paper figure is a prebuilt spec in :mod:`repro.api.figures`.

The direct simulator remains for single runs and custom schemes
(deprecated for sweeps — the engine supersedes it)::

    from repro import SecureProcessorSim, SimConfig, dynamic

    sim = SecureProcessorSim(SimConfig(n_instructions=500_000))
    result = sim.run("mcf", dynamic(n_rates=4, growth=4))
    print(result.describe())
    print(dynamic(4, 4).leakage())   # 32 ORAM-timing bits + 62 termination

See DESIGN.md for the system inventory, EXPERIMENTS.md for the
paper-vs-measured record of every table and figure, and README.md for the
CLI tour.
"""

from repro._lazy import lazy_exports

__version__ = "1.1.0"

#: Public name -> the module that defines it, in ``__all__`` order.  A
#: submodule is imported only when one of its names is first looked up.
_EXPORTS = {
    "Cell": "repro.api",
    "Engine": "repro.api",
    "ExperimentCache": "repro.api",
    "ExperimentSpec": "repro.api",
    "ProcessPoolBackend": "repro.api",
    "ResultSet": "repro.api",
    "RunRecord": "repro.api",
    "SerialBackend": "repro.api",
    "run_spec": "repro.api",
    "scheme_from_spec": "repro.core",
    "AveragingLearner": "repro.core",
    "BaseDramScheme": "repro.core",
    "BaseOramScheme": "repro.core",
    "DynamicScheme": "repro.core",
    "EpochSchedule": "repro.core",
    "LeakageBudgetExceededError": "repro.core",
    "LeakageMonitor": "repro.core",
    "MonitoredLearner": "repro.core",
    "ObliviousDramScheme": "repro.core",
    "PAPER_RATES": "repro.core",
    "PerfCounters": "repro.core",
    "RateSet": "repro.core",
    "StaticScheme": "repro.core",
    "ThresholdLearner": "repro.core",
    "TimingProtectedController": "repro.core",
    "dynamic": "repro.core",
    "dynamic_timing_leakage_bits": "repro.core",
    "expand_scheme_grid": "repro.core",
    "lg_spaced_rates": "repro.core",
    "paper_baselines": "repro.core",
    "paper_schedule": "repro.core",
    "parse_scheme_grid": "repro.core",
    "sim_schedule": "repro.core",
    "termination_leakage_bits": "repro.core",
    "total_leakage_bits": "repro.core",
    "FrontierConfig": "repro.frontier",
    "FrontierSweepResult": "repro.frontier",
    "run_frontier": "repro.frontier",
    "ORAMConfig": "repro.oram",
    "PAPER_ORAM_CONFIG": "repro.oram",
    "PAPER_ORAM_TIMING": "repro.oram",
    "PathORAM": "repro.oram",
    "RecursivePathORAM": "repro.oram",
    "VerifiedPathORAM": "repro.oram",
    "derive_timing": "repro.oram",
    "make_path_oram": "repro.oram",
    "SecureProcessorSim": "repro.sim",
    "SimConfig": "repro.sim",
    "SimResult": "repro.sim",
    "ipc_windows": "repro.sim",
    "performance_overhead": "repro.sim",
    "power_overhead": "repro.sim",
    "run_timing": "repro.sim",
    "build_trace": "repro.workloads",
    "get_workload": "repro.workloads",
    "workload_names": "repro.workloads",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
