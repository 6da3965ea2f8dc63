"""Analysis: overhead normalization, tables, experiment registry, calibration."""

from repro._lazy import lazy_exports

#: Public name -> the module that defines it, in ``__all__`` order.  A
#: submodule is imported only when one of its names is first looked up.
_EXPORTS = {
    "AGGREGATE": "repro.analysis.frontier",
    "POWER_AWARE_OBJECTIVES": "repro.analysis.frontier",
    "BenchmarkFrontier": "repro.analysis.frontier",
    "FrontierPoint": "repro.analysis.frontier",
    "FrontierReport": "repro.analysis.frontier",
    "dominated": "repro.analysis.frontier",
    "frontier_from_resultset": "repro.analysis.frontier",
    "frontier_points": "repro.analysis.frontier",
    "knee_point": "repro.analysis.frontier",
    "pareto_front": "repro.analysis.frontier",
    "pareto_set": "repro.analysis.frontier",
    "CalibrationResult": "repro.analysis.calibration",
    "run_calibration": "repro.analysis.calibration",
    "FIG6_BENCHMARKS": "repro.analysis.experiments",
    "Figure2Result": "repro.analysis.experiments",
    "Figure5Result": "repro.analysis.experiments",
    "Figure6Result": "repro.analysis.experiments",
    "Figure7Result": "repro.analysis.experiments",
    "Figure8Result": "repro.analysis.experiments",
    "LeakageTableResult": "repro.analysis.experiments",
    "default_sim": "repro.analysis.experiments",
    "run_figure2": "repro.analysis.experiments",
    "run_figure5": "repro.analysis.experiments",
    "run_figure6": "repro.analysis.experiments",
    "run_figure7": "repro.analysis.experiments",
    "run_figure8a": "repro.analysis.experiments",
    "run_figure8b": "repro.analysis.experiments",
    "run_leakage_table": "repro.analysis.experiments",
    "BenchmarkRow": "repro.analysis.overhead",
    "SchemeComparison": "repro.analysis.overhead",
    "relative_change": "repro.analysis.overhead",
    "FullReport": "repro.analysis.report",
    "full_report": "repro.analysis.report",
    "SeededStat": "repro.analysis.seeds",
    "replicate_headline": "repro.analysis.seeds",
    "StashScalingCell": "repro.analysis.stash_scaling",
    "StashScalingReport": "repro.analysis.stash_scaling",
    "TimingValidation": "repro.analysis.stash_scaling",
    "run_stash_scaling": "repro.analysis.stash_scaling",
    "run_stash_scaling_cell": "repro.analysis.stash_scaling",
    "validate_timing": "repro.analysis.stash_scaling",
    "export_figure2": "repro.analysis.export",
    "export_figure5": "repro.analysis.export",
    "export_figure6": "repro.analysis.export",
    "export_figure7": "repro.analysis.export",
    "export_figure8": "repro.analysis.export",
    "Table": "repro.analysis.tables",
    "format_value": "repro.analysis.tables",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
