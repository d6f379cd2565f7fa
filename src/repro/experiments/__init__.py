"""Experiment harness: trial runners, aggregation, figure registry, reports."""

from .._lazy import lazy_exports

# The one submodule loaded with the package: ``runner`` from-imports
# ``execute_many``, ``run_protocol_on_vectors`` and ``node_lop``, and a span
# recorder that patches those finds every holder by scanning the loaded
# modules -- a runner first imported *while* they are patched would keep the
# wrappers.  Every path to the experiments (the figure registry, and the
# gateway through ``service.metrics -> experiments.telemetry``) passes here.
from . import runner as runner

_EXPORTS = {
    "config": ("PAPER_TRIALS", "TrialSetup"),
    "figures": ("EXPERIMENTS", "Experiment", "all_experiment_ids", "run_experiment"),
    "report": ("render_figure", "render_table", "render_timing", "write_csv"),
    "runner": (
        "TrialError",
        "aggregate_coalition_lop",
        "aggregate_node_lop",
        "mean_final_precision",
        "mean_lop_by_round",
        "mean_messages",
        "mean_precision_by_round",
        "resolve_jobs",
        "run_single_trial",
        "run_trials",
        "run_trials_many",
        "shutdown_pool",
        "using_jobs",
    ),
    "series": ("FigureData", "Series"),
    "summary": ("generate_report", "write_report"),
    "svg_plot": ("render_svg", "write_all_svgs", "write_svg"),
    "telemetry": (
        "ExtractionProfiler",
        "PhaseProfiler",
        "PointTelemetry",
        "TelemetryCollector",
        "TrialTiming",
        "collect",
        "profile_extraction",
        "profile_phases",
    ),
    "validate": ("Check", "render_scorecard", "scorecard", "validate_experiment"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
