"""Per-figure experiment modules and the experiment registry."""

from ..._lazy import lazy_exports

_EXPORTS = {
    "registry": ("EXPERIMENTS", "Experiment", "all_experiment_ids", "run_experiment"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
