"""Unit tests for the experiment registry."""

import importlib

import pytest

from repro.experiments.figures.registry import (
    EXPERIMENTS,
    all_experiment_ids,
    run_experiment,
)
from repro.experiments.series import FigureData


PAPER_IDS = {"table1"} | {f"fig{i}" for i in range(3, 13)}
EXTENSION_IDS = {
    "ext-noise",
    "ext-bound-check",
    "ext-distributions",
    "ext-communication",
    "ext-collusion",
    "ext-bayes",
    "ext-tpch-sweep",
    "ext-dp",
}


class TestRegistry:
    def test_every_paper_artifact_present(self):
        assert PAPER_IDS <= set(EXPERIMENTS)

    def test_extension_experiments_present(self):
        assert EXTENSION_IDS <= set(EXPERIMENTS)
        assert set(EXPERIMENTS) == PAPER_IDS | EXTENSION_IDS

    def test_ids_in_paper_order(self):
        ids = all_experiment_ids()
        assert ids[0] == "table1"
        assert ids[1:11] == [f"fig{i}" for i in range(3, 13)]

    def test_kinds(self):
        assert EXPERIMENTS["table1"].kind == "table"
        for fig in ("fig3", "fig4", "fig5"):
            assert EXPERIMENTS[fig].kind == "analytic"
        for fig in ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"):
            assert EXPERIMENTS[fig].kind == "empirical"
        for ext in EXTENSION_IDS:
            assert EXPERIMENTS[ext].kind == "extension"

    def test_every_entry_names_a_module_with_a_run(self):
        # Entries resolve on first run; a typo must fail here, not there.
        for experiment in EXPERIMENTS.values():
            module = importlib.import_module(experiment.module)
            assert callable(module.run), experiment.module
            assert experiment.runner is module.run

    def test_unknown_id_lists_known(self):
        with pytest.raises(KeyError, match="known:"):
            run_experiment("fig99")

    def test_table_returns_text(self):
        assert isinstance(run_experiment("table1"), str)

    def test_figure_returns_panels(self):
        panels = run_experiment("fig3")
        assert all(isinstance(p, FigureData) for p in panels)
        assert [p.figure_id for p in panels] == ["fig3a", "fig3b"]

    def test_empirical_accepts_trials(self):
        panels = run_experiment("fig7", trials=3, seed=1)
        assert panels[0].metadata["trials"] == 3
