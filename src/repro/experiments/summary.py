"""One-shot reproduction report: every artifact, rendered as markdown.

``repro-topk report`` runs the full registry (paper figures plus extension
experiments) and produces a single self-contained markdown document with the
data tables and each panel's expected shape — the artifact to attach to a
reproduction review.
"""

from __future__ import annotations

from pathlib import Path

from .figures.registry import EXPERIMENTS, run_experiment
from .report import render_table, render_timing
from .series import FigureData


def _panel_markdown(panel: FigureData) -> str:
    lines = [f"### {panel.title} (`{panel.figure_id}`)", ""]
    lines.append("```")
    lines.append(render_table(panel))
    lines.append("```")
    parameters = {k: v for k, v in panel.metadata.items() if k != "timing"}
    if parameters:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(parameters.items()))
        lines.append(f"*parameters: {rendered}*")
    timing = render_timing(panel)
    if timing:
        lines.append(f"*{timing}*")
    lines.append("")
    return "\n".join(lines)


def generate_report(
    *,
    trials: int | None = None,
    seed: int = 0,
    include_extensions: bool = True,
    jobs: int | None = None,
    timing: bool = False,
) -> str:
    """Run every registered experiment and render the markdown report."""
    sections = [
        "# Reproduction report",
        "",
        "Regenerated from `repro-topk report`; every table/figure of "
        "'Topk Queries across Multiple Private Databases' (ICDCS 2005) "
        "plus this repository's extension experiments.",
        "",
        f"*trials per measured point: {trials or 'paper default (100)'}, "
        f"base seed: {seed}*",
        "",
    ]
    for experiment in EXPERIMENTS.values():
        if experiment.kind == "extension" and not include_extensions:
            continue
        sections.append(
            f"## {experiment.paper_artifact} — {experiment.description}"
        )
        sections.append("")
        outcome = run_experiment(
            experiment.experiment_id,
            trials=trials,
            seed=seed,
            jobs=jobs,
            timing=timing,
        )
        if isinstance(outcome, str):
            sections.extend(["```", outcome, "```", ""])
        else:
            for panel in outcome:
                sections.append(_panel_markdown(panel))
    return "\n".join(sections)


def write_report(
    path: Path | str,
    *,
    trials: int | None = None,
    seed: int = 0,
    include_extensions: bool = True,
    jobs: int | None = None,
    timing: bool = False,
) -> Path:
    """Generate the report and write it to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        generate_report(
            trials=trials,
            seed=seed,
            include_extensions=include_extensions,
            jobs=jobs,
            timing=timing,
        )
    )
    return path
