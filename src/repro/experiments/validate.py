"""Executable reproduction criteria: the scorecard behind EXPERIMENTS.md.

Every figure's qualitative claims (who is above whom, where curves peak,
what converges) are encoded here as checks over the regenerated
:class:`~repro.experiments.series.FigureData`.  ``repro-topk validate`` runs
the experiments and prints PASS/FAIL per claim — the mechanical version of a
reproduction review.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .figures.registry import run_experiment
from .series import FigureData


@dataclass(frozen=True)
class Check:
    """One verified claim about one reproduced artifact."""

    experiment_id: str
    claim: str
    passed: bool
    detail: str = ""


def _panel(panels: Sequence[FigureData], figure_id: str) -> FigureData:
    for panel in panels:
        if panel.figure_id == figure_id:
            return panel
    raise KeyError(f"no panel {figure_id!r}")


def _check(experiment_id: str, claim: str, condition: bool, detail: str = "") -> Check:
    return Check(experiment_id=experiment_id, claim=claim, passed=bool(condition), detail=detail)


# -- per-figure criteria ------------------------------------------------------


def _validate_fig3(panels) -> list[Check]:
    a, b = _panel(panels, "fig3a"), _panel(panels, "fig3b")
    monotone = all(s.ys == sorted(s.ys) for p in (a, b) for s in p.series)
    converges = all(s.ys[-1] > 0.99 for p in (a, b) for s in p.series)
    early = a.series_by_label("p0=0.25").y_at(1) > a.series_by_label("p0=1.0").y_at(1)
    faster = b.series_by_label("d=0.25").y_at(3) > b.series_by_label("d=0.75").y_at(3)
    return [
        _check("fig3", "bound monotone to ~1", monotone and converges),
        _check("fig3", "smaller p0 higher in round 1", early),
        _check("fig3", "smaller d converges faster", faster),
    ]


def _validate_fig4(panels) -> list[Check]:
    a, b = _panel(panels, "fig4a"), _panel(panels, "fig4b")
    slow_growth = all(
        s.ys[-1] <= 3 * s.ys[0] for p in (a, b) for s in p.series
    )
    eps = min(x for s in a.series for x in s.xs)
    d_spread = abs(
        b.series_by_label("d=0.75").y_at(eps) - b.series_by_label("d=0.25").y_at(eps)
    )
    p0_spread = abs(
        a.series_by_label("p0=1.0").y_at(eps) - a.series_by_label("p0=0.25").y_at(eps)
    )
    return [
        _check("fig4", "r_min grows ~ sqrt(log 1/eps)", slow_growth),
        _check("fig4", "d dominates the round cost", d_spread > p0_spread),
    ]


def _validate_fig5(panels) -> list[Check]:
    a, b = _panel(panels, "fig5a"), _panel(panels, "fig5b")
    p1 = a.series_by_label("p0=1.0")
    return [
        _check("fig5", "p0=1: zero in round 1, peak in round 2",
               p1.y_at(1) == 0.0 and p1.y_at(2) == max(p1.ys)),
        _check("fig5", "larger p0 has the lower peak",
               max(p1.ys) < max(a.series_by_label("p0=0.25").ys)),
        _check("fig5", "smaller d peaks higher",
               max(b.series_by_label("d=0.25").ys) > max(b.series_by_label("d=0.75").ys)),
    ]


def _validate_fig6(panels) -> list[Check]:
    a, b = _panel(panels, "fig6a"), _panel(panels, "fig6b")
    return [
        _check("fig6", "measured precision reaches 100%",
               all(s.ys[-1] == 1.0 for p in (a, b) for s in p.series)),
        _check("fig6", "smaller d reaches 100% faster",
               b.series_by_label("d=0.25").y_at(3) >= b.series_by_label("d=0.75").y_at(3)),
    ]


def _validate_fig7(panels) -> list[Check]:
    a = _panel(panels, "fig7a")
    p1 = a.series_by_label("p0=1.0")
    small = a.series_by_label("p0=0.25")
    return [
        _check("fig7", "p0=1: zero loss round 1, peak round 2",
               p1.y_at(1) == 0.0 and p1.y_at(2) == max(p1.ys)),
        _check("fig7", "small p0 peaks in round 1", small.y_at(1) == max(small.ys)),
        _check("fig7", "loss decays as the protocol converges",
               all(s.ys[-1] <= 0.05 for s in a.series)),
    ]


def _validate_fig8(panels) -> list[Check]:
    ok = all(
        s.ys[0] >= s.ys[-1] for p in panels for s in p.series
    )
    return [_check("fig8", "LoP decreases with n", ok)]


def _validate_fig9(panels) -> list[Check]:
    figure = panels[0]
    half, quarter = figure.series_by_label("d=0.5"), figure.series_by_label("d=0.25")
    return [
        _check("fig9", "d dominates rounds",
               quarter.points[-1][1] < half.points[-1][1]),
        _check("fig9", "larger p0 lowers LoP within a d-series",
               half.points[-1][0] <= half.points[0][0]),
    ]


def _validate_fig10(panels) -> list[Check]:
    a, b = _panel(panels, "fig10a"), _panel(panels, "fig10b")
    xs = a.series[0].xs
    prob_below = all(
        a.series_by_label("probabilistic").y_at(x) < a.series_by_label("naive").y_at(x)
        for x in xs
    )
    naive_worst = all(y > 0.6 for y in b.series_by_label("naive").ys)
    anon_avoids = all(
        b.series_by_label("anonymous-naive").y_at(x) < b.series_by_label("naive").y_at(x)
        for x in xs
    )
    return [
        _check("fig10", "probabilistic below naive on average", prob_below),
        _check("fig10", "naive worst case ~100% at its starter", naive_worst),
        _check("fig10", "anonymous scheme avoids the worst case", anon_avoids),
    ]


def _validate_fig11(panels) -> list[Check]:
    figure = panels[0]
    return [
        _check("fig11", "every k reaches 100% precision",
               all(s.ys[-1] == 1.0 for s in figure.series)),
    ]


def _validate_fig12(panels) -> list[Check]:
    a, b = _panel(panels, "fig12a"), _panel(panels, "fig12b")
    prob = a.series_by_label("probabilistic")
    return [
        _check("fig12", "probabilistic below naive for every k",
               all(prob.y_at(x) < a.series_by_label("naive").y_at(x) for x in prob.xs)),
        _check("fig12", "probabilistic LoP increases with k", prob.ys[-1] > prob.ys[0]),
        _check("fig12", "naive worst case extreme for all k",
               all(y > 0.6 for y in b.series_by_label("naive").ys)),
    ]


VALIDATORS: dict[str, Callable[[Sequence[FigureData]], list[Check]]] = {
    "fig3": _validate_fig3,
    "fig4": _validate_fig4,
    "fig5": _validate_fig5,
    "fig6": _validate_fig6,
    "fig7": _validate_fig7,
    "fig8": _validate_fig8,
    "fig9": _validate_fig9,
    "fig10": _validate_fig10,
    "fig11": _validate_fig11,
    "fig12": _validate_fig12,
}


def validate_experiment(
    experiment_id: str, *, trials: int | None = None, seed: int = 0,
    jobs: int | None = None,
) -> list[Check]:
    """Run one experiment (optionally in parallel) and score its claims."""
    if experiment_id not in VALIDATORS:
        raise KeyError(
            f"no validator for {experiment_id!r}; scored artifacts: "
            f"{sorted(VALIDATORS)}"
        )
    panels = run_experiment(experiment_id, trials=trials, seed=seed, jobs=jobs)
    assert not isinstance(panels, str)
    return VALIDATORS[experiment_id](panels)


def scorecard(
    *, trials: int | None = None, seed: int = 0,
    experiment_ids: Sequence[str] | None = None,
    jobs: int | None = None,
) -> list[Check]:
    """Score every (or the selected) paper figures."""
    ids = list(experiment_ids) if experiment_ids else sorted(
        VALIDATORS, key=lambda i: int(i.removeprefix("fig"))
    )
    checks: list[Check] = []
    for experiment_id in ids:
        checks.extend(
            validate_experiment(experiment_id, trials=trials, seed=seed, jobs=jobs)
        )
    return checks


def render_scorecard(checks: Sequence[Check]) -> str:
    """Human-readable PASS/FAIL table."""
    lines = [f"{'artifact':<8} {'status':<6} claim"]
    lines.append("-" * 64)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"{check.experiment_id:<8} {status:<6} {check.claim}")
        if check.detail and not check.passed:
            lines.append(f"{'':<15}{check.detail}")
    passed = sum(c.passed for c in checks)
    lines.append("-" * 64)
    lines.append(f"{passed}/{len(checks)} claims reproduced")
    return "\n".join(lines)
