"""The DP extension figure's utility panel averages independent releases."""

from repro.experiments.figures import ext_dp


def test_each_utility_point_averages_charged_independent_releases(monkeypatch):
    # A repeat on one federation re-serves the same bytes free, so each
    # point must draw its samples from federations with distinct DP seeds:
    # one charged release per federation per point, none re-served.
    built = []
    released: dict[str, list] = {}
    build = ext_dp._build_federation

    def recording(seed, dp_seed):
        federation, truth = build(seed, dp_seed)
        execute = federation.execute

        def record(text, **kwargs):
            outcome = execute(text, **kwargs)
            released.setdefault(text, []).append(outcome)
            return outcome

        federation.execute = record
        built.append((federation, truth))
        return federation, truth

    monkeypatch.setattr(ext_dp, "_build_federation", recording)
    panel = ext_dp._utility_panel(trials=ext_dp.RELEASES_PER_POINT, seed=3)

    releases = panel.metadata["releases_per_point"]
    assert releases == ext_dp.RELEASES_PER_POINT == len(built)
    assert len({federation.dp_gate.policy.seed for federation, _ in built}) == releases
    points = len(ext_dp.OPERATIONS) * len(ext_dp.EPSILON_SWEEP)
    for federation, _ in built:
        accountant = federation.dp_gate.accountant
        assert accountant.releases == points and accountant.free_serves == 0

    truth = built[0][1]
    width = ext_dp.DOMAIN.high - ext_dp.DOMAIN.low
    scale = {"MAX": width, "SUM": width,
             "COUNT": float(ext_dp.N_PARTIES * ext_dp.ROWS_PER_PARTY)}
    templates = dict(ext_dp.OPERATIONS)
    for series in panel.series:
        statement = templates[series.label].format(
            attr=ext_dp.ATTRIBUTE, table=ext_dp.TABLE
        )
        for epsilon, y in series.points:
            outcomes = released[f"{statement} WITH SLO(dp_epsilon={epsilon})"]
            assert len(outcomes) == releases
            assert not any(o.cached for o in outcomes)  # every sample charged
            values = [o.values[0] for o in outcomes]
            if series.label == "SUM":
                # Unclamped noise spanning thousands of values: independent
                # draws are pairwise distinct.  (MAX clamps to the domain and
                # a COUNT's geometric noise is mostly 0 at large epsilon, so
                # their independent draws may tie.)
                assert len(set(values)) == releases
            errors = [abs(v - truth[series.label]) for v in values]
            assert y == sum(errors) / len(errors) / scale[series.label]
