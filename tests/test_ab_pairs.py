"""The pair-measurement tool's rules (``scripts/ab_pairs.py``) on synthetic samples.

The pure functions are exercised: the verdict, the sign test, the quartiles
and the seed ledger; and so is how the two trees are materialised, on a
throwaway repository.  Running them is the tool's job, not tier-1's.
"""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab = sys.modules["ab_pairs"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

PEAK = ab.catalog.BY_NAME["peak_rss_mb"]  # lower is better, bound 10 %
SETUP = ab.catalog.BY_NAME["setup_s"]  # lower is better, bound 25 %
PRECISION = ab.catalog.BY_NAME["precision"]  # higher is better, bound 2 %
SIM = ab.catalog.BY_NAME["sim_s"]  # exact: bound 0

PARENT = [163.6, 163.7, 163.8, 163.8, 163.9, 164.0, 163.7, 163.8, 163.9, 163.6]


def test_sign_test_p_is_the_exact_binomial_tail():
    assert ab.sign_test_p(10, 0) == pytest.approx(2 / 1024)
    assert ab.sign_test_p(9, 1) == pytest.approx(2 * 11 / 1024)
    assert ab.sign_test_p(0, 9) == ab.sign_test_p(9, 0)  # two-sided
    assert ab.sign_test_p(5, 5) == 1.0  # capped, not 2 * P(<= 5)
    assert ab.sign_test_p(0, 0) == 1.0  # every pair tied: no evidence
    assert ab.sign_test_p(5, 0) == pytest.approx(0.0625)


def test_quartiles():
    assert ab.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


def test_a_clear_drop_in_every_pair_is_improved():
    change = [value - 28.0 for value in PARENT]
    result = ab.verdict(PEAK, PARENT, change)
    assert (result.wins, result.losses, result.n) == (10, 0, 10)
    assert result.verdict == ab.IMPROVED
    # The same samples read the other way round, on a higher-is-better metric.
    higher = ab.catalog.Metric("x", "MB", "higher", 0.1)
    assert ab.verdict(higher, PARENT, change).verdict == "regress"


def test_nine_of_ten_is_enough_eight_is_not():
    nine = [value - 1.0 for value in PARENT[:9]] + [PARENT[9] + 1.0]
    assert ab.verdict(PEAK, PARENT, nine).verdict == ab.IMPROVED
    eight = [value - 1.0 for value in PARENT[:8]] + [v + 1.0 for v in PARENT[8:]]
    result = ab.verdict(PEAK, PARENT, eight)
    assert result.wins == 8
    assert result.verdict == "pass"  # within the bound, tight spread


def test_a_gap_inside_the_parents_spread_is_not_improved():
    # Lower in every pair, but by less than the parent's own quartile gap.
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    change = [value - 0.01 for value in parent]
    result = ab.verdict(SETUP, parent, change)
    assert result.wins == 10
    assert result.verdict == "unresolved"  # spread ~0.67 > 0.25


def test_too_few_pairs_never_read_improved():
    # Five of five is p = 0.0625: a sign test cannot say more from five.
    parent = PARENT[:5]
    change = [value - 28.0 for value in parent]
    assert ab.verdict(PEAK, parent, change).verdict == "pass"


def test_a_wide_spread_cleared_by_every_run_is_compares_pass():
    # bench/compare.py's exception: the spread is wider than the bound, but
    # every change run reads better than every parent run.
    parent = [10.0, 14.0, 18.0, 22.0, 26.0]
    change = [5.0, 6.0, 7.0, 8.0, 9.0]
    assert ab.compare.spread(parent) > SETUP.bound
    assert ab.verdict(SETUP, parent, change).verdict == "pass"
    # Without the clearance it is unresolved, as there.
    assert ab.verdict(SETUP, parent, [5.0, 6.0, 7.0, 8.0, 11.0]).verdict == "unresolved"


def test_regress_is_the_benchmarks_own_bound():
    parent = [0.20, 0.21, 0.22, 0.20, 0.21]
    slightly = [value * 1.1 for value in parent]
    assert ab.verdict(SETUP, parent, slightly).verdict == "pass"
    much = [value * 1.5 for value in parent]
    assert ab.verdict(SETUP, parent, much).verdict == "regress"


def test_metrics_that_tie_in_every_pair_pass():
    result = ab.verdict(PRECISION, [1.0] * 10, [1.0] * 10)
    assert (result.wins, result.losses, result.p) == (0, 0, 1.0)
    assert result.verdict == "pass"


def test_an_exact_metric_moves_it_never_improves():
    parent = [6.1, 6.3, 6.5, 6.7, 6.2, 6.4, 6.6, 6.8, 6.1, 6.3]
    lower = [value - 1.0 for value in parent]
    assert ab.verdict(SIM, parent, lower).verdict == "moved"
    assert ab.verdict(SIM, parent, [v + 1e-9 for v in parent]).verdict == "regress"


def test_the_verdict_is_compares_wherever_it_is_not_improved():
    samples = [
        (PARENT, PARENT),
        (PARENT, [value * 1.2 for value in PARENT]),
        ([1.0, 9.0, 2.0, 8.0], [5.0, 5.0, 5.0, 5.0]),
    ]
    read = []
    for base, change in samples:
        for metric in (PEAK, SETUP, PRECISION, SIM):
            result = ab.verdict(metric, base, change).verdict
            if result != ab.IMPROVED:
                assert result == ab.compare.verdict(metric, base, change)
            read.append(result)
    assert {"pass", "regress", "unresolved", ab.IMPROVED} <= set(read)


def test_unequal_samples_are_refused():
    with pytest.raises(ValueError):
        ab.verdict(PEAK, [1.0, 2.0], [1.0])


def test_seed_ledger_reads_ranges_and_skips_what_was_used():
    text = "# comment\n0-3  # earlier\n\n7\n9  # ab_pairs\n"
    used = ab.read_seeds(text)
    assert used == {0, 1, 2, 3, 7, 9}
    assert ab.next_seeds(used, 4) == [4, 5, 6, 8]


def test_the_committed_ledger_parses():
    used = ab.read_seeds(ab.SEEDS_USED.read_text())
    assert {0, 120, 1907} <= used


def test_a_run_beyond_three_iqrs_of_its_side_is_named_and_changes_no_verdict():
    # One slow first run on the parent side (a stall), one on the change side.
    base = list(PARENT)
    base[0] = 200.0
    change = [value - 28.0 for value in PARENT]
    change[7] = 10.0
    assert ab.beyond_fences(base) == [0]
    assert ab.beyond_fences(change) == [7]
    assert ab.beyond_fences(PARENT) == []
    result = ab.verdict(PEAK, base, change)
    assert result.stalled == ((0, "parent"), (7, "change"))
    assert result.verdict == ab.IMPROVED
    # Where the verdict is not ``improved`` it is still compare.py's.
    slower = [value * 1.2 for value in base]
    flagged = ab.verdict(PEAK, base, slower)
    assert flagged.stalled == ((0, "parent"), (0, "change"))
    assert flagged.verdict == ab.compare.verdict(PEAK, base, slower)
    # Every run on the fence or inside it: nothing named.
    assert ab.verdict(PEAK, PARENT, PARENT).stalled == ()
    # An exact metric that never moves has a zero IQR and no stall.
    assert ab.beyond_fences([1.0] * 10) == []


def test_the_table_names_a_stalled_pair_by_seed_and_side():
    base = list(PARENT)
    base[2] = 200.0
    rows = [("hot_repeat", PEAK, ab.verdict(PEAK, base, PARENT))]
    seeds = list(range(171, 181))
    lines = ab.table(rows, {"hot_repeat": "10/10 · 10/10"}, seeds).splitlines()
    assert lines[0].endswith("| beyond 3×IQR |")
    assert len(lines[0].split("|")) == len(lines[1].split("|")) == len(lines[2].split("|"))
    assert lines[2].endswith("| 10/10 · 10/10 | seed 173 parent |")
    quiet = ab.table([("hot_repeat", PEAK, ab.verdict(PEAK, PARENT, PARENT))],
                     {"hot_repeat": "10/10 · 10/10"}, seeds)
    assert quiet.splitlines()[2].endswith("| - |")


def _entries(tree: Path) -> dict[str, "bytes | None"]:
    """Every entry under ``tree``, dot-entries included: a file's bytes,
    ``None`` for a directory."""
    return {
        str(path.relative_to(tree)): path.read_bytes() if path.is_file() else None
        for path in tree.rglob("*")
    }


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_both_trees_are_materialised_alike(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / "src" / "pkg" / "mod.py").write_text("VALUE = 1\n")
    (repo / "README.md").write_text("readme\n")
    (repo / ".gitignore").write_text("out/\n")

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True,
        )

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    (repo / "out").mkdir()
    (repo / "out" / "run.json").write_text("{}")  # ignored: copied by neither

    parent, change = tmp_path / "parent", tmp_path / "change"
    ab.extract_revision("HEAD", parent, root=repo)
    ab.copy_working_tree(change, root=repo)
    assert _entries(parent) == _entries(change)
    assert set(_entries(parent)) == {
        "src", "src/pkg", "src/pkg/mod.py", "README.md", ".gitignore"
    }
