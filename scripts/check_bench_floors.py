#!/usr/bin/env python
"""CI bench-regression gate: every committed BENCH_*.json against its floor.

The perf-sensitive PRs in this repo ratchet their wins into committed
benchmark documents (``results/BENCH_*.json``).  This script is the gate
that keeps them ratcheted: it parses every benchmark document, asserts the
floors — embedded ``floor``/``floors`` blocks where the bench declares its
own, registry rules here otherwise — and fails with a per-bench diff table
when any floor regresses.

Stdlib-only, no repo imports: the gate must run on a bare checkout.

Usage::

    python scripts/check_bench_floors.py [--results results/]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


class Check:
    """One floor assertion over a benchmark document."""

    def __init__(self, label: str, relation: str, bound, value) -> None:
        self.label = label
        self.relation = relation  # ">=", "<=", "in"
        self.bound = bound
        self.value = value

    @property
    def ok(self) -> bool:
        if self.value is None:
            return False
        if self.relation == ">=":
            return self.value >= self.bound
        if self.relation == "<=":
            return self.value <= self.bound
        low, high = self.bound
        return low <= self.value <= high

    @property
    def bound_text(self) -> str:
        if self.relation == "in":
            low, high = self.bound
            return f"in [{low:g}, {high:g}]"
        return f"{self.relation} {self.bound:g}"


def _get(doc: dict, *path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def _point_floor_checks(doc: dict) -> list[Check]:
    """The ``{"floor": {"at_n"/"at_rows": X, "min_<key>": Y, ...}}`` shape:
    each ``min_<key>`` bounds ``points[X][<key>]`` from below."""
    floor = doc.get("floor", {})
    at_key = "at_n" if "at_n" in floor else "at_rows"
    at = floor.get(at_key)
    return [
        Check(
            f"points[{at}].{name[len('min_'):]}",
            ">=",
            bound,
            _get(doc, "points", str(at), name[len("min_"):]),
        )
        for name, bound in sorted(floor.items())
        if name.startswith("min_")
    ]


def _band_floor_checks(doc: dict) -> list[Check]:
    """Observability shape: ratio bands around 1.0."""
    band = tuple(_get(doc, "floor", "disabled_over_baseline") or (0.95, 1.05))
    return [
        Check(f"ratios.{key}", "in", band, _get(doc, "ratios", key))
        for key in ("disabled_over_baseline", "batch_disabled_over_baseline")
    ]


def _gateway_checks(doc: dict) -> list[Check]:
    floor = doc.get("speedup_floor", 3.0)
    return [
        Check(
            "speedup_sharded_vs_unsharded",
            ">=",
            floor,
            doc.get("speedup_sharded_vs_unsharded"),
        )
    ]


def _embedded_floors_checks(doc: dict) -> list[Check]:
    """The ``{"floors": {"max_<key>": X, "min_<key>": Y}}`` shape."""
    checks = []
    for name, bound in sorted(doc.get("floors", {}).items()):
        if name.startswith("max_"):
            key = name[len("max_"):]
            checks.append(Check(key, "<=", bound, doc.get(key)))
        elif name.startswith("min_"):
            key = name[len("min_"):]
            checks.append(Check(key, ">=", bound, doc.get(key)))
    return checks


#: filename -> callable(doc) -> list[Check].  Benches that embed their own
#: floors route through the generic handlers; fixed floors live here.
RULES = {
    "BENCH_kernel_speedup.json": _point_floor_checks,
    "BENCH_local_extraction.json": _point_floor_checks,
    "BENCH_observability_overhead.json": _band_floor_checks,
    "BENCH_gateway_soak.json": _gateway_checks,
    "BENCH_dp_overhead.json": _embedded_floors_checks,
    "BENCH_planner.json": lambda doc: [
        Check("throughput_win", ">=", 2.0, doc.get("throughput_win"))
    ],
    "BENCH_service_throughput.json": lambda doc: [
        Check(
            "speedup_vs_one_at_a_time",
            ">=",
            2.0,
            doc.get("speedup_vs_one_at_a_time"),
        )
    ],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results", default=str(REPO / "results"), help="benchmark directory"
    )
    args = parser.parse_args()
    results = Path(args.results)

    documents = sorted(results.glob("BENCH_*.json"))
    if not documents:
        print(f"no BENCH_*.json under {results}", file=sys.stderr)
        return 1

    rows: list[tuple[str, Check]] = []
    warnings: list[str] = []
    for path in documents:
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            rows.append((path.name, Check("<valid json>", ">=", 1, None)))
            warnings.append(f"{path.name}: unparseable: {exc}")
            continue
        rule = RULES.get(path.name)
        if rule is None:
            if "floors" in doc:
                rule = _embedded_floors_checks
            else:
                warnings.append(
                    f"{path.name}: no floor rules registered and no embedded "
                    f"'floors' block — unchecked"
                )
                continue
        rows.append((path.name, None))  # header row for the bench
        for check in rule(doc):
            rows.append((path.name, check))

    name_width = max(len(name) for name, _ in rows) + 2
    label_width = max(
        (len(c.label) for _, c in rows if c is not None), default=20
    ) + 2
    failures = 0
    print(
        f"{'bench':<{name_width}}{'check':<{label_width}}"
        f"{'floor':<18}{'observed':<14}status"
    )
    print("-" * (name_width + label_width + 40))
    for name, check in rows:
        if check is None:
            continue
        observed = "missing" if check.value is None else f"{check.value:g}"
        status = "OK" if check.ok else "REGRESSED"
        if not check.ok:
            failures += 1
        print(
            f"{name:<{name_width}}{check.label:<{label_width}}"
            f"{check.bound_text:<18}{observed:<14}{status}"
        )
    for warning in warnings:
        print(f"note: {warning}")
    if failures:
        print(f"\n{failures} floor(s) regressed.")
        return 1
    print(f"\nall floors hold across {len(documents)} benchmark document(s).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
