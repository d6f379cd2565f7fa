"""The six workloads: seeded inputs, the program under test, and the oracle.

Each ``build_*`` function makes one workload instance from a seed and an
operation count: the program (a federation behind the public builders of
``repro.sharding`` / ``repro.database``), the statement stream, and an
:class:`Oracle` holding the brute-force expected answer for every
``(table, column, operation, k)`` computed from the *generated rows* —
never from the program's own answers.  The program receives only generated
statements and rows; the seed never reaches it except as the documented
``seed=`` arguments of its own builders.

Sizes are scratch-probe numbers from the 2-core reference box.  ``ops`` is
``RATE[workload] * --seconds``: fixed work per run, so parent and change
see the same statements for the same seed and a faster program simply
finishes sooner.  Scale op counts, not shapes.
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import re
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.driver import RunConfig
from repro.database.tpch import (
    TPCH_PRICE_DOMAIN,
    TPCH_TABLE,
    lineitem_arrays,
    lineitem_databases,
)
from repro.federation import Federation
from repro.privacy.dp import DpPolicy
from repro.sharding import (
    build_topology,
    exact_config,
    sharded_federation,
    single_federation,
    topology_workload,
)

#: Timed operations per ``--seconds`` second (sizing guide, not a target).
RATE = {
    "hot_repeat": 9_000,
    "cold_ring": 80,
    "scan_write": 42,
    "sharded_proc": 1_000,
    "slo_dp": 700,
}
#: Untimed warm-up: this share of the stream, run first on the same instance.
WARMUP_SHARE = 0.10

#: Gateway settings shared by every gateway workload (the load shape).
SERVICE_KWARGS = {"max_queue": 512, "max_batch": 32, "batch_window": 0.0}

# -- the oracle -----------------------------------------------------------------

_STATEMENT_RE = re.compile(
    r"^SELECT (?:(TOP|BOTTOM) (\d+) (\w+)|(MAX|MIN|SUM|COUNT|AVG)\((\w+)\)) "
    r"FROM (\w+)(?: WITH SLO\((.*)\))?$"
)
_KEEP = 16  # every workload asks k <= 10


@dataclass(frozen=True)
class Parsed:
    """The oracle's own reading of one generated statement."""

    op: str
    k: int
    column: str
    table: str
    slo: dict

    @property
    def ranking(self) -> bool:
        return self.op in ("TOP", "BOTTOM", "MAX", "MIN")

    @property
    def dp_key(self) -> "tuple | None":
        if "dp_epsilon" not in self.slo:
            return None
        return (self.op, self.k, self.column, self.table,
                float(self.slo["dp_epsilon"]), float(self.slo.get("dp_delta", 0.0)))


def parse_statement(text: str) -> Parsed:
    match = _STATEMENT_RE.match(text)
    if match is None:
        raise ValueError(f"bench generated a statement it cannot read: {text!r}")
    rank_op, k, rank_col, agg_op, agg_col, table, clauses = match.groups()
    slo = {}
    if clauses:
        for clause in clauses.split(","):
            key, value = clause.split("=")
            slo[key.strip()] = value.strip()
    if rank_op:
        return Parsed(rank_op, int(k), rank_col, table, slo)
    return Parsed(agg_op, 1, agg_col, table, slo)


class Truth:
    """Brute-force state of one column: extreme values, sum and count.

    Built from generated values; :meth:`merge` folds in another party's
    values and :meth:`add` one inserted row, so the expected answer is
    recomputed after every ``scan_write`` insert.
    """

    def __init__(self, values) -> None:
        values = np.asarray(values, dtype=float)
        keep = min(_KEEP, values.size)
        self.bottom = np.sort(np.partition(values, keep - 1)[:keep]).tolist()
        self.top = np.sort(np.partition(values, -keep)[-keep:])[::-1].tolist()
        self.total = float(values.sum())
        self.count = int(values.size)

    def add(self, value: float) -> None:
        value = float(value)
        bisect.insort(self.bottom, value)
        del self.bottom[_KEEP:]
        # ``top`` is descending: insert on the negated order.
        negated = [-v for v in self.top]
        bisect.insort(negated, -value)
        self.top = [-v for v in negated[:_KEEP]]
        self.total += value
        self.count += 1

    def merge(self, other: "Truth") -> None:
        """Fold in another party's share of the same column."""
        self.bottom = sorted(self.bottom + other.bottom)[:_KEEP]
        self.top = sorted(self.top + other.top, reverse=True)[:_KEEP]
        self.total += other.total
        self.count += other.count

    def expected(self, op: str, k: int) -> tuple:
        if op in ("TOP", "MAX"):
            return tuple(self.top[:k])
        if op in ("BOTTOM", "MIN"):
            return tuple(self.bottom[:k])
        if op == "SUM":
            return (self.total,)
        if op == "COUNT":
            return (float(self.count),)
        return (self.total / self.count,)  # AVG


@dataclass
class Oracle:
    """Checks every served answer and accounts for every failure.

    ``exact`` says the protocol configuration returns the true top-k
    (``exact_config()``): ranking answers must then equal the brute-force
    answer.  Under the randomized paper defaults a ranking answer is scored
    by the paper's precision instead and only has to be well formed.
    """

    truths: dict  # (table, column) -> Truth
    exact: bool
    domain_low: float
    domain_high: float
    failures_by_type: Counter = field(default_factory=Counter)
    mismatches: list = field(default_factory=list)
    precisions: list = field(default_factory=list)
    #: DP bookkeeping: latest charged release per key, declared epsilon total.
    dp_released: dict = field(default_factory=dict)
    dp_declared_epsilon: float = 0.0
    dp_charged: int = 0
    dp_free: int = 0

    def _mismatch(self, text: str, why: str) -> None:
        self.failures_by_type["OracleMismatch"] += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(f"{text}: {why}")

    def check(self, text: str, outcome) -> None:
        """Score one completed submission (an outcome or a raised exception)."""
        if isinstance(outcome, BaseException):
            self.failures_by_type[type(outcome).__name__] += 1
            return
        parsed = parse_statement(text)
        truth = self.truths[(parsed.table, parsed.column)]
        values = tuple(outcome.values)
        expected = truth.expected(parsed.op, parsed.k)
        if len(values) != len(expected):
            self._mismatch(text, f"{len(values)} values, expected {len(expected)}")
            return
        if parsed.dp_key is not None:
            self._check_dp(text, parsed, outcome, values)
            return
        if not parsed.ranking:
            if parsed.op == "COUNT":
                ok = values == expected
            else:
                ok = math.isclose(values[0], expected[0], rel_tol=1e-9, abs_tol=1e-6)
            if not ok:
                self._mismatch(text, f"got {values}, expected {expected}")
            return
        executed = not outcome.cached  # precision is over executed queries
        if self.exact:
            if executed:
                self.precisions.append(1.0 if values == expected else 0.0)
            if values != expected:
                self._mismatch(text, f"got {values}, expected {expected}")
            return
        descending = parsed.op in ("TOP", "MAX")
        ordered = tuple(sorted(values, reverse=descending))
        if values != ordered or not all(
            self.domain_low <= v <= self.domain_high for v in values
        ):
            self._mismatch(text, f"malformed ranking answer {values}")
            return
        if executed:
            got, want = Counter(values), Counter(expected)
            self.precisions.append(
                sum(min(got[v], want[v]) for v in got) / parsed.k
            )

    def _check_dp(self, text: str, parsed: Parsed, outcome, values: tuple) -> None:
        """DP answers are noisy: check shape, free re-serves, declared spend."""
        if parsed.ranking and not all(
            self.domain_low <= v <= self.domain_high for v in values
        ):
            self._mismatch(text, f"DP release outside the public domain: {values}")
            return
        key = parsed.dp_key
        if outcome.cached:
            self.dp_free += 1
            if self.dp_released.get(key) != values:
                self._mismatch(
                    text,
                    f"free DP re-serve {values} differs from the charged "
                    f"release {self.dp_released.get(key)}",
                )
        else:
            self.dp_charged += 1
            self.dp_declared_epsilon += key[4]
            self.dp_released[key] = values

    def check_dp_spend(self, snapshot: dict) -> None:
        """``privacy.epsilon_spent`` must equal the declared epsilon total."""
        spent = float(snapshot["epsilon_spent"])
        if not math.isclose(spent, self.dp_declared_epsilon, abs_tol=1e-6):
            self._mismatch(
                "dp accountant",
                f"epsilon_spent {spent} != declared {self.dp_declared_epsilon}",
            )
        if int(snapshot["releases"]) != self.dp_charged:
            self._mismatch(
                "dp accountant",
                f"{snapshot['releases']} releases != {self.dp_charged} charged outcomes",
            )

    @property
    def failed(self) -> int:
        return sum(self.failures_by_type.values())

    @property
    def precision(self) -> "float | None":
        if not self.precisions:
            return None
        return sum(self.precisions) / len(self.precisions)


# -- instances --------------------------------------------------------------------


@dataclass
class Instance:
    """One built workload: the program, its inputs and its oracle."""

    target: object  # Federation | ShardedFederation
    statements: list
    clients: int
    oracle: Oracle
    service_kwargs: dict = field(default_factory=lambda: dict(SERVICE_KWARGS))
    #: ``scan_write`` only: (database, table, row, truth column values) to
    #: insert before the query at this stream index.
    writes: dict = field(default_factory=dict)
    #: The flat federations whose audit logs / caches hold per-query facts.
    federations: list = field(default_factory=list)
    #: Wall seconds of each repetition of the program's set-up; ``setup_s``
    #: is the fastest.
    setup_times: list = field(default_factory=list)
    #: The set-up itself, for :func:`setup_again`.
    make: object = None

    @property
    def warmup(self) -> int:
        return int(len(self.statements) * WARMUP_SHARE)

    def worker_pids(self) -> list:
        shards = getattr(self.target, "shards", ())
        return [
            shard.process.pid
            for shard in shards
            if getattr(shard, "process", None) is not None
        ]

    def close(self) -> None:
        _close(self.target)


def _close(target) -> None:
    close = getattr(target, "close", None)
    if close is not None:
        close()


#: One burst of set-up repetitions: at least this many, for at least this long.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0


def timed_setup(make, full: bool):
    """Build the program repeatedly; keep the last build, time each.

    ``make`` returns the federation (first, if a tuple).  Earlier builds are
    closed and dropped before the next starts, so process shards are reaped
    and peak memory is one build's.  ``full=False`` (traced and smoke runs,
    which do not report ``setup_s``) builds once.
    """
    built, times = None, []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        built = make()
        ended = time.perf_counter()
        times.append(ended - began)
        if not full or (
            len(times) >= SETUP_MIN_REPEATS and ended - started >= SETUP_MIN_SECONDS
        ):
            break
        _close_built(built)
        built = None
        gc.collect()
    return built, times


def setup_again(instance: Instance) -> None:
    """A second burst of set-ups, after the instance served and was closed.

    The reference box runs at one of three speeds (1 : 1.4 : 1.7) and changes
    every few seconds to minutes; ``setup_s`` is the fastest repetition, and
    two bursts a run's length apart see the fast speed more often than one
    (see the README, *Steadiness*).
    """
    built, times = timed_setup(instance.make, True)
    _close_built(built)
    instance.setup_times.extend(times)


def _close_built(built) -> None:
    _close(built[0] if isinstance(built, tuple) else built)


def _topology_truths(topology) -> dict:
    return {
        (table, topology.attribute): Truth(topology.table_values(table))
        for table in topology.tables
    }


def _stream_length(name: str, seconds: float, scale: float) -> int:
    timed = max(40, int(RATE[name] * seconds * scale))
    return int(timed / (1.0 - WARMUP_SHARE))


def build_hot_repeat(seed: int, seconds: float, scale: float = 1.0,
                     full_setup: bool = False) -> Instance:
    topology = build_topology(
        shards=4, parties_per_shard=3, tables=8, rows_per_table=40,
        partitioned=1, seed=seed,
    )
    def make():
        return single_federation(topology)

    federation, setup_times = timed_setup(make, full_setup)
    return Instance(
        target=federation,
        statements=topology_workload(
            topology, _stream_length("hot_repeat", seconds, scale),
            seed=seed, repeat_fraction=0.9,
        ),
        clients=8,
        oracle=Oracle(_topology_truths(topology), True,
                      topology.domain.low, topology.domain.high),
        federations=[federation],
        setup_times=setup_times,
        make=make,
    )


def build_cold_ring(seed: int, seconds: float, scale: float = 1.0,
                    full_setup: bool = False) -> Instance:
    topology = build_topology(
        shards=1, parties_per_shard=24, tables=32, rows_per_table=48,
        partitioned=0, seed=seed,
    )
    def make():
        return single_federation(topology, config=RunConfig(), cache_entries=64)

    federation, setup_times = timed_setup(make, full_setup)
    rng = random.Random(seed)
    forms = [
        template.format(k=k, attr=topology.attribute, table=table)
        for table in topology.tables
        for template, ks in (
            ("SELECT TOP {k} {attr} FROM {table}", range(1, 6)),
            ("SELECT BOTTOM {k} {attr} FROM {table}", range(1, 6)),
            ("SELECT MAX({attr}) FROM {table}", (1,)),
            ("SELECT MIN({attr}) FROM {table}", (1,)),
        )
        for k in ks
    ]  # 32 x 12 = 384 forms, six times the 64-entry cache
    count = _stream_length("cold_ring", seconds, scale)
    return Instance(
        target=federation,
        statements=[rng.choice(forms) for _ in range(count)],
        clients=32,
        oracle=Oracle(_topology_truths(topology), False,
                      topology.domain.low, topology.domain.high),
        federations=[federation],
        setup_times=setup_times,
        make=make,
    )


_SCAN_PARTIES = 4
_SCAN_ROWS = 1_000_000
_SCAN_OWNER_PREFIX = "party"
#: The columns ``scan_write`` statements read (and its inserts move).
SCAN_COLUMNS = ("l_extendedprice", "l_quantity")


def build_scan_write(seed: int, seconds: float, scale: float = 1.0,
                     full_setup: bool = False) -> Instance:
    # Shapes are fixed and op counts scale; the smoke run alone (a functional
    # check, not a measurement) also shrinks the tables, to stay in seconds.
    rows = _SCAN_ROWS if scale >= 0.1 else _SCAN_ROWS // 50

    # The oracle regenerates the rows with the program's public, deterministic
    # generator rather than reading them back out of the program's tables:
    # one party at a time, and before the program is built, so the bench's
    # scratch memory never adds to the program's ``peak_rss_mb``.
    truths = {}
    for party in range(_SCAN_PARTIES):
        generated = lineitem_arrays(rows, seed=seed, party=f"{_SCAN_OWNER_PREFIX}{party}")
        for column in SCAN_COLUMNS:
            part = Truth(generated[column])
            whole = truths.setdefault((TPCH_TABLE, column), part)
            if whole is not part:
                whole.merge(part)
        del generated

    def make():
        databases = lineitem_databases(
            _SCAN_PARTIES, seed=seed, rows_per_party=rows,
            owner_prefix=_SCAN_OWNER_PREFIX)
        federation = Federation(
            domain=TPCH_PRICE_DOMAIN, config=exact_config(), seed=seed
        )
        for database in databases:
            federation.register(database)
        return federation, databases

    (federation, databases), setup_times = timed_setup(make, full_setup)
    rng = random.Random(seed)
    forms = (
        [f"SELECT TOP {k} l_extendedprice FROM {TPCH_TABLE}" for k in range(1, 11)]
        + [f"SELECT BOTTOM {k} l_extendedprice FROM {TPCH_TABLE}" for k in range(1, 11)]
        + [f"SELECT MAX(l_quantity) FROM {TPCH_TABLE}"] * 4
        + [f"SELECT {op}(l_extendedprice) FROM {TPCH_TABLE}" for op in ("SUM", "AVG")] * 2
        + [f"SELECT COUNT(l_quantity) FROM {TPCH_TABLE}"] * 2
    )
    count = _stream_length("scan_write", seconds, scale)
    statements = [rng.choice(forms) for _ in range(count)]
    writes = {}
    for index in range(0, count, 3):
        quantity = rng.randint(1, 50)
        price = round(quantity * rng.uniform(900.0, 2100.0), 2)
        row = {
            "l_orderkey": rng.randint(1, 24_000_000),
            "l_partkey": rng.randint(1, 200_000),
            "l_quantity": quantity,
            "l_extendedprice": price,
            "l_discount": round(rng.uniform(0.0, 0.10), 2),
            "l_tax": round(rng.uniform(0.0, 0.08), 2),
        }
        writes[index] = (databases[(index // 3) % _SCAN_PARTIES], TPCH_TABLE, row)
    return Instance(
        target=federation,
        statements=statements,
        clients=1,
        oracle=Oracle(truths, True, TPCH_PRICE_DOMAIN.low, TPCH_PRICE_DOMAIN.high),
        writes=writes,
        federations=[federation],
        setup_times=setup_times,
        make=make,
    )


def _proc_topology(seed: int):
    return build_topology(
        shards=2, parties_per_shard=4, tables=24, rows_per_table=400,
        partitioned=4, seed=seed,
    )


def build_sharded_proc(seed: int, seconds: float, scale: float = 1.0,
                       full_setup: bool = False, processes: bool = True) -> Instance:
    """``processes=False`` builds the in-process LocalShard twin."""
    topology = _proc_topology(seed)
    def make():
        return sharded_federation(topology, processes=processes)

    federation, setup_times = timed_setup(make, full_setup)
    return Instance(
        target=federation,
        statements=topology_workload(
            topology, _stream_length("sharded_proc", seconds, scale),
            seed=seed, repeat_fraction=0.3, max_k=8,
        ),
        clients=16,
        oracle=Oracle(_topology_truths(topology), True,
                      topology.domain.low, topology.domain.high),
        federations=(
            [] if processes else [shard.federation for shard in federation.shards]
        ),
        setup_times=setup_times,
        make=make,
    )


#: Feasible by construction on a 4-party shard (probed against the planner):
#: a refusal on ``slo_dp`` is a failure, never an expected outcome.
_RANKING_SLOS = (
    "precision=0.999",
    "max_lop=0.5",
    "deadline=5.0, max_lop=0.5",
    "max_rounds=12",
    "epsilon=0.001, max_lop=0.5",
    "dp_epsilon=0.5",
    "dp_epsilon=1.0, dp_delta=1e-06",
)
_ADDITIVE_SLOS = (
    "deadline=1.0",
    "max_lop=0.5",
    "dp_epsilon=0.5",
    "dp_epsilon=1.0, dp_delta=1e-06",
)


def build_slo_dp(seed: int, seconds: float, scale: float = 1.0,
                 full_setup: bool = False) -> Instance:
    topology = build_topology(
        shards=2, parties_per_shard=4, tables=48, rows_per_table=200,
        partitioned=2, seed=seed,
    )
    def make():
        return sharded_federation(topology, config=RunConfig(), dp=DpPolicy(seed=seed))

    federation, setup_times = timed_setup(make, full_setup)
    rng = random.Random(seed)
    attr = topology.attribute
    count = _stream_length("slo_dp", seconds, scale)
    statements: list = []
    for _ in range(count):
        if statements and rng.random() < 0.3:
            statements.append(rng.choice(statements))
            continue
        table = rng.choice(topology.tables)
        if rng.random() < 0.6:
            op = rng.choice(("TOP", "BOTTOM", "MAX", "MIN"))
            body = (
                f"SELECT {op} {rng.randint(1, 5)} {attr} FROM {table}"
                if op in ("TOP", "BOTTOM")
                else f"SELECT {op}({attr}) FROM {table}"
            )
            slo = rng.choice(_RANKING_SLOS)
        else:
            body = f"SELECT {rng.choice(('SUM', 'COUNT', 'AVG'))}({attr}) FROM {table}"
            slo = rng.choice(_ADDITIVE_SLOS)
        statements.append(f"{body} WITH SLO({slo})")
    return Instance(
        target=federation,
        statements=statements,
        clients=32,
        oracle=Oracle(_topology_truths(topology), False,
                      topology.domain.low, topology.domain.high),
        # Every statement is planned at admission.
        service_kwargs={**SERVICE_KWARGS, "cost_budget_seconds": 1e9},
        federations=[shard.federation for shard in federation.shards],
        setup_times=setup_times,
        make=make,
    )


BUILDERS = {
    "hot_repeat": build_hot_repeat,
    "cold_ring": build_cold_ring,
    "scan_write": build_scan_write,
    "sharded_proc": build_sharded_proc,
    "slo_dp": build_slo_dp,
}

# -- paper_figures ----------------------------------------------------------------

#: (experiment id, trials at full scale, compared byte-for-byte with results/).
FIGURES = (
    ("fig6", 100, True),
    ("fig7", 100, True),
    ("fig9", 100, True),
    ("fig10", 100, True),
    ("fig11", 100, True),
    ("fig12", 100, True),
    ("fig8", 10, False),  # shape check only: LoP non-increasing in n
)
#: The goldens were generated at seed 0, so ``--seed`` cannot vary here.
FIGURE_SEED = 0
