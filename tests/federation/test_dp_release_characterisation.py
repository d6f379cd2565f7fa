"""Characterisation of the DP release path: one mixed batch per topology.

Every observable of the expand -> exact backend -> assemble flow is pinned as
a literal, under the *randomised* default ``RunConfig`` (the exact configs the
flat == sharded identity suites use cannot see a reordered sub-batch: a
shard's seed draws follow sub-batch order, and only a randomised protocol
turns a different draw into a different answer).  The sharded half also pins
the exact ``(shard, texts)`` sub-batches dispatched, through a recording
``LocalShard``: each involved shard gets one sub-batch per batch, its routed
and fan-out statements in statement order with DP inner statements in place.

The batches mix DP x plain, routed x fan-out, AVG (two inner statements), a
repeat, a zero-noise ``DpError``, an over-budget fresh release, a malformed
statement and — sharded — a tenant rate limit and tenant DP-budget refusals at
admission and at settlement.  The gate's budget makes every issuer
DP-governed, so each plain statement settles as ``DpRequired``.  A second
batch runs after a table mutation, so optimistic reuse admissions settle as
fresh charges where an inner answer changed, refusals, and free re-serves
where none did (cached or re-executed).  Regenerate the literals (after an *intentional* change only) with
``PYTHONPATH=src python tests/federation/test_dp_release_characterisation.py``.
"""

from __future__ import annotations

import pprint

import pytest

from repro.core.driver import RunConfig
from repro.federation.coordinator import QueryRefused
from repro.observability.trace import TraceRecorder
from repro.privacy.dp import DpPolicy
from repro.sharding import ShardedFederation, ShardRouter, TenantPolicy, build_topology
from repro.sharding.shards import LocalShard
from repro.sharding.topology import local_shards, single_federation

SEED = 23
DP = DpPolicy(epsilon_budget=12.0, delta_budget=1e-5, seed=5)
R0, R1, PART = "t00", "t02", "part00"  # routed to shard 0, shard 1, partitioned

BATCH_ONE = [
    f"SELECT MAX(value) FROM {R0} WITH SLO(dp_epsilon=2.0)",
    f"SELECT TOP 3 value FROM {R0}",
    f"SELECT SUM(value) FROM {PART}",
    f"SELECT TOP 2 value FROM {PART} WITH SLO(dp_epsilon=1.0, dp_delta=1e-06)",
    f"SELECT AVG(value) FROM {R1} WITH SLO(dp_epsilon=1.5)",
    f"SELECT MIN(value) FROM {PART}",  # plain fan-out *after* a DP fan-out
    f"SELECT AVG(value) FROM {PART} WITH SLO(dp_epsilon=1.0)",
    f"SELECT MAX(value) FROM {R0} WITH SLO(dp_epsilon=2.0)",  # repeat
    f"SELECT COUNT(value) FROM {R1} WITH SLO(dp_epsilon=800.0)",  # zero noise
    f"SELECT TOP 1 value FROM {R1} WITH SLO(dp_epsilon=50.0)",  # over budget
    f"SELECT MIN(value) FROM {R1} WITH SLO(dp_epsilon=3.0)",  # over tenant budget
    f"SELECT BOTTOM 2 value FROM {R1} WITH SLO(dp_epsilon=0.25)",
    f"SELECT BOTTOM 2 value FROM {R1}",  # plain under a budget: DpRequired
    f"SELECT COUNT(value) FROM {R0} WITH SLO(dp_epsilon=0.5)",
    "SELECT FROM nowhere",
    # sharded: the tenant's bucket is empty
    f"SELECT MAX(value) FROM {R1} WITH SLO(dp_epsilon=0.25)",
]
#: The exact inner answer a plain query would re-cache: refused, DpRequired.
RECACHE = f"SELECT COUNT(value) FROM {R0}"
BATCH_TWO = [
    # R0 mutated: its COUNT re-executes over the new data, a fresh charge.
    f"SELECT COUNT(value) FROM {R0} WITH SLO(dp_epsilon=0.5)",
    # R0's MAX re-executes over a new maximum: a fresh release, which the
    # sharded tenant cannot pay for.
    f"SELECT MAX(value) FROM {R0} WITH SLO(dp_epsilon=2.0)",
    # R1's data is untouched (flat re-executes it): the same release, free.
    f"SELECT AVG(value) FROM {R1} WITH SLO(dp_epsilon=1.5)",
]


def _topology():
    topology = build_topology(
        shards=2, parties_per_shard=3, tables=3, rows_per_table=12,
        partitioned=1, seed=SEED,
    )
    router = ShardRouter(2, partitioned=topology.partitioned)
    assert (router.route(R0), router.route(R1)) == (0, 1)
    return topology, router


def _settled(results):
    return [
        (type(r.error).__name__, str(r.error))
        if isinstance(r, QueryRefused)
        else (r.statement, r.values, r.protocol, r.rounds, r.messages, r.cached)
        for r in results
    ]


def _traces(tracer):
    """What the gateway hands a batch besides its texts: a batch span per
    statement (each federation plans every statement itself)."""
    traces = []
    for text in BATCH_ONE:
        trace = tracer.new_trace(name=text)
        traces.append(tracer.open_span(trace, "batch", at=0.0))
    return traces


def _span_counts(tracer):
    """Per statement: how many spans of each name its trace collected."""
    counts = []
    for trace_id in tracer.trace_ids:
        names = [span.name for span in tracer.spans if span.trace_id == trace_id]
        counts.append(
            " ".join(f"{name}:{names.count(name)}" for name in sorted(set(names)))
        )
    return counts


def _try_cached(federation):
    return [
        hit if hit is None else (hit.values, hit.protocol, hit.cached)
        for hit in (federation.try_cached(text, issuer="acme") for text in BATCH_TWO)
    ]


def _mutate(federation):
    """Insert R0's new maximum at its first party (flat and shard 0 agree)."""
    federation._parties["org00x00"].insert(R0, {"value": 9999})


class _RecordingShard(LocalShard):
    def __init__(self, federation, *, index, log):
        super().__init__(federation, index=index)
        self.log = log

    def execute_many_settled(self, statements, *, traces=None, plans=None, **kwargs):
        # Which statements travel with the caller's trace / the sharded
        # federation's plan.
        carried = [
            "".join(
                flag
                for flag, given in (("t", traces), ("p", plans))
                if given is not None and given[i] is not None
            )
            for i in range(len(statements))
        ]
        self.log.append((self.index, list(statements), carried))
        return super().execute_many_settled(
            statements, traces=traces, plans=plans, **kwargs
        )


def observe_sharded():
    topology, router = _topology()
    dispatched = []
    shards = [
        _RecordingShard(shard.federation, index=shard.index, log=dispatched)
        for shard in local_shards(topology, config=RunConfig())
    ]
    now = [0.0]
    sharded = ShardedFederation(
        shards, router=router, clock=lambda: now[0], dp=DP, domain=topology.domain
    )
    sharded.set_tenant(
        "acme",
        TenantPolicy(
            rate=1.0, burst=len(BATCH_ONE) - 6, lop_budget=40.0,
            dp_epsilon_budget=7.0,
        ),
    )
    tracer = TraceRecorder()
    seen = {
        "batch_one": _settled(
            sharded.execute_many_settled(
                BATCH_ONE, issuer="acme", traces=_traces(tracer)
            )
        )
    }
    seen["spans"] = _span_counts(tracer)
    seen["try_cached_before"] = _try_cached(sharded)
    _mutate(shards[0].federation)
    now[0] = 100.0  # refill the tenant's bucket
    sharded.execute_many_settled([RECACHE], issuer="acme")
    seen["try_cached"] = _try_cached(sharded)
    seen["batch_two"] = _settled(sharded.execute_many_settled(BATCH_TWO, issuer="acme"))
    seen["ledger"] = sharded.dp_gate.accountant.ledger_lines()
    seen["gate"] = sharded.dp_gate.snapshot()
    seen["tenants"] = sharded.router.tenant_snapshot()
    snapshot = sharded.shard_snapshot()
    seen["dp_epsilon_by_shard"] = snapshot["dp_epsilon_by_shard"]
    seen["fanout_statements"] = snapshot["fanout_statements"]
    seen["dispatched"] = dispatched
    return seen


def observe_flat():
    topology, _router = _topology()
    flat = single_federation(topology, config=RunConfig(), dp=DP)
    tracer = TraceRecorder()
    seen = {
        "batch_one": _settled(
            flat.execute_many_settled(BATCH_ONE, issuer="acme", traces=_traces(tracer))
        )
    }
    seen["spans"] = _span_counts(tracer)
    seen["try_cached_before"] = _try_cached(flat)
    _mutate(flat)
    flat.execute_many_settled([RECACHE], issuer="acme")
    seen["try_cached"] = _try_cached(flat)
    seen["batch_two"] = _settled(flat.execute_many_settled(BATCH_TWO, issuer="acme"))
    seen["ledger"] = flat.dp_gate.accountant.ledger_lines()
    seen["gate"] = flat.dp_gate.snapshot()
    seen["cache"] = (flat.cache.hits, flat.cache.misses)
    seen["audit"] = [
        (e.statement, e.protocol, e.rounds, e.messages, e.result_public,
         e.average_lop, e.cached)
        for e in flat.audit
    ]
    return seen


EXPECTED_SHARDED: dict = {'batch_one': [('SELECT MAX(value) FROM t00', (5019.0,), 'probabilistic+dp', 8, 27, False),
               ('DpRequired',
                "issuer 'acme' holds a DP budget: 'SELECT TOP 3 value FROM t00' needs WITH "
                'SLO(dp_epsilon=...)'),
               ('DpRequired',
                "issuer 'acme' holds a DP budget: 'SELECT SUM(value) FROM part00' needs "
                'WITH SLO(dp_epsilon=...)'),
               ('SELECT TOP 2 value FROM part00', (10000.0, 1.0), 'probabilistic+dp', 8, 54,
                False),
               ('SELECT AVG(value) FROM t02', (7366.083333333333,), 'secure-sum+dp', 1, 12,
                False),
               ('DpRequired',
                "issuer 'acme' holds a DP budget: 'SELECT MIN(value) FROM part00' needs "
                'WITH SLO(dp_epsilon=...)'),
               ('SELECT AVG(value) FROM part00', (4637.416666666667,), 'secure-sum+dp', 1,
                24, False),
               ('SELECT MAX(value) FROM t00', (5019.0,), 'probabilistic+dp', 0, 0, True),
               ('DpError',
                'zero-noise refusal: exp(-800/1) underflows; the geometric mechanism would '
                'release the exact value'),
               ('BudgetExhausted',
                'epsilon budget exhausted: spent 5.5 of 12, release needs 50'),
               ('BudgetExhausted',
                "tenant 'acme' epsilon budget exhausted: spent 5.5 of 7, release needs 3"),
               ('SELECT BOTTOM 2 value FROM t02', (1.0, 10000.0), 'probabilistic+dp', 8, 27,
                False),
               ('DpRequired',
                "issuer 'acme' holds a DP budget: 'SELECT BOTTOM 2 value FROM t02' needs "
                'WITH SLO(dp_epsilon=...)'),
               ('SELECT COUNT(value) FROM t00', (12.0,), 'secure-sum+dp', 1, 6, False),
               ('SqlError',
                "unsupported statement: 'SELECT FROM nowhere'; the dialect supports SELECT "
                'TOP/BOTTOM <k> <attr> FROM <table> and SELECT '
                'MAX|MIN|SUM|COUNT|AVG(<attr>) FROM <table>'),
               ('TenantRateLimited',
                "tenant 'acme' exceeded 1.0/s (burst 10) across shards")],
 'spans': ['batch:1 broadcast:1 hop:27 local_extract:1 protocol:1 round:8 shard-route:1',
           'batch:1', 'batch:1', 'batch:1 shard-route:1', 'batch:1 shard-route:1',
           'batch:1', 'batch:1 shard-route:1', 'batch:1 shard-route:1',
           'batch:1 shard-route:1', 'batch:1 shard-route:1', 'batch:1 shard-route:1',
           'batch:1 broadcast:1 hop:27 local_extract:1 protocol:1 round:8 shard-route:1',
           'batch:1', 'batch:1 shard-route:1', 'batch:1', 'batch:1'],
 'try_cached_before': [((12.0,), 'secure-sum+dp', True),
                       ((5019.0,), 'probabilistic+dp', True),
                       ((7366.083333333333,), 'secure-sum+dp', True)],
 'try_cached': [None, None, ((7366.083333333333,), 'secure-sum+dp', True)],
 'batch_two': [('SELECT COUNT(value) FROM t00', (10.0,), 'secure-sum+dp', 1, 6, False),
               ('BudgetExhausted',
                "tenant 'acme' epsilon budget exhausted: spent 6.75 of 7, release needs 2"),
               ('SELECT AVG(value) FROM t02', (7366.083333333333,), 'secure-sum+dp', 0, 0,
                True)],
 'ledger': ['MAX k=1 t00.value dp_epsilon=2 dp_delta=0 eps=2 delta=0',
            'TOP k=2 part00.value dp_epsilon=1 dp_delta=1e-06 eps=1 delta=1e-06',
            'AVG k=1 t02.value dp_epsilon=1.5 dp_delta=0 eps=1.5 delta=0',
            'AVG k=1 part00.value dp_epsilon=1 dp_delta=0 eps=1 delta=0',
            'BOTTOM k=2 t02.value dp_epsilon=0.25 dp_delta=0 eps=0.25 delta=0',
            'COUNT k=1 t00.value dp_epsilon=0.5 dp_delta=0 eps=0.5 delta=0',
            'COUNT k=1 t00.value dp_epsilon=0.5 dp_delta=0 eps=0.5 delta=0'],
 'gate': {'epsilon_spent': 6.75,
          'epsilon_budget': 12.0,
          'delta_spent': 1e-06,
          'delta_budget': 1e-05,
          'releases': 7,
          'free_serves': 6,
          'refusals': 1,
          'release_keys': 6},
 'tenants': {'acme': {'queries': 14,
                      'refusals': 10,
                      'lop_spent': 0.5,
                      'lop_budget': 40.0,
                      'dp_epsilon_spent': 6.75,
                      'dp_epsilon_budget': 7.0,
                      'dp_delta_spent': 1e-06,
                      'dp_delta_budget': None}},
 'dp_epsilon_by_shard': {'0': 3.0, '1': 1.75, 'all': 2.0},
 'fanout_statements': 2,
 'dispatched': [(0,
                 ['SELECT MAX(value) FROM t00', 'SELECT TOP 2 value FROM part00',
                  'SELECT SUM(value) FROM part00', 'SELECT COUNT(value) FROM part00',
                  'SELECT MAX(value) FROM t00', 'SELECT COUNT(value) FROM t00'],
                 ['tp', 'p', '', '', 'tp', 'tp']),
                (1,
                 ['SELECT TOP 2 value FROM part00', 'SELECT SUM(value) FROM t02',
                  'SELECT COUNT(value) FROM t02', 'SELECT SUM(value) FROM part00',
                  'SELECT COUNT(value) FROM part00', 'SELECT BOTTOM 2 value FROM t02'],
                 ['p', 't', '', '', '', 'tp']),
                (0, ['SELECT COUNT(value) FROM t00', 'SELECT MAX(value) FROM t00'],
                 ['p', 'p']),
                (1, ['SELECT SUM(value) FROM t02', 'SELECT COUNT(value) FROM t02'],
                 ['', ''])]}

EXPECTED_FLAT: dict = {'batch_one': [('SELECT MAX(value) FROM t00', (5019.0,), 'probabilistic+dp', 8, 54, False),
               ('DpRequired',
                "issuer 'acme' holds a DP budget: 'SELECT TOP 3 value FROM t00' needs WITH "
                'SLO(dp_epsilon=...)'),
               ('DpRequired',
                "issuer 'acme' holds a DP budget: 'SELECT SUM(value) FROM part00' needs "
                'WITH SLO(dp_epsilon=...)'),
               ('SELECT TOP 2 value FROM part00', (10000.0, 1.0), 'probabilistic+dp', 8, 54,
                False),
               ('SELECT AVG(value) FROM t02', (7366.083333333333,), 'secure-sum+dp', 1, 24,
                False),
               ('DpRequired',
                "issuer 'acme' holds a DP budget: 'SELECT MIN(value) FROM part00' needs "
                'WITH SLO(dp_epsilon=...)'),
               ('SELECT AVG(value) FROM part00', (4637.416666666667,), 'secure-sum+dp', 1,
                24, False),
               ('SELECT MAX(value) FROM t00', (5019.0,), 'probabilistic+dp', 0, 0, True),
               ('DpError',
                'zero-noise refusal: exp(-800/1) underflows; the geometric mechanism would '
                'release the exact value'),
               ('BudgetExhausted',
                'epsilon budget exhausted: spent 5.5 of 12, release needs 50'),
               ('SELECT MIN(value) FROM t02', (1476.0,), 'probabilistic+dp', 8, 54, False),
               ('SELECT BOTTOM 2 value FROM t02', (1.0, 10000.0), 'probabilistic+dp', 8, 54,
                False),
               ('DpRequired',
                "issuer 'acme' holds a DP budget: 'SELECT BOTTOM 2 value FROM t02' needs "
                'WITH SLO(dp_epsilon=...)'),
               ('SELECT COUNT(value) FROM t00', (12.0,), 'secure-sum+dp', 1, 12, False),
               ('SqlError',
                "unsupported statement: 'SELECT FROM nowhere'; the dialect supports SELECT "
                'TOP/BOTTOM <k> <attr> FROM <table> and SELECT '
                'MAX|MIN|SUM|COUNT|AVG(<attr>) FROM <table>'),
               ('SELECT MAX(value) FROM t02', (8895.0,), 'probabilistic+dp', 8, 54, False)],
 'spans': ['batch:1 broadcast:1 hop:54 local_extract:1 protocol:1 round:8', 'batch:1',
           'batch:1', 'batch:1 broadcast:1 hop:54 local_extract:1 protocol:1 round:8',
           'batch:1', 'batch:1', 'batch:1', 'batch:1', 'batch:1', 'batch:1',
           'batch:1 broadcast:1 hop:54 local_extract:1 protocol:1 round:8',
           'batch:1 broadcast:1 hop:54 local_extract:1 protocol:1 round:8', 'batch:1',
           'batch:1', 'batch:1',
           'batch:1 broadcast:1 hop:54 local_extract:1 protocol:1 round:8'],
 'try_cached_before': [((12.0,), 'secure-sum+dp', True),
                       ((5019.0,), 'probabilistic+dp', True),
                       ((7366.083333333333,), 'secure-sum+dp', True)],
 'try_cached': [None, None, None],
 'batch_two': [('SELECT COUNT(value) FROM t00', (10.0,), 'secure-sum+dp', 1, 12, False),
               ('SELECT MAX(value) FROM t00', (7969.0,), 'probabilistic+dp', 8, 54, False),
               ('SELECT AVG(value) FROM t02', (7366.083333333333,), 'secure-sum+dp', 1, 24,
                True)],
 'ledger': ['MAX k=1 t00.value dp_epsilon=2 dp_delta=0 eps=2 delta=0',
            'TOP k=2 part00.value dp_epsilon=1 dp_delta=1e-06 eps=1 delta=1e-06',
            'AVG k=1 t02.value dp_epsilon=1.5 dp_delta=0 eps=1.5 delta=0',
            'AVG k=1 part00.value dp_epsilon=1 dp_delta=0 eps=1 delta=0',
            'MIN k=1 t02.value dp_epsilon=3 dp_delta=0 eps=3 delta=0',
            'BOTTOM k=2 t02.value dp_epsilon=0.25 dp_delta=0 eps=0.25 delta=0',
            'COUNT k=1 t00.value dp_epsilon=0.5 dp_delta=0 eps=0.5 delta=0',
            'MAX k=1 t02.value dp_epsilon=0.25 dp_delta=0 eps=0.25 delta=0',
            'COUNT k=1 t00.value dp_epsilon=0.5 dp_delta=0 eps=0.5 delta=0',
            'MAX k=1 t00.value dp_epsilon=2 dp_delta=0 eps=2 delta=0'],
 'gate': {'epsilon_spent': 12.0,
          'epsilon_budget': 12.0,
          'delta_spent': 1e-06,
          'delta_budget': 1e-05,
          'releases': 10,
          'free_serves': 5,
          'refusals': 1,
          'release_keys': 8},
 'cache': (5, 14),
 'audit': [('SELECT MAX(value) FROM t00', 'probabilistic', 8, 54, (9700.0,), 0.0, False),
           ('SELECT TOP 2 value FROM part00', 'probabilistic', 8, 54, (9677.0, 9388.0),
            0.08333333333333333, False),
           ('SELECT SUM(value) FROM t02', 'secure-sum', 1, 12, (63455.0,), None, False),
           ('SELECT COUNT(value) FROM t02', 'secure-sum', 1, 12, (12.0,), None, False),
           ('SELECT SUM(value) FROM part00', 'secure-sum', 1, 12, (64746.0,), None, False),
           ('SELECT COUNT(value) FROM part00', 'secure-sum', 1, 12, (12.0,), None, False),
           ('SELECT MAX(value) FROM t00', 'probabilistic', 0, 0, (9700.0,), None, True),
           ('SELECT MIN(value) FROM t02', 'probabilistic', 8, 54, (579.0,), 0.0, False),
           ('SELECT BOTTOM 2 value FROM t02', 'probabilistic', 8, 54, (579.0, 943.0), 0.0,
            False),
           ('SELECT COUNT(value) FROM t00', 'secure-sum', 1, 12, (12.0,), None, False),
           ('SELECT MAX(value) FROM t02', 'probabilistic', 8, 54, (9653.0,), 0.0, False),
           ('SELECT COUNT(value) FROM t00', 'secure-sum+dp', 0, 0, (12.0,), None, True),
           ('SELECT MAX(value) FROM t00', 'probabilistic+dp', 0, 0, (5019.0,), None, True),
           ('SELECT AVG(value) FROM t02', 'secure-sum+dp', 0, 0, (7366.083333333333,), None,
            True),
           ('SELECT COUNT(value) FROM t00', 'secure-sum', 1, 12, (13.0,), None, False),
           ('SELECT MAX(value) FROM t00', 'probabilistic', 8, 54, (9999.0,), 0.0, False),
           ('SELECT SUM(value) FROM t02', 'secure-sum', 1, 12, (63455.0,), None, False),
           ('SELECT COUNT(value) FROM t02', 'secure-sum', 1, 12, (12.0,), None, False)]}


@pytest.mark.parametrize(
    "observe, expected",
    [(observe_sharded, EXPECTED_SHARDED), (observe_flat, EXPECTED_FLAT)],
    ids=["sharded", "flat"],
)
def test_release_path_is_pinned(observe, expected):
    seen = observe()
    assert sorted(seen) == sorted(expected)
    for key in expected:
        assert seen[key] == expected[key], key


if __name__ == "__main__":
    for name, observe in (("SHARDED", observe_sharded), ("FLAT", observe_flat)):
        print(f"EXPECTED_{name}: dict = ", end="")
        pprint.pprint(observe(), width=92, compact=True, sort_dicts=False)
        print()
