"""Deterministic sharded-deployment builders for tests and benchmarks.

A :class:`ShardTopology` fixes everything about a sharded deployment —
which tables exist, which rows each party of each shard holds, which
tables are row-partitioned across every shard — from one seed, so the same
topology can be materialized three interchangeable ways:

* :func:`single_federation` — one federation over *all* parties holding
  *all* the rows (the bit-identity oracle the property tests compare
  against);
* :func:`local_shards` — one in-process federation per shard;
* :func:`process_shards` — one worker process per shard, forked from this
  one around the shard :func:`local_shards` built here, speaking the wire
  protocol.

Row values are drawn as domain integers and kept as the ``int`` objects
the parties' INTEGER columns store, so a build hands each table its rows
as they are.  Every protocol arithmetic in the exactness argument
(docs/SHARDING.md) stays bit-exact: integer-valued doubles survive the
secure-sum mask round trip and ranking comparisons unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.driver import RunConfig
from ..core.params import ProtocolParams
from ..core.schedule import ExponentialSchedule
from ..database.database import PrivateDatabase
from ..database.query import PAPER_DOMAIN, Domain
from ..database.schema import Schema
from ..federation.coordinator import Federation
from .errors import ShardError
from .federation import ShardedFederation
from .router import ShardRouter, shard_index
from .shards import LocalShard, ProcessShard


@dataclass(frozen=True)
class ShardTopology:
    """A fully-determined sharded data layout.

    ``assignments[shard][owner][table]`` is the list of ``int`` row values
    that party (``owner``, living on ``shard``) holds for ``table``.  Every
    shard's parties share one table namespace: each party materializes
    every table its shard serves (empty where it holds no rows), so the
    federation-wide schema precondition holds per shard by construction.
    """

    shard_count: int
    parties_per_shard: int
    attribute: str
    domain: Domain
    tables: tuple[str, ...]
    partitioned: tuple[str, ...]
    assignments: tuple[dict[str, dict[str, list[int]]], ...]
    seed: int
    _shard_tables: tuple[tuple[str, ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Placed once: the topology is frozen, and placing a table hashes
        # its name (SHA-256).
        owned: list[list[str]] = [[] for _ in range(self.shard_count)]
        for table in self.tables:
            if table not in self.partitioned:
                owned[shard_index(table, self.shard_count)].append(table)
        object.__setattr__(self, "_shard_tables", tuple(
            tuple(sorted(names + list(self.partitioned))) for names in owned
        ))

    def shard_tables(self, shard: int) -> tuple[str, ...]:
        """Every table shard ``shard`` serves (owned + partitioned), sorted."""
        if not 0 <= shard < self.shard_count:
            raise ShardError(
                f"no shard {shard} in a {self.shard_count}-shard topology"
            )
        return self._shard_tables[shard]

    def table_values(self, table: str) -> list[int]:
        """The table's full row set (union over all shards and parties)."""
        values: list[int] = []
        for shard in self.assignments:
            for tables in shard.values():
                values.extend(tables.get(table, ()))
        return values


def build_topology(
    *,
    shards: int,
    parties_per_shard: int = 3,
    tables: int = 8,
    rows_per_table: int = 40,
    partitioned: int = 1,
    seed: int = 0,
    domain: Domain = PAPER_DOMAIN,
    attribute: str = "value",
) -> ShardTopology:
    """Generate a deterministic topology of synthetic integer tables.

    ``tables`` routed tables named ``t00..`` place by SHA-256
    (:func:`~repro.sharding.router.shard_index`); the first ``partitioned``
    of an extra ``part00..`` family split their rows round-robin across
    *every* party of *every* shard.  Rows are uniform domain ``int`` values.
    """
    if shards < 1:
        raise ShardError(f"shards must be >= 1, got {shards}")
    if parties_per_shard < 3:
        raise ShardError(
            f"each shard is a ring protocol and needs >= 3 parties, "
            f"got {parties_per_shard}"
        )
    rng = random.Random(seed)
    routed_names = tuple(f"t{i:02d}" for i in range(tables))
    part_names = tuple(f"part{i:02d}" for i in range(partitioned))
    assignments: list[dict[str, dict[str, list[int]]]] = [
        {
            f"org{s:02d}x{p:02d}": {}
            for p in range(parties_per_shard)
        }
        for s in range(shards)
    ]

    def draw_rows() -> list[int]:
        low, high = int(domain.low), int(domain.high)
        return [rng.randint(low, high) for _ in range(rows_per_table)]

    for table in routed_names:
        owner_shard = shard_index(table, shards)
        parties = sorted(assignments[owner_shard])
        for i, value in enumerate(draw_rows()):
            owner = parties[i % len(parties)]
            assignments[owner_shard][owner].setdefault(table, []).append(value)
    all_parties = [
        (s, owner)
        for s in range(shards)
        for owner in sorted(assignments[s])
    ]
    for table in part_names:
        for i, value in enumerate(draw_rows()):
            s, owner = all_parties[i % len(all_parties)]
            assignments[s][owner].setdefault(table, []).append(value)

    return ShardTopology(
        shard_count=shards,
        parties_per_shard=parties_per_shard,
        attribute=attribute,
        domain=domain,
        tables=routed_names + part_names,
        partitioned=part_names,
        assignments=tuple(assignments),
        seed=seed,
    )


def exact_config(*, rounds: int = 4, protocol: str = "probabilistic") -> RunConfig:
    """A run configuration whose answers are exact (the bit-identity regime).

    ``p0=0`` means no node ever randomizes, so the probabilistic protocol
    returns the true top-k; the naive protocol is exact by construction.
    """
    return RunConfig(
        protocol=protocol,
        params=ProtocolParams(schedule=ExponentialSchedule(p0=0.0), rounds=rounds),
    )


def _build_party(
    owner: str,
    tables: "tuple[str, ...]",
    held: dict[str, list[int]],
    schema: Schema,
) -> PrivateDatabase:
    """One party holding every table in ``tables``, its ``held`` rows loaded.

    ``schema`` is the one-column schema of every table of the build: a
    schema is immutable, so the parties of one federation share one.
    """
    db = PrivateDatabase(owner)
    (attribute,) = schema.names
    for table_name in tables:
        table = db.create_table(table_name, schema)
        values = held.get(table_name, ())
        if values:
            # The party's rows as the one column they are, already of the
            # column's type: the table validates the list where it lies.
            table.insert_arrays({attribute: values})
    return db


def single_federation(
    topology: ShardTopology, *, config: RunConfig | None = None, **kwargs
) -> Federation:
    """One federation over every party and every row — the sharding oracle."""
    federation = Federation(
        domain=topology.domain,
        config=config if config is not None else exact_config(),
        seed=topology.seed,
        **kwargs,
    )
    schema = Schema.of((topology.attribute, "INTEGER"))
    for shard in topology.assignments:
        for owner in sorted(shard):
            federation.register(
                _build_party(owner, topology.tables, shard[owner], schema)
            )
    return federation


def _shard_federation(
    topology: ShardTopology, index: int, config: RunConfig | None = None, **kwargs
) -> Federation:
    """Shard ``index``'s federation: its parties, its table slice, its seed.

    The one body every backend builds with, always in the gateway:
    :func:`local_shards` calls it, and :func:`process_shards` forks its
    workers around what :func:`local_shards` returns.
    """
    federation = Federation(
        domain=topology.domain,
        config=config if config is not None else exact_config(),
        seed=topology.seed + index,
        **kwargs,
    )
    tables = topology.shard_tables(index)
    assignment = topology.assignments[index]
    schema = Schema.of((topology.attribute, "INTEGER"))
    for owner in sorted(assignment):
        federation.register(_build_party(owner, tables, assignment[owner], schema))
    return federation


def local_shards(
    topology: ShardTopology, *, config: RunConfig | None = None, **kwargs
) -> list[LocalShard]:
    """One in-process federation per shard, holding only its table slice.

    A shard whose build raises is refused as :class:`ShardError` naming
    it, with the build's own error as the cause: one refusal type for
    every backend, since :func:`process_shards` builds here too.
    """
    shards: list[LocalShard] = []
    for index in range(topology.shard_count):
        try:
            federation = _shard_federation(topology, index, config, **kwargs)
        except Exception as exc:
            raise ShardError(
                f"shard {index} failed to build: {type(exc).__name__}: {exc}"
            ) from exc
        shards.append(LocalShard(federation, index=index))
    return shards


def process_shards(
    topology: ShardTopology,
    *,
    config: RunConfig | None = None,
    timeout: float = 10.0,
    boot_timeout: float = 30.0,
) -> list[ProcessShard]:
    """One worker process per shard, each serving a shard built here.

    Every shard is built in this process by :func:`local_shards`, before
    the first fork, and each worker is forked around the one it serves:
    a process shard is its local twin by construction, for any ``config``,
    and a worker only binds, announces and serves.  A shard whose build
    raises is refused as :class:`ShardError` before anything is forked.
    Every worker is launched before any is waited for; handshakes are then
    collected in shard order.  A worker that fails to boot, or is still
    silent at ``boot_timeout``, raises :class:`ShardError` with its stderr,
    and every worker launched so far is killed and reaped first.

    The builds run one after another here instead of side by side in the
    workers.  A build in a freshly forked child pays a copy-on-write fault
    on every page it touches and competes with the next fork for the CPUs,
    so it is several times slower than here; only a shard whose build
    costs more than a fork would boot sooner in its worker, and no layout
    :func:`build_topology` makes is one, so there is no option for it.
    Each worker inherits the other shards' pages as shared copy-on-write
    memory it never writes; the gateway drops each shard as its worker is
    forked and keeps none.
    """
    built = local_shards(topology, config=config)
    shards: list[ProcessShard] = []
    try:
        while built:
            # Popped, so once its worker is forked the gateway holds no
            # reference to a shard it has handed over.
            shards.append(ProcessShard.launch(built.pop(0), timeout=timeout))
        for shard in shards:
            shard.handshake(boot_timeout)
    except BaseException:
        for shard in shards:
            shard.kill()
        raise
    return shards


def sharded_federation(
    topology: ShardTopology,
    *,
    processes: bool = False,
    config: RunConfig | None = None,
    **kwargs,
) -> ShardedFederation:
    """A ready :class:`ShardedFederation` over the topology's shards.

    ``processes=True`` forks one worker process per shard; otherwise
    shards are in-process federations.  The router already knows the
    topology's partitioned tables, and DP statements calibrate against the
    topology's domain unless a ``domain=`` override is passed.
    """
    router = ShardRouter(topology.shard_count, partitioned=topology.partitioned)
    build = process_shards if processes else local_shards
    kwargs.setdefault("domain", topology.domain)
    return ShardedFederation(build(topology, config=config), router=router, **kwargs)


def topology_workload(
    topology: ShardTopology,
    queries: int,
    *,
    seed: int = 0,
    repeat_fraction: float = 0.3,
    max_k: int = 5,
) -> list[str]:
    """A deterministic mixed statement stream over the topology's tables.

    The shape mirrors :func:`repro.service.workload.mixed_workload` (repeats
    exercise the cache fast path) but draws the table per statement, so the
    stream spreads across shards and includes fan-outs over the partitioned
    tables.
    """
    if queries < 1:
        raise ShardError(f"queries must be >= 1, got {queries}")
    if not 0.0 <= repeat_fraction < 1.0:
        raise ShardError(
            f"repeat_fraction must be in [0, 1), got {repeat_fraction}"
        )
    templates = (
        "SELECT TOP {k} {attr} FROM {table}",
        "SELECT BOTTOM {k} {attr} FROM {table}",
        "SELECT MAX({attr}) FROM {table}",
        "SELECT MIN({attr}) FROM {table}",
        "SELECT SUM({attr}) FROM {table}",
        "SELECT COUNT({attr}) FROM {table}",
        "SELECT AVG({attr}) FROM {table}",
    )
    rng = random.Random(seed)
    statements: list[str] = []
    for _ in range(queries):
        if statements and rng.random() < repeat_fraction:
            statements.append(rng.choice(statements))
            continue
        template = rng.choice(templates)
        statements.append(
            template.format(
                k=rng.randint(1, max_k),
                attr=topology.attribute,
                table=rng.choice(topology.tables),
            )
        )
    return statements


__all__ = [
    "ShardTopology",
    "build_topology",
    "exact_config",
    "local_shards",
    "process_shards",
    "sharded_federation",
    "single_federation",
    "topology_workload",
]
