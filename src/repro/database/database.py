"""The private database held by one participating organization.

Each node in the protocol wraps exactly one :class:`PrivateDatabase`.  The
database is *private*: nothing outside the owning node may read it.  The only
sanctioned flow of information out of it is through a protocol's local
computation module, which sees the local top-k vector for the queried
attribute and nothing else.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from .engines import StorageEngine
from .query import QueryError, TopKQuery
from .schema import Schema, SchemaError
from .table import Row, Table, VersionCounter


class PrivateDatabase:
    """A named collection of tables owned by one party.

    ``engine`` names the storage engine new tables default to (see
    :mod:`repro.database.engines`); :meth:`create_table` can override it
    per table.  Engines answer bit-identically, so the choice affects
    extraction speed only, never query results.
    """

    def __init__(
        self,
        owner: str,
        *,
        engine: "str | Callable[[Schema], StorageEngine] | None" = None,
    ) -> None:
        if not owner:
            raise ValueError("owner must be non-empty")
        self.owner = owner
        self.engine = engine
        self._tables: dict[str, Table] = {}
        self._data_version = VersionCounter()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PrivateDatabase(owner={self.owner!r}, tables={sorted(self._tables)})"

    # -- DDL ---------------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: Schema,
        *,
        engine: "str | Callable[[Schema], StorageEngine] | None" = None,
    ) -> Table:
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists in {self.owner}'s database")
        # Positional: a keyword costs the call a dispatch, once per table.
        table = Table(name, schema, engine if engine is not None else self.engine)
        table._database_version = self._data_version
        self._tables[name] = table
        self._data_version.value += 1
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise SchemaError(f"no such table: {name!r}")
        # The dropped table's mutations stay counted (the database-wide
        # version must not *decrease*, or a recreate could replay a
        # previously seen version); what it does from now on is not ours.
        self._tables.pop(name)._database_version = None
        self._data_version.value += 1

    @property
    def data_version(self) -> int:
        """Monotone version covering both schema (DDL) and row mutations.

        Any insert, create or drop strictly increases it, which is what the
        federation's query-result cache keys on to invalidate answers after
        the underlying private data changes.  One counter, bumped by
        create, by drop and by each owned table beside its own
        :attr:`~repro.database.table.Table.version`: the result cache reads
        this once per key, so it must not cost a pass over the tables.
        """
        return self._data_version.value

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"no such table: {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    # -- DML ---------------------------------------------------------------

    def insert(self, table: str, row: Row) -> None:
        self.table(table).insert(row)

    # -- protocol-facing interface ------------------------------------------

    def local_topk(self, query: TopKQuery) -> list[float]:
        """The node's local top-k vector for ``query`` (Section 3.4).

        Values are validated against the query's public domain: a value
        outside the agreed domain indicates a misconfigured party and would
        silently break the protocol's correctness argument, so it is rejected
        loudly here.
        """
        table = self.table(query.table)
        if query.smallest:
            values = table.bottom_k(query.attribute, query.k)
        else:
            values = table.top_k(query.attribute, query.k)
        for v in values:
            if v not in query.domain:
                raise QueryError(
                    f"{self.owner}: value {v!r} of {query.attribute!r} lies outside "
                    f"the public domain [{query.domain.low}, {query.domain.high}]"
                )
        return values


def database_from_values(
    owner: str,
    values: Iterable[float] | np.ndarray,
    *,
    table: str = "data",
    attribute: str = "value",
    engine: "str | Callable[[Schema], StorageEngine] | None" = None,
) -> PrivateDatabase:
    """Build a single-table database from a flat list of attribute values.

    This is the shape used throughout the paper's evaluation, where each node
    holds values of a single sensitive attribute.  The column is INTEGER when
    every value is an ``int`` (an array: when its dtype is an integer or
    boolean kind), REAL otherwise, and enters the table whole through
    :meth:`~repro.database.table.Table.insert_arrays`.
    """
    db = PrivateDatabase(owner, engine=engine)
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
        integral = values.dtype.kind != "f"
    else:
        # Materialize once: ``values`` may be a one-shot iterator, and it
        # is read twice below (type sniffing, then the insert).
        values = list(values)
        integral = all(isinstance(v, int) for v in values)
    schema = Schema.of((attribute, "INTEGER" if integral else "REAL"))
    db.create_table(table, schema).insert_arrays({attribute: values})
    return db
