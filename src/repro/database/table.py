"""An in-memory relational table with the small query surface the protocols need.

A statement asks a party's table one thing: the local top-k (or bottom-k) of
one numeric attribute for a ranking query (Section 3.4), or its local SUM /
COUNT for an additive one.  The table answers those, plus the plain reads
export and the examples use (scan, projection, all values of a column) and
the other local aggregates (MIN / MAX / AVG).  There are no predicates:
the statement language has none (``repro.federation.sql``).

Storage is delegated to a pluggable :class:`~repro.database.engines.StorageEngine`
(the numpy columnar engine by default — see :mod:`repro.database.engines`);
validation and the ``version`` cache-invalidation counter live here and are
engine-independent.  All engines answer bit-identically, so which one backs
a table is a performance choice, never a semantic one.

Every write is ``insert_arrays``: it takes columns as given (whole or in
blocks); ``insert_many`` (and ``insert``, a batch of one) hands it its rows
as one list per column.  Each block is validated here, an array block also
canonicalised and sealed by the engine, and the batch committed whole.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .engines import (
    AGGREGATES,
    ColumnarEngine,
    ExtractionSample,
    StorageEngine,
    _reals_representable,
    extraction_sink,
    make_engine,
)
from .schema import Column, Schema, SchemaError

Row = dict[str, object]


def _canonical(column: Column, values: Sequence | np.ndarray) -> np.ndarray | list:
    """A block that is not a list as the engine takes it: an INTEGER array as
    int64, a REAL array as float64 when every value is representable (finite,
    never ``-0.0``), anything else as a list the column has validated."""
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        if column.type == "INTEGER" and kind == "i":
            return values.astype(np.int64, copy=False)
        if column.type == "REAL" and kind == "f":
            reals = values.astype(np.float64, copy=False)
            if _reals_representable(reals):
                return reals
        values = values.tolist()
    else:
        values = list(values)
    if not column.accepts.issuperset(map(type, values)):
        for value in values:
            column.validate(value)
    return values


class VersionCounter:
    """A mutation count that a database and the tables it owns share.

    A cell rather than a callback into the database: a table must not
    point back at its owner, or dropping a database would leave its
    (large) column arrays to the cycle collector instead of freeing them.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class Table:
    """A schema-validated, append-oriented in-memory table.

    ``engine`` selects the storage backend: an engine name from
    :data:`~repro.database.engines.ENGINES` (``"row"``, ``"columnar"``), a
    factory callable ``Schema -> StorageEngine``, or ``None`` for the
    default (columnar).
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        engine: "str | Callable[[Schema], StorageEngine] | None" = None,
    ) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        self.schema = schema
        self._engine = (
            ColumnarEngine(schema) if engine is None else make_engine(engine, schema)
        )
        self._version = 0
        #: The owning database's counter, bumped beside ``version``.
        self._database_version: VersionCounter | None = None

    @property
    def engine_name(self) -> str:
        """The backing storage engine's name (``row``/``columnar``)."""
        return self._engine.name

    def __len__(self) -> int:
        return len(self._engine)

    @property
    def nbytes(self) -> int | None:
        """Bytes of array storage the engine holds for this table (sealed
        column chunks at their stored width, validity masks, summaries), or
        ``None`` from an engine that cannot say (``row``)."""
        return self._engine.nbytes

    def __iter__(self) -> Iterator[Row]:
        return iter(self._engine.rows())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, columns={self.schema.names}, rows={len(self)})"

    # -- mutation ----------------------------------------------------------

    def insert(self, row: Row) -> None:
        """Insert one row after validating it against the schema."""
        self.insert_many((row,))

    def insert_many(self, rows: Iterable[Row]) -> int:
        """Insert rows, returning how many were inserted.

        Rows enter as columns.  One pass over ``rows`` (a generator is
        consumed once) checks that each row's keys are schema names and
        appends ``row.get(name)`` — ``None`` for an omitted column — to one
        list per schema column; no caller dict is kept, so later mutation
        of one cannot reach the table.  The lists then go to
        :meth:`insert_arrays`, which validates each as a column and commits
        the batch with one ``version`` bump.

        All-or-nothing: if any row is invalid, ``SchemaError`` is raised
        with the message :meth:`Schema.validate_row` gives for that row,
        and no row is added.  With several invalid rows, the one named may
        differ from the first in the batch.  An empty batch is not a
        mutation.
        """
        known = self.schema.name_set
        columns: dict[str, list] = {name: [] for name in self.schema.names}
        lists = columns.items()
        for row in rows:
            if not known.issuperset(row):
                raise SchemaError(f"unknown columns in row: {sorted(set(row) - known)}")
            for name, values in lists:
                values.append(row.get(name))
        return self.insert_arrays(columns)

    def insert_arrays(
        self,
        columns: (
            Mapping[str, Sequence | np.ndarray | Iterator[np.ndarray]]
            | Iterable[tuple[str, Sequence | np.ndarray | Iterator[np.ndarray]]]
        ),
    ) -> int:
        """Bulk-insert one value sequence per schema column; returns the count.

        The fast ingestion path for dataset builders: numpy arrays for
        numeric columns skip per-value validation (the dtype is the proof)
        and land in columnar storage without ever being boxed.  Arrays are
        canonicalized *before* any engine sees them — INTEGER to int64,
        REAL to float64 — so every engine stores identical values; a REAL
        array containing non-finite values or ``-0.0``, or any plain-list
        input, takes the validated scalar path instead — the path and the
        stored form of :meth:`insert_many`'s columns, so a builder that
        holds a column hands it over as a list rather than as one-key rows.
        A list is one block, validated where it lies (one pass over its
        value types against ``Column.accepts``; :meth:`Column.validate`
        value by value only where that fails) and handed over, not copied:
        the engine copies what it keeps.  Counts as one mutation batch (one
        ``version`` bump, one engine call), like :meth:`insert_many`.

        ``columns`` is a mapping or an iterable of ``(name, values)``
        pairs, in any column order; a mapping is read as its ``items()``.
        ``values`` is one array, a list (or other sequence) of values, or
        an iterator of 1-D array *blocks* — one array is a stream of one
        block.  Each block is checked (1-D), canonicalised and sealed by
        the engine as it arrives, and let go of before the next is drawn,
        so a generator that yields one fresh block at a time never has two
        of them alive here.  A column's name is checked as it arrives
        (known, not repeated) and its total once its blocks are in (as long
        as the first column's).  The rows land only once every column has
        arrived: a stream that fails on any block — or ends with a column
        missing — raises ``SchemaError`` (or whatever the stream itself
        raised) and leaves the table as it was.

        The table owns what it stores.  A block the engine keeps narrower
        than the input (most are) is a fresh array; one kept at int64 /
        float64 is *adopted* when the array owns its data and is
        C-contiguous — it becomes read-only when sealed (and stays so if
        a later block fails), so a later write through the caller's
        reference raises ``ValueError`` instead of changing a stored row
        behind ``version`` — and copied otherwise (a view, a strided
        slice).  A column already spilled to Python objects adopts
        nothing.  Adopt-and-freeze rather than always copy
        because a second canonical-width copy of a column is exactly the
        footprint this path exists to avoid; do not keep a writable view
        taken *before* the insert.
        """
        if type(columns) is dict or isinstance(columns, Mapping):
            columns = columns.items()
        schema = self.schema
        by_name = schema.by_name
        blocks: dict[str, list] = {}
        count = None
        for name, values in columns:
            column = by_name.get(name)
            if column is None:
                raise SchemaError(f"unknown columns in batch: [{name!r}]")
            if name in blocks:
                raise SchemaError(f"column {name!r} repeated in batch")
            if type(values) is list:
                if not column.accepts.issuperset(map(type, values)):
                    for value in values:
                        column.validate(value)
                rows = len(values)
                runs = [values]
            else:
                rows, runs = self._seal_blocks(name, column, values)
            del values
            if count is None:
                count = rows
            elif rows != count:
                raise SchemaError(
                    f"ragged column batch: {name!r} has {rows} rows, "
                    f"expected {count}"
                )
            blocks[name] = runs
        # Every key is a schema name, none twice: equal sizes mean all in.
        if len(blocks) != len(schema.columns):
            missing = schema.name_set - blocks.keys()
            raise SchemaError(f"missing columns in batch: {sorted(missing)}")
        if not count:  # an empty batch is not a mutation
            return 0
        self._engine.append_columns(blocks, count)
        self._version += 1
        if self._database_version is not None:
            self._database_version.value += 1
        return count

    def _seal_blocks(
        self, name: str, column: Column, values: Sequence | np.ndarray | Iterator
    ) -> tuple[int, list]:
        """Column ``name``'s row count and blocks, for anything but a plain
        list: one array or sequence is a stream of one block, and an
        iterator's blocks are each checked, canonicalised and (arrays) sealed
        as they arrive, the input let go of before the next is drawn."""
        stream = not isinstance(values, np.ndarray) and isinstance(values, Iterator)
        runs = []
        rows = 0
        for block in values if stream else (values,):
            if isinstance(block, np.ndarray):
                if block.ndim != 1:
                    raise SchemaError(
                        f"column {name!r}: expected a 1-D array, got shape "
                        f"{block.shape}"
                    )
            elif stream:
                raise SchemaError(
                    f"column {name!r}: expected a stream of 1-D array "
                    f"blocks, got a block of type {type(block).__name__!r}"
                )
            rows += len(block)
            block = _canonical(column, block)
            runs.append(
                block if type(block) is list else self._engine.seal(name, block)
            )
            # Let go of the input before the stream draws the next block.
            del block
        return rows, runs

    @property
    def version(self) -> int:
        """Monotone mutation counter, bumped by every batch of inserts.

        Consumers (e.g. the federation's query-result cache) compare
        versions to detect that previously computed answers may be stale.
        """
        return self._version

    # -- queries -----------------------------------------------------------

    def scan(self) -> list[Row]:
        """Return (copies of) all rows, in insertion order."""
        return self._engine.rows()

    def project(self, column: str) -> list[object]:
        """Return the values of one column, ``None`` included."""
        self.schema.column(column)  # raises on unknown column
        return self._engine.column_values(column)

    def _numeric(self, column: str) -> None:
        if not self.schema.column(column).is_numeric:
            raise SchemaError(f"column {column!r} is not numeric")

    def _extract(self, op: str, column: str, k: int) -> list[float]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._numeric(column)
        sink = extraction_sink()
        if sink is None:
            method = getattr(self._engine, op)
            return method(column, k)
        start = time.perf_counter()
        values = getattr(self._engine, op)(column, k)
        sink(
            ExtractionSample(
                engine=self._engine.name,
                table=self.name,
                column=column,
                op=op,
                rows=len(self._engine),
                k=k,
                seconds=time.perf_counter() - start,
            )
        )
        return values

    def top_k(self, column: str, k: int) -> list[float]:
        """Local top-k of a numeric column, sorted descending.

        Returns fewer than ``k`` values when the table is small.  This is the
        node-local sort-and-truncate of Section 3.4 ("each node first sorts its
        values and takes the local set of topk values").
        """
        return self._extract("top_k", column, k)

    def bottom_k(self, column: str, k: int) -> list[float]:
        """Local bottom-k (ascending) — used by min queries and kNN distances."""
        return self._extract("bottom_k", column, k)

    def aggregate(self, column: str, func: str) -> float | None:
        """Local aggregate: one of ``max``, ``min``, ``sum``, ``count``, ``avg``.

        ``count`` counts the column's **non-null** values — consistent with
        ``sum``/``avg``, which also exclude nulls, so ``avg == sum / count``
        holds on every table; use ``len(table)`` for a row count.  Any other
        ``func`` is a ``ValueError``, whatever the table holds.
        """
        if func not in AGGREGATES:
            raise ValueError(f"unknown aggregate function: {func!r}")
        if self.schema.column(column).is_numeric:
            return self._engine.aggregate(column, func)
        if func == "count":
            return float(sum(1 for v in self.project(column) if v is not None))
        raise SchemaError(f"column {column!r} is not numeric")
