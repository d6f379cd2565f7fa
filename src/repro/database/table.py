"""An in-memory relational table with the small query surface the protocols need.

The protocols only ever ask a private database two things about a table:
*all values of one numeric attribute* and *the local top-k of that attribute*.
The table nevertheless supports enough of the classic relational operations
(insert, scan, filtered select, projection, aggregation) to make the example
applications realistic rather than toy value-lists.

Storage is delegated to a pluggable :class:`~repro.database.engines.StorageEngine`
(the numpy columnar engine by default — see :mod:`repro.database.engines`),
which accelerates the predicate-free query paths; validation, the ``where``
predicate paths, and the ``version`` cache-invalidation counter live here
and are engine-independent.  All engines answer bit-identically, so which
one backs a table is a performance choice, never a semantic one.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from .engines import (
    ExtractionSample,
    StorageEngine,
    _reals_representable,
    _scalar_aggregate,
    extraction_sink,
    make_engine,
)
from .predicates import ColumnPredicate
from .schema import Schema, SchemaError

Row = dict[str, object]
#: ``where=`` accepts any row callable; a structured
#: :class:`~repro.database.predicates.ColumnPredicate` (see
#: :func:`~repro.database.predicates.col`) additionally unlocks the
#: vectorized filtered-query path on the columnar engine.
Predicate = Callable[[Row], bool]
EngineSpec = "str | Callable[[Schema], StorageEngine] | None"


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
    :data:`~repro.database.engines.ENGINES` (``"row"``, ``"columnar"``,
    ``"duckdb"``), a factory callable ``Schema -> StorageEngine``, or
    ``None`` for the default (columnar).
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
        self._engine = make_engine(engine, schema)
        self._version = 0
        #: The owning database's counter, bumped beside ``version``.
        self._database_version: VersionCounter | None = None

    @property
    def engine_name(self) -> str:
        """The backing storage engine's name (``row``/``columnar``/``duckdb``)."""
        return self._engine.name

    def __len__(self) -> int:
        return len(self._engine)

    @property
    def nbytes(self) -> int | None:
        """Bytes of array storage the engine holds for this table (sealed
        column chunks at their stored width, validity masks, summaries), or
        ``None`` from an engine that cannot say (``row``, ``duckdb``)."""
        return self._engine.nbytes

    def __iter__(self) -> Iterator[Row]:
        return iter(self._engine.rows())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, columns={self.schema.names}, rows={len(self)})"

    # -- mutation ----------------------------------------------------------

    def _normalize(self, row: Row) -> Row:
        # Engines store full rows: every schema column present, None where
        # the caller omitted a nullable value (validate_row already treats
        # a missing key as None, so this changes nothing observable).
        return {name: row.get(name) for name in self.schema.names}

    def insert(self, row: Row) -> None:
        """Insert one row after validating it against the schema."""
        self.schema.validate_row(row)
        # Store a copy so later caller-side mutation cannot corrupt the table.
        self._engine.append_rows([self._normalize(row)])
        self._mutated()

    def insert_many(self, rows: Iterable[Row]) -> int:
        """Insert rows, returning how many were inserted.

        Validation is all-or-nothing: if any row is invalid, no row is added.
        """
        staged = []
        for row in rows:
            self.schema.validate_row(row)
            staged.append(self._normalize(row))
        self._engine.append_rows(staged)
        if staged:
            self._mutated()
        return len(staged)

    def insert_arrays(self, columns: dict[str, "Sequence | np.ndarray"]) -> int:
        """Bulk-insert one value sequence per schema column; returns the count.

        The fast ingestion path for dataset builders: numpy arrays for
        numeric columns skip per-value validation (the dtype is the proof)
        and land in columnar storage without ever being boxed.  Arrays are
        canonicalized *before* any engine sees them — INTEGER to int64,
        REAL to float64 — so every engine stores identical values; a REAL
        array containing non-finite values or ``-0.0``, or any plain-list
        input, takes the validated scalar path instead.  Counts as one
        mutation batch (one ``version`` bump), like :meth:`insert_many`.

        The table owns what it stores.  Arrays must be 1-D.  A column the
        engine keeps narrower than the input (most are) is a fresh array;
        one kept at int64 / float64 is *adopted* when the array owns its
        data and is C-contiguous — it becomes read-only, so a later write
        through the caller's reference raises ``ValueError`` instead of
        changing a stored row behind ``version`` — and copied otherwise (a
        view, a strided slice).  Adopt-and-freeze rather than always copy
        because a second canonical-width copy of a column is exactly the
        footprint this path exists to avoid; do not keep a writable view
        taken *before* the insert.
        """
        unknown = set(columns) - set(self.schema.names)
        if unknown:
            raise SchemaError(f"unknown columns in batch: {sorted(unknown)}")
        missing = set(self.schema.names) - set(columns)
        if missing:
            raise SchemaError(f"missing columns in batch: {sorted(missing)}")
        for name, values in columns.items():
            if isinstance(values, np.ndarray) and values.ndim != 1:
                raise SchemaError(
                    f"column {name!r}: expected a 1-D array, got shape "
                    f"{values.shape}"
                )
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged column batch: lengths {sorted(lengths)}")
        count = lengths.pop() if lengths else 0
        if count == 0:
            return 0

        canonical: dict[str, np.ndarray | list] = {}
        for column in self.schema.columns:
            values = columns[column.name]
            array = values if isinstance(values, np.ndarray) else None
            if array is not None and column.type == "INTEGER" and array.dtype.kind == "i":
                canonical[column.name] = array.astype(np.int64, copy=False)
            elif (
                array is not None
                and column.type == "REAL"
                and array.dtype.kind == "f"
                and _reals_representable(array.astype(np.float64, copy=False))
            ):
                canonical[column.name] = array.astype(np.float64, copy=False)
            else:
                listed = array.tolist() if array is not None else list(values)
                for value in listed:
                    column.validate(value)
                canonical[column.name] = listed
        self._engine.append_columns(canonical, count)
        self._mutated()
        return count

    def _mutated(self) -> None:
        self._version += 1
        if self._database_version is not None:
            self._database_version.value += 1

    @property
    def version(self) -> int:
        """Monotone mutation counter, bumped by every batch of inserts.

        Consumers (e.g. the federation's query-result cache) compare
        versions to detect that previously computed answers may be stale.
        """
        return self._version

    # -- queries -----------------------------------------------------------

    def _row_mask(self, where: Predicate) -> "np.ndarray | None":
        """Vectorize a structured predicate, or ``None`` for the scalar path.

        Structured predicates are schema-checked here (on *every* engine —
        a typo'd column name should raise, not silently match nothing),
        then handed to the engine's ``try_mask`` hook if it has one.  A
        ``None`` return means "evaluate ``where`` row by row instead": the
        predicate is an opaque callable, the engine has no mask support, or
        a referenced column cannot vectorize exactly (spilled / TEXT).
        """
        if not isinstance(where, ColumnPredicate):
            return None
        unknown = set(where.columns()) - set(self.schema.names)
        if unknown:
            raise SchemaError(
                f"predicate references unknown columns: {sorted(unknown)}"
            )
        try_mask = getattr(self._engine, "try_mask", None)
        if try_mask is None:
            return None
        return try_mask(where)

    def _masked_values(
        self, column: str, where: Predicate
    ) -> "np.ndarray | None":
        """Filtered non-null values of a numeric column as an array.

        ``None`` means the scalar fallback must run (and will agree).
        """
        mask = self._row_mask(where)
        if mask is None:
            return None
        return self._engine.masked_numeric(column, mask)  # type: ignore[attr-defined]

    def scan(self, where: Predicate | None = None) -> list[Row]:
        """Return (copies of) all rows matching ``where``."""
        if where is None:
            return self._engine.rows()
        mask = self._row_mask(where)
        if mask is not None:
            # Build only the selected rows, straight from column storage.
            names = self.schema.names
            columns = [self._engine.column_values(name) for name in names]
            return [
                {name: col[i] for name, col in zip(names, columns)}
                for i in np.flatnonzero(mask)
            ]
        return [r for r in self._engine.rows() if where(r)]

    def project(self, column: str, where: Predicate | None = None) -> list[object]:
        """Return the values of one column, optionally filtered."""
        self.schema.column(column)  # raises on unknown column
        if where is None:
            return self._engine.column_values(column)
        mask = self._row_mask(where)
        if mask is not None:
            values = self._engine.column_values(column)
            return [values[i] for i in np.flatnonzero(mask)]
        return [r.get(column) for r in self._engine.rows() if where(r)]

    def numeric_values(
        self, column: str, where: Predicate | None = None
    ) -> list[float]:
        """Return non-null values of a numeric column.

        This is the attribute-value extraction step every node performs before
        joining a protocol run.
        """
        col = self.schema.column(column)
        if not col.is_numeric:
            raise SchemaError(f"column {column!r} is not numeric")
        if where is None:
            return self._engine.numeric_values(column)
        masked = self._masked_values(column, where)
        if masked is not None:
            return self._engine._to_list(masked)  # type: ignore[attr-defined]
        return [v for v in self.project(column, where) if v is not None]  # type: ignore[list-item]

    def _extract(self, op: str, column: str, k: int) -> list[float]:
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

    def top_k(
        self, column: str, k: int, where: Predicate | None = None
    ) -> list[float]:
        """Local top-k of a numeric column, sorted descending.

        Returns fewer than ``k`` values when the table is small.  This is the
        node-local sort-and-truncate of Section 3.4 ("each node first sorts its
        values and takes the local set of topk values").
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        col = self.schema.column(column)
        if not col.is_numeric:
            raise SchemaError(f"column {column!r} is not numeric")
        if where is None:
            return self._extract("top_k", column, k)
        masked = self._masked_values(column, where)
        if masked is not None:
            return self._engine.top_k_array(masked, k)  # type: ignore[attr-defined]
        import heapq

        return heapq.nlargest(k, self.numeric_values(column, where))

    def bottom_k(
        self, column: str, k: int, where: Predicate | None = None
    ) -> list[float]:
        """Local bottom-k (ascending) — used by min queries and kNN distances."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        col = self.schema.column(column)
        if not col.is_numeric:
            raise SchemaError(f"column {column!r} is not numeric")
        if where is None:
            return self._extract("bottom_k", column, k)
        masked = self._masked_values(column, where)
        if masked is not None:
            return self._engine.bottom_k_array(masked, k)  # type: ignore[attr-defined]
        import heapq

        return heapq.nsmallest(k, self.numeric_values(column, where))

    def aggregate(
        self,
        column: str,
        func: str,
        where: Predicate | None = None,
    ) -> float | None:
        """Local aggregate: one of ``max``, ``min``, ``sum``, ``count``, ``avg``.

        ``count`` counts the column's **non-null** values — consistent with
        ``sum``/``avg``, which also exclude nulls, so ``avg == sum / count``
        holds on every table.  (It used to count nulls too, making the three
        disagree on nullable columns.)  Use ``len(table)`` or
        ``len(table.scan(where))`` for a row count.
        """
        col = self.schema.column(column)
        if where is None and col.is_numeric:
            return self._engine.aggregate(column, func)
        if where is not None and col.is_numeric:
            masked = self._masked_values(column, where)
            if masked is not None:
                return self._engine.aggregate_array(masked, func)  # type: ignore[attr-defined]
        if func == "count":
            return float(sum(1 for v in self.project(column, where) if v is not None))
        return _scalar_aggregate(self.numeric_values(column, where), func)

    def values_within(
        self, column: str, low: float, high: float, where: Predicate | None = None
    ) -> bool:
        """True when every non-null value of ``column`` lies in ``[low, high]``.

        The vectorized form of the per-value domain check a database performs
        before admitting an attribute to a protocol run.
        """
        col = self.schema.column(column)
        if not col.is_numeric:
            raise SchemaError(f"column {column!r} is not numeric")
        if where is None:
            return self._engine.all_in_range(column, low, high)
        masked = self._masked_values(column, where)
        if masked is not None:
            return self._engine.in_range_array(masked, low, high)  # type: ignore[attr-defined]
        return all(low <= v <= high for v in self.numeric_values(column, where))
