"""Relational schema primitives for the private-database substrate.

The paper assumes "the database schemas and attribute names are known and
are well matched across n nodes" (Section 3.2).  This module provides the
minimal relational machinery needed to make that assumption concrete: typed
columns, a table schema, and schema compatibility checks used when a query
spans multiple private databases.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .query import QueryError, TopKQuery

if TYPE_CHECKING:
    from .database import PrivateDatabase


class SchemaError(ValueError):
    """Raised when a schema is malformed or two schemas are incompatible."""


#: Column types supported by the substrate.  The protocols in the paper
#: operate on a totally ordered numeric attribute, so INTEGER and REAL are
#: the interesting ones; TEXT exists for realistic example tables.
COLUMN_TYPES = ("INTEGER", "REAL", "TEXT")

_PYTHON_TYPES = {
    "INTEGER": (int,),
    "REAL": (int, float),
    "TEXT": (str,),
}

#: ``(type, nullable)`` -> the exact value types :meth:`Column.validate`
#: accepts (``NoneType`` too when nullable).  A batch whose every value's
#: ``type()`` is in the set needs no per-value check; a subclass (an
#: ``IntEnum`` member) still gets one.
EXACT_TYPES = {
    (ctype, nullable): frozenset(types + (type(None),) * nullable)
    for ctype, types in _PYTHON_TYPES.items()
    for nullable in (False, True)
}


@dataclass(frozen=True)
class Column:
    """A named, typed column.

    Parameters
    ----------
    name:
        Column name; must be a non-empty identifier.
    type:
        One of :data:`COLUMN_TYPES`.
    nullable:
        Whether ``None`` is an accepted value.

    ``accepts`` (its :data:`EXACT_TYPES` entry) is derived once, here, for
    every batch on the column; equality, hashing, ``repr``, pickling and
    ``replace`` ignore it.
    """

    name: str
    type: str = "INTEGER"
    nullable: bool = False
    accepts: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")
        if self.type not in COLUMN_TYPES:
            raise SchemaError(
                f"unknown column type {self.type!r}; expected one of {COLUMN_TYPES}"
            )
        object.__setattr__(self, "accepts", EXACT_TYPES[self.type, bool(self.nullable)])

    def __reduce__(self) -> tuple:
        return Column, (self.name, self.type, self.nullable)

    def validate(self, value: object) -> None:
        """Raise :class:`SchemaError` unless ``value`` fits this column."""
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return
        expected = _PYTHON_TYPES[self.type]
        # bool is an int subclass but almost never what a caller intends.
        if isinstance(value, bool) or not isinstance(value, expected):
            raise SchemaError(
                f"column {self.name!r} expects {self.type}, got {value!r}"
            )

    @property
    def is_numeric(self) -> bool:
        return self.type in ("INTEGER", "REAL")


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`Column` objects.

    ``names`` (in column order), ``name_set``, ``by_name`` (name -> column)
    and ``signature`` (the ``(name, type)`` pairs, in no order) are derived
    once, here, and ignored as :class:`Column`'s are.
    """

    columns: tuple[Column, ...] = field(default_factory=tuple)
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    name_set: frozenset[str] = field(init=False, repr=False, compare=False)
    by_name: dict[str, Column] = field(init=False, repr=False, compare=False)
    signature: frozenset[tuple[str, str]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        names = tuple(c.name for c in self.columns)
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in schema: {list(names)}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "name_set", frozenset(names))
        object.__setattr__(self, "by_name", dict(zip(names, self.columns)))
        object.__setattr__(
            self, "signature", frozenset((c.name, c.type) for c in self.columns)
        )

    def __reduce__(self) -> tuple:
        return Schema, (self.columns,)

    @classmethod
    def of(cls, *specs: tuple[str, str] | Column) -> "Schema":
        """Build a schema from ``("name", "TYPE")`` pairs or Column objects."""
        columns = []
        for spec in specs:
            if isinstance(spec, Column):
                columns.append(spec)
            else:
                name, ctype = spec
                columns.append(Column(name, ctype))
        return cls(tuple(columns))

    def column(self, name: str) -> Column:
        try:
            return self.by_name[name]
        except KeyError:
            raise SchemaError(f"no such column: {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self.by_name

    def __len__(self) -> int:
        return len(self.columns)

    def validate_row(self, row: dict[str, object]) -> None:
        """Raise :class:`SchemaError` unless ``row`` fits this schema exactly.

        The rule one row at a time; ``Table.insert_many`` applies it to a
        whole batch column by column, with the same messages.
        """
        unknown = set(row) - self.name_set
        if unknown:
            raise SchemaError(f"unknown columns in row: {sorted(unknown)}")
        for column in self.columns:
            column.validate(row.get(column.name))

    def is_compatible_with(self, other: "Schema") -> bool:
        """True when both schemas agree on names and types (order-insensitive).

        This is the well-matched-schema precondition of Section 3.2; the
        protocol driver checks it before running a multi-database query, and
        every resolve step once per party, so it compares the derived
        ``signature`` rather than building anything.
        """
        return self.signature == other.signature


def common_query(
    databases: Iterable[PrivateDatabase],
    query: TopKQuery,
) -> TopKQuery:
    """Validate that ``query`` is well-matched across all databases.

    Implements the Section 3.2 precondition: schemas and attribute names are
    known and well matched across the n nodes.  Returns the query unchanged on
    success, raises :class:`SchemaError`/:class:`QueryError` otherwise.  It
    reads only ``db.owner`` and ``db.table(name).schema``, so it lives here
    and its callers need not import the storage engine.
    """
    dbs = list(databases)
    if not dbs:
        raise QueryError("no databases supplied")
    reference: Schema | None = None
    for db in dbs:
        table = db.table(query.table)
        column = table.schema.column(query.attribute)
        if not column.is_numeric:
            raise SchemaError(
                f"{db.owner}: attribute {query.attribute!r} is not numeric"
            )
        if reference is None:
            reference = table.schema
        elif not table.schema.is_compatible_with(reference):
            raise SchemaError(
                f"{db.owner}: schema of table {query.table!r} does not match peers"
            )
    return query
