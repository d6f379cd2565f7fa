"""CSV import/export for private databases.

Organizations load their tables from files; this gives the substrate a
realistic ingestion path (typed against the schema, all-or-nothing) and an
export path for round-tripping.  Only the owning party ever touches these
files — nothing here crosses the privacy boundary.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from .database import PrivateDatabase
from .schema import Schema, SchemaError
from .table import Table


class TableIOError(ValueError):
    """Raised for unreadable or schema-violating CSV files."""


_PARSERS = {"INTEGER": int, "REAL": float, "TEXT": str}


def _parse_cell(raw: str, column_type: str, nullable: bool):
    if raw == "":
        if nullable:
            return None
        raise TableIOError(f"empty cell in non-nullable {column_type} column")
    try:
        value = _PARSERS[column_type](raw)
    except ValueError as exc:
        raise TableIOError(f"cannot parse {raw!r} as {column_type}") from exc
    # A NaN has no order: a ranking answer would depend on where its row sits.
    if column_type == "REAL" and not math.isfinite(value):
        raise TableIOError(f"non-finite value {raw!r} in REAL column")
    return value


def load_csv_table(
    database: PrivateDatabase,
    name: str,
    schema: Schema,
    path: Path | str,
) -> Table:
    """Create ``name`` in ``database`` and load it from a CSV file.

    The CSV header must contain exactly the schema's column names (any
    order).  Loading is all-or-nothing: a bad row aborts without creating
    the table.
    """
    path = Path(path)
    try:
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames
            if header is None:
                raise TableIOError(f"{path}: empty file, no header")
            if sorted(header) != sorted(schema.names):
                raise TableIOError(
                    f"{path}: header {header} does not match schema "
                    f"columns {list(schema.names)}"
                )
            rows = []
            for line_number, raw_row in enumerate(reader, start=2):
                if None in raw_row:  # DictReader files surplus cells under None
                    raise TableIOError(
                        f"{path}:{line_number}: {len(raw_row[None])} more "
                        f"cell(s) than the header's {len(header)}"
                    )
                row = {}
                for column in schema.columns:
                    raw = raw_row.get(column.name)
                    if raw is None:
                        raise TableIOError(
                            f"{path}:{line_number}: missing column {column.name!r}"
                        )
                    row[column.name] = _parse_cell(
                        raw, column.type, column.nullable
                    )
                rows.append(row)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise TableIOError(f"cannot read {path}: {exc}") from exc

    table = database.create_table(name, schema)
    try:
        table.insert_many(rows)
    except SchemaError:
        database.drop_table(name)
        raise
    return table


def save_csv_table(table: Table, path: Path | str) -> Path:
    """Write a table as CSV (header = schema column order)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(table.schema.names))
        writer.writeheader()
        for row in table.scan():
            writer.writerow(
                {k: ("" if v is None else v) for k, v in row.items()}
            )
    return path


def database_from_csv_dir(
    owner: str,
    directory: Path | str,
    schemas: dict[str, Schema],
) -> PrivateDatabase:
    """Build a database from ``<directory>/<table>.csv`` per schema entry."""
    directory = Path(directory)
    database = PrivateDatabase(owner)
    for name, schema in sorted(schemas.items()):
        load_csv_table(database, name, schema, directory / f"{name}.csv")
    return database
