"""Private-database substrate: schemas, tables, queries, and data generators."""

from .._lazy import lazy_exports

_EXPORTS = {
    "database": ("PrivateDatabase", "database_from_values"),
    "engines": (
        "COLUMNAR",
        "ColumnarEngine",
        "ENGINES",
        "ExtractionSample",
        "ROW",
        "RowStoreEngine",
        "StorageEngine",
        "make_engine",
    ),
    "generator": ("DISTRIBUTIONS", "DataGenerator"),
    "io": ("TableIOError", "database_from_csv_dir", "load_csv_table", "save_csv_table"),
    "query": (
        "Domain",
        "PAPER_DOMAIN",
        "QueryError",
        "TopKQuery",
    ),
    "schema": ("COLUMN_TYPES", "Column", "Schema", "SchemaError", "common_query"),
    "table": ("Table",),
    "tpch": (
        "LINEITEM_ROWS_PER_SF",
        "LINEITEM_SCHEMA",
        "TPCH_ATTRIBUTE",
        "TPCH_PRICE_DOMAIN",
        "TPCH_TABLE",
        "lineitem_arrays",
        "lineitem_database",
        "lineitem_databases",
        "price_query",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
