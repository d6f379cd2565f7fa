"""A seeded TPC-H-like workload at production data volumes.

The ROADMAP's "real data at scale" item: stand up federations whose parties
each hold millions of rows of a realistic fact table, so every benchmark
and figure is runnable at production volumes instead of the paper's 10k
toy lists.  This module generates a ``lineitem``-shaped table — the TPC-H
fact table whose ``l_extendedprice`` column is the classic top-k target —
with the same pricing structure as dbgen (``extendedprice = quantity x
unit price``, quantity in [1, 50]) and a *per-party perturbation*: each
party's prices are jittered by a party-seeded multiplicative factor, so
parties hold overlapping-but-distinct private data, exactly the setup the
protocols are for.

Everything is deterministic: party seeds derive from ``(seed, party)`` via
SHA-256 (the repo-wide idiom, collision-free across parties), and
generation is vectorized numpy streamed a column at a time into
:meth:`Table.insert_arrays`, so a scale-factor-1 party (6M rows) builds in
seconds rather than minutes.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np

from .database import PrivateDatabase
from .query import Domain, TopKQuery
from .schema import Schema

__all__ = [
    "LINEITEM_COLUMNS",
    "LINEITEM_ROWS_PER_SF",
    "LINEITEM_SCHEMA",
    "TPCH_ATTRIBUTE",
    "TPCH_PRICE_DOMAIN",
    "TPCH_TABLE",
    "lineitem_arrays",
    "lineitem_database",
    "lineitem_databases",
    "price_query",
]

TPCH_TABLE = "lineitem"
TPCH_ATTRIBUTE = "l_extendedprice"

#: The lineitem columns we model (the numeric core of the TPC-H fact table).
LINEITEM_COLUMNS = (
    ("l_orderkey", "INTEGER"),
    ("l_partkey", "INTEGER"),
    ("l_quantity", "INTEGER"),
    ("l_extendedprice", "REAL"),
    ("l_discount", "REAL"),
    ("l_tax", "REAL"),
)
LINEITEM_SCHEMA = Schema.of(*LINEITEM_COLUMNS)

#: TPC-H dbgen produces ~6M lineitem rows at scale factor 1.
LINEITEM_ROWS_PER_SF = 6_000_000

#: The public domain for ``l_extendedprice``.  dbgen prices are
#: quantity [1, 50] x unit price [900, 2100]; with jitter < 10% the
#: product stays well inside [1, 120000], and the protocols require only
#: that the agreed domain *contain* every value.
TPCH_PRICE_DOMAIN = Domain(1.0, 120_000.0, integral=False)

_QUANTITY_LOW, _QUANTITY_HIGH = 1, 50
_UNIT_PRICE_LOW, _UNIT_PRICE_HIGH = 900.0, 2100.0
_MAX_JITTER = 0.1


def _party_seed(seed: int, party: str) -> int:
    """Derive one party's generation seed, SHA-256 style (repo idiom)."""
    material = f"tpch:{seed}:{party}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _lineitem_columns(
    rows: int, seed: int, party: str, jitter: float
) -> Iterator[tuple[str, np.ndarray]]:
    """One party's lineitem columns as ``(name, array)`` pairs.

    Columns come in schema order as canonical numpy arrays, each drawn only
    when asked for, so a consumer that stores each one before asking for
    the next (:meth:`Table.insert_arrays`) never holds the whole party at
    full width.  The arguments are checked here, at the call, not at the
    first ``next()``.
    """
    if rows < 0:
        raise ValueError("rows must be non-negative")
    if not 0 <= jitter < _MAX_JITTER:
        raise ValueError(
            f"jitter must be in [0, {_MAX_JITTER}) to keep prices inside "
            f"the public domain, got {jitter}"
        )
    return _drawn_columns(np.random.default_rng(_party_seed(seed, party)), rows, jitter)


def _drawn_columns(
    rng: np.random.Generator, rows: int, jitter: float
) -> Iterator[tuple[str, np.ndarray]]:
    # Drawn in this order from the one stream (the pinned output depends on
    # it), computed in place and let go of once yielded: for a consumer that
    # stores each column before asking for the next, computing the price is
    # the worst moment, at three full-width arrays (quantity, unit price,
    # factor).
    yield "l_orderkey", rng.integers(
        1, LINEITEM_ROWS_PER_SF * 4, size=rows, dtype=np.int64
    )
    yield "l_partkey", rng.integers(1, 200_001, size=rows, dtype=np.int64)
    quantity = rng.integers(
        _QUANTITY_LOW, _QUANTITY_HIGH + 1, size=rows, dtype=np.int64
    )
    yield "l_quantity", quantity
    price = rng.uniform(_UNIT_PRICE_LOW, _UNIT_PRICE_HIGH, size=rows)
    factor = rng.uniform(1.0 - jitter, 1.0 + jitter, size=rows)
    np.multiply(quantity, price, out=price)
    del quantity
    np.multiply(price, factor, out=price)
    del factor
    yield "l_extendedprice", np.round(price, 2, out=price)
    del price
    discount = rng.uniform(0.0, 0.10, size=rows)
    yield "l_discount", np.round(discount, 2, out=discount)
    del discount
    tax = rng.uniform(0.0, 0.08, size=rows)
    yield "l_tax", np.round(tax, 2, out=tax)


def lineitem_arrays(
    rows: int, *, seed: int, party: str = "party0", jitter: float = 0.02
) -> dict[str, np.ndarray]:
    """Generate one party's lineitem columns as canonical numpy arrays.

    ``jitter`` is the party-specific perturbation: prices are scaled by a
    per-row factor uniform in ``[1 - jitter, 1 + jitter]`` drawn from the
    party's own seeded stream, then rounded to cents.  ``jitter=0`` gives
    every party identical pricing structure (still distinct rows, since the
    whole stream is party-seeded).
    """
    return dict(_lineitem_columns(rows, seed, party, jitter))


def lineitem_database(
    owner: str,
    *,
    seed: int,
    rows: int | None = None,
    scale_factor: float | None = None,
    jitter: float = 0.02,
    engine: str | None = None,
) -> PrivateDatabase:
    """Build one party's private database holding a lineitem table.

    Size the table with either ``rows`` (exact row count) or
    ``scale_factor`` (TPC-H convention: ``sf x 6M`` rows); exactly one must
    be given.  The party's data is fully determined by ``(seed, owner)``.
    """
    if (rows is None) == (scale_factor is None):
        raise ValueError("pass exactly one of rows= or scale_factor=")
    if rows is None:
        if scale_factor < 0:  # type: ignore[operator]
            raise ValueError("scale_factor must be non-negative")
        rows = int(scale_factor * LINEITEM_ROWS_PER_SF)  # type: ignore[operator]
    columns = _lineitem_columns(rows, seed, owner, jitter)
    db = PrivateDatabase(owner, engine=engine)
    db.create_table(TPCH_TABLE, LINEITEM_SCHEMA).insert_arrays(columns)
    return db


def lineitem_databases(
    parties: int,
    *,
    seed: int,
    rows_per_party: int | None = None,
    scale_factor: float | None = None,
    jitter: float = 0.02,
    engine: str | None = None,
    owner_prefix: str = "party",
) -> list[PrivateDatabase]:
    """Build one lineitem-holding database per party (perturbed per party)."""
    if parties < 1:
        raise ValueError("parties must be >= 1")
    return [
        lineitem_database(
            f"{owner_prefix}{i}",
            seed=seed,
            rows=rows_per_party,
            scale_factor=scale_factor,
            jitter=jitter,
            engine=engine,
        )
        for i in range(parties)
    ]


def price_query(k: int, *, smallest: bool = False) -> TopKQuery:
    """The workload's canonical query: top-k of ``l_extendedprice``."""
    return TopKQuery(
        table=TPCH_TABLE,
        attribute=TPCH_ATTRIBUTE,
        k=k,
        domain=TPCH_PRICE_DOMAIN,
        smallest=smallest,
    )
