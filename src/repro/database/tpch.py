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
generation is vectorized numpy streamed a block of rows at a time into
:meth:`Table.insert_arrays`, so a scale-factor-1 party (6M rows) builds in
seconds rather than minutes, and never holds a full-width column.
"""

from __future__ import annotations

import copy
import hashlib
from collections.abc import Iterator

import numpy as np

from .database import PrivateDatabase
from .engines import CHUNK_ROWS
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
) -> Iterator[tuple[str, Iterator[np.ndarray]]]:
    """One party's lineitem columns as ``(name, blocks)`` pairs.

    Columns come in schema order, each an iterator of canonical numpy
    blocks of at most :data:`CHUNK_ROWS` rows (a 0-row column is one empty
    block), every block drawn only when asked for: a consumer that stores
    each block before asking for the next (:meth:`Table.insert_arrays`)
    never holds a full-width column.  All blocks come from the party's one
    stream, so a column must be drawn to its end before the next pair is
    asked for.  The arguments are checked here, at the call, not at the
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
) -> Iterator[tuple[str, Iterator[np.ndarray]]]:
    # Drawn in this order from the one stream (the pinned output depends on
    # it): every column's rows, then the next column's.  Integer draws made
    # a block at a time continue the stream exactly where one draw would.
    # A price needs its row's unit price *and* factor, drawn ``rows`` doubles
    # apart, so the factors come from a copy of the stream advanced past the
    # unit prices (one step per double); that copy is then where the
    # discounts continue.
    sizes = [min(CHUNK_ROWS, rows - low) for low in range(0, rows, CHUNK_ROWS)] or [0]
    yield "l_orderkey", (
        rng.integers(1, LINEITEM_ROWS_PER_SF * 4, size=n, dtype=np.int64)
        for n in sizes
    )
    yield "l_partkey", (
        rng.integers(1, 200_001, size=n, dtype=np.int64) for n in sizes
    )
    quantities: list[np.ndarray] = []
    yield "l_quantity", _quantities(rng, sizes, quantities)
    factors = copy.deepcopy(rng)
    factors.bit_generator.advance(rows)
    yield "l_extendedprice", _prices(rng, factors, quantities, jitter)
    del quantities
    yield "l_discount", _cents(factors, 0.10, sizes)
    yield "l_tax", _cents(factors, 0.08, sizes)


def _quantities(
    rng: np.random.Generator, sizes: list[int], kept: list[np.ndarray]
) -> Iterator[np.ndarray]:
    """Quantity blocks, each also kept as int8 (1 B/row) for the price."""
    for n in sizes:
        quantity = rng.integers(
            _QUANTITY_LOW, _QUANTITY_HIGH + 1, size=n, dtype=np.int64
        )
        kept.append(quantity.astype(np.int8))
        yield quantity
        del quantity


def _prices(
    unit_prices: np.random.Generator,
    factors: np.random.Generator,
    quantities: list[np.ndarray],
    jitter: float,
) -> Iterator[np.ndarray]:
    """``quantity x unit price x factor`` in cents, a block at a time and
    in place: a block's worst moment is two block-sized arrays."""
    for quantity in quantities:
        price = unit_prices.uniform(
            _UNIT_PRICE_LOW, _UNIT_PRICE_HIGH, size=quantity.size
        )
        factor = factors.uniform(1.0 - jitter, 1.0 + jitter, size=quantity.size)
        np.multiply(quantity, price, out=price)
        np.multiply(price, factor, out=price)
        del factor
        yield np.round(price, 2, out=price)
        del price


def _cents(
    rng: np.random.Generator, high: float, sizes: list[int]
) -> Iterator[np.ndarray]:
    """Blocks of rates uniform in ``[0, high)``, rounded to cents."""
    for n in sizes:
        rate = rng.uniform(0.0, high, size=n)
        yield np.round(rate, 2, out=rate)
        del rate


def _gathered(blocks: Iterator[np.ndarray], rows: int) -> np.ndarray:
    """A column drawn in blocks as one array: its one block as it is, or
    each block written into one preallocated array as it arrives (never
    the blocks beside their concatenation)."""
    column = next(blocks)
    if column.size < rows:
        first, column = column, np.empty(rows, dtype=column.dtype)
        column[: first.size] = first
        low = first.size
        del first
        for block in blocks:
            column[low : low + block.size] = block
            low += block.size
            del block
    return column


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
    return {
        name: _gathered(blocks, rows)
        for name, blocks in _lineitem_columns(rows, seed, party, jitter)
    }


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
