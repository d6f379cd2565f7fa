"""Pluggable storage engines for the private-database substrate.

Every protocol run begins with each party's node-local extraction step
(Section 3.4: "each node first sorts its values and takes the local set of
topk values").  At the paper's 10k-value scale a Python list-of-dicts row
store is fine; at the millions-of-rows-per-party scale the production
roadmap demands, the per-row scan dominates end-to-end latency.  This
module makes the storage layout a pluggable choice behind one
:class:`StorageEngine` interface:

``row``
    The original list-of-dicts store: every value keeps its exact Python
    object identity, every query is a scalar scan.  The semantic reference
    the other engines are tested against.

``columnar`` (the default)
    Numeric columns live in chunked contiguous numpy arrays, each sealed
    chunk at the narrowest width that reads back exactly (an INTEGER run
    at int8 / int16 / int32 when its range fits, a REAL run of exact
    decimals as 8-, 16- or 32-bit codes over a power of ten, anything else
    at int64 / float64) and decoded to int64 / float64 for every reader.  The
    reads the serving path makes of a column — ``top_k`` / ``bottom_k``
    (``k`` up to :data:`SUMMARY_ROWS`) and ``aggregate`` — are answered
    from one *write-maintained summary* per column: its largest and
    smallest :data:`SUMMARY_ROWS` values, its non-null count and its
    running sum.  The summary is built by one scan on the column's first
    read; tables only append, so after an insert it is folded forward over
    just the new rows on the next read (no chunk is sealed for them and the
    column is never copied), and a spill drops it.  A larger ``k`` and a
    full-column read (``scan``, ``project``) decode the whole column for the
    one read (no copy is kept); the larger ``k`` runs as an ``np.partition``
    kernel over it.  Results are *bit-identical* to the row store: same
    values, same descending order, same tie behavior, same float rounding
    (the running sum follows Python's left-to-right ``sum``).  A column
    whose values cannot be represented losslessly in its typed array (an
    INTEGER outside int64 or of an ``int`` subclass, a non-finite,
    negative-zero or integer-typed value in a REAL column) **spills** the
    whole column to exact object storage and answers through the scalar path — the engine never trades correctness for
    speed, it only accelerates when acceleration is exact.

Rows reach an engine as columns — every schema column, ``None`` for omitted
nullable values — which :class:`~repro.database.table.Table` transposes and
validates before any engine sees them.  Validation, schema checks, and the
``version`` counter stay in ``Table``; engines only hold data and answer
queries.

The module also hosts the extraction telemetry sink: install a callback
with :func:`set_extraction_sink` (or the higher-level
:func:`repro.experiments.telemetry.profile_extraction`) and every node-local
``top_k``/``bottom_k`` reports an :class:`ExtractionSample` with its engine,
row count and wall-clock seconds.  With no sink installed the hot path pays
one module-attribute read.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import ClassVar

import numpy as np

from .schema import Schema

Row = dict[str, object]

__all__ = [
    "AGGREGATES",
    "COLUMNAR",
    "ENGINES",
    "ROW",
    "ColumnarEngine",
    "ExtractionSample",
    "RowStoreEngine",
    "StorageEngine",
    "extraction_sink",
    "make_engine",
    "set_extraction_sink",
]

ROW = "row"
COLUMNAR = "columnar"
#: Engine names accepted by :func:`make_engine` (and everything above it).
ENGINES = (ROW, COLUMNAR)
#: The local aggregates a table answers; ``Table.aggregate`` refuses any
#: other name before an engine sees it.
AGGREGATES = ("max", "min", "sum", "avg", "count")

#: Rows buffered per columnar chunk before the pending tail is sealed into
#: a contiguous array.  Large enough to amortize array construction, small
#: enough that a half-full tail never holds megabytes of boxed values.
CHUNK_ROWS = 1 << 18

#: How many of a numeric column's largest and of its smallest values the
#: write-maintained summary keeps: ``top_k``/``bottom_k`` with ``k`` up to
#: this are read from the summary, a larger ``k`` scans the column.
SUMMARY_ROWS = 64

#: Rows a summary folds per step.  Bounds every temporary of a fold to a
#: cache-sized block, however long the chunk being folded is.
_FOLD_BLOCK = 1 << 14

#: The decimal scales a sealed REAL run is tried at, smallest first: the run
#: is kept as ``rint(v * scale)`` codes only when *every* value reads back
#: ``code / scale == v`` bit for bit.
_SCALES = (1.0, 10.0, 100.0, 1_000.0, 10_000.0)

#: Values of a REAL run probed (strided) to pick its scale before the whole
#: run is verified: a run that is not decimal costs this many values, not a
#: pass.
_PROBE_ROWS = 32

#: The widths a REAL run's codes may take, narrowest first.  int32 codes
#: halve a column of cents (``l_extendedprice``: 8 -> 4 B/row) for a
#: verification pass and a decode in front of each full scan; once a party
#: is sealed block by block the stored bytes *are* a build's peak, so the 4
#: bytes are worth that (``scripts/size_chunk_encoding.py`` prints both
#: sides against a 16-bit cap).  Past int32 a code saves nothing a float64
#: would not.
_CODE_DTYPES = (np.int8, np.int16, np.int32)


# -- extraction telemetry ----------------------------------------------------


@dataclass(frozen=True)
class ExtractionSample:
    """One node-local extraction, as reported to the telemetry sink."""

    engine: str
    table: str
    column: str
    op: str  # "top_k" | "bottom_k"
    rows: int
    k: int
    seconds: float


_EXTRACTION_SINK: Callable[[ExtractionSample], None] | None = None


def set_extraction_sink(
    sink: Callable[[ExtractionSample], None] | None,
) -> Callable[[ExtractionSample], None] | None:
    """Install (or clear, with ``None``) the extraction sink; returns the
    previously installed one so scopes can chain and restore."""
    global _EXTRACTION_SINK
    previous = _EXTRACTION_SINK
    _EXTRACTION_SINK = sink
    return previous


def extraction_sink() -> Callable[[ExtractionSample], None] | None:
    """The currently installed sink (``None`` when telemetry is off)."""
    return _EXTRACTION_SINK


# -- the engine interface ----------------------------------------------------


class StorageEngine(ABC):
    """Storage and query execution for one table's rows.

    The contract is semantic equivalence with :class:`RowStoreEngine` on
    every method: engines may lay data out however they like, but the
    answers — values, order, ties, null handling — must match the row
    store exactly (the parity property suite enforces this).  An engine is
    built from its table's schema and keeps it as ``schema``.  A batch —
    ``Table.insert_arrays``' columns, or ``Table.insert_many``'s rows as one
    list per column — arrives as validated blocks: a canonicalized numpy
    array (no nulls) is handed to :meth:`seal` as it arrives, a Python list
    (possibly with ``None``) makes no call of its own, and one
    :meth:`append_columns` call stores every column's blocks together.
    """

    name: ClassVar[str] = "abstract"
    schema: Schema

    # -- mutation --

    @abstractmethod
    def seal(self, name: str, values: np.ndarray) -> object:
        """One array block of column ``name`` in the form :meth:`append_columns`
        stores.  Changes nothing the engine holds, so a batch abandoned
        after some of its blocks were sealed leaves the rows untouched."""

    @abstractmethod
    def append_columns(self, sealed: dict[str, list], count: int) -> None:
        """Append a batch: for every schema column, its blocks in order (a
        list as passed, an array as :meth:`seal` returned it), ``count`` rows
        in all.  All or nothing: it cannot fail part way."""

    # -- full-row access --

    @abstractmethod
    def __len__(self) -> int: ...

    @property
    def nbytes(self) -> int | None:
        """Bytes of array storage held for the rows — sealed chunks at the
        width they are stored at, validity masks and summaries; boxed
        Python values (a pending tail, TEXT, a spilled column) are not
        counted — or ``None`` from an engine that cannot say."""
        return None

    @abstractmethod
    def rows(self) -> list[Row]:
        """Every row as a fresh dict copy, in insertion order."""

    @abstractmethod
    def column_values(self, name: str) -> list[object]:
        """One column's values (``None`` included), in insertion order."""

    # -- queries --

    @abstractmethod
    def top_k(self, name: str, k: int) -> list:
        """Largest ``k`` non-null values, descending."""

    @abstractmethod
    def bottom_k(self, name: str, k: int) -> list:
        """Smallest ``k`` non-null values, ascending."""

    @abstractmethod
    def aggregate(self, name: str, func: str) -> float | None:
        """``max``/``min``/``sum``/``avg`` over non-null values (``None``
        when the column has none), or ``count`` of non-null values.
        ``func`` is one of :data:`AGGREGATES`."""


# -- shared scalar kernels (the row store's semantics, reused by spills) -----


def _scalar_aggregate(values: list, func: str) -> float | None:
    """The row store's aggregate semantics over already-extracted values."""
    if func == "count":
        return float(len(values))
    if not values:
        return None
    if func == "max":
        return max(values)
    if func == "min":
        return min(values)
    total = float(sum(values))
    return total if func == "sum" else total / len(values)


# -- the row store -----------------------------------------------------------


class RowStoreEngine(StorageEngine):
    """The original list-of-dicts store: exact objects, scalar scans."""

    name = "row"

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._rows: list[Row] = []

    def seal(self, name: str, values: np.ndarray) -> list:
        return values.tolist()

    def append_columns(self, sealed: dict[str, list], count: int) -> None:
        names = self.schema.names
        columns = [chain.from_iterable(sealed[name]) for name in names]
        self._rows.extend(dict(zip(names, values)) for values in zip(*columns))

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> list[Row]:
        return [dict(r) for r in self._rows]

    def column_values(self, name: str) -> list[object]:
        return [r.get(name) for r in self._rows]

    def _present(self, name: str) -> list:
        return [v for v in self.column_values(name) if v is not None]

    def top_k(self, name: str, k: int) -> list:
        return heapq.nlargest(k, self._present(name))

    def bottom_k(self, name: str, k: int) -> list:
        return heapq.nsmallest(k, self._present(name))

    def aggregate(self, name: str, func: str) -> float | None:
        return _scalar_aggregate(self._present(name), func)


# -- the columnar engine -----------------------------------------------------


class _ObjectColumn:
    """TEXT column: a plain value list, ``exact`` as a spilled column's."""

    def __init__(self) -> None:
        self.exact: list[object] = []

    def all_values(self) -> list[object]:
        return list(self.exact)


def _largest(values: np.ndarray, k: int) -> np.ndarray:
    """The largest ``k`` of ``values`` as a fresh array, ascending."""
    if k < values.size:
        values = np.partition(values, values.size - k)[values.size - k :]
    return np.sort(values)


def _smallest(values: np.ndarray, k: int) -> np.ndarray:
    """The smallest ``k`` of ``values`` as a fresh array, ascending."""
    if k < values.size:
        values = np.partition(values, k - 1)[:k]
    return np.sort(values)


def _int_sum(values: np.ndarray) -> int:
    """The exact sum of a non-empty int64 array, as a Python int.

    An int64 reduction equals the arbitrary-precision sum whenever it
    cannot wrap, which the magnitude guard proves; otherwise the values
    are summed as Python ints.
    """
    bound = max(abs(int(values.max())), abs(int(values.min())))
    if bound and values.size > (2**62) // bound:
        return sum(values.tolist())
    return int(values.sum(dtype=np.int64))


def _reals_representable(values: np.ndarray) -> bool:
    """:meth:`_NumericColumn._representable` for a whole float64 array.

    Three reductions and no temporary: ``min`` and ``max`` propagate a NaN
    and surface an infinity, and ``-0.0`` is the one double whose bit
    pattern reads as the smallest int64.
    """
    if not values.size:
        return True
    return (
        math.isfinite(values.min())
        and math.isfinite(values.max())
        and int(values.view(np.int64).min()) != np.iinfo(np.int64).min
    )


class _ColumnSummary:
    """What the serving reads ask of a vectorized column, kept exact.

    ``largest`` and ``smallest`` hold the (up to) :data:`SUMMARY_ROWS` most
    extreme non-null values, both ascending, and ``count`` the non-null
    rows.  ``total`` is their sum under the row store's own recurrence — an
    exact Python int for int64, and for float64 the left-to-right running
    sum Python's ``sum`` computes, which ``np.cumsum`` reproduces bit for
    bit when each block's accumulation starts from the total carried in.
    That recurrence is serial (about twice the cost of everything else
    here), so ``total`` stays ``None`` until a SUM or AVG first asks for
    it and is carried forward from then on.  Tables only append, so
    folding new rows in is all it takes to keep every field equal to what
    a full scan would compute.
    """

    __slots__ = ("count", "largest", "smallest", "total")

    def __init__(self, dtype: "np.dtype") -> None:
        self.count = 0
        self.total: int | float | None = None
        self.largest = self.smallest = np.empty(0, dtype=dtype)

    def fold(self, block: np.ndarray) -> None:
        """Fold in the next non-null values, in insertion order."""
        if self.total is not None:
            self._add(block)
        # Once SUMMARY_ROWS values are held, only a value beyond the
        # current cut-off can change either end (a tie cannot).
        full = self.count >= SUMMARY_ROWS
        above = block[block > self.largest[0]] if full else block
        if above.size:
            self.largest = _largest(
                np.concatenate((self.largest, above)), SUMMARY_ROWS
            )
        below = block[block < self.smallest[-1]] if full else block
        if below.size:
            self.smallest = _smallest(
                np.concatenate((self.smallest, below)), SUMMARY_ROWS
            )
        self.count += block.size

    def start_total(self, blocks: "Iterable[np.ndarray]") -> None:
        """Sum every value folded so far, handed over again in order."""
        self.total = 0 if self.largest.dtype.kind == "i" else 0.0
        for block in blocks:
            self._add(block)

    def _add(self, block: np.ndarray) -> None:
        if block.dtype.kind == "i":
            self.total += _int_sum(block)
            return
        # A sum past the largest double is ``inf``, as Python's ``sum``
        # gives it on the row store, without numpy's overflow warning.
        with np.errstate(over="ignore"):
            self.total = float(
                np.cumsum(np.concatenate(([self.total], block)))[-1]
            )

    def aggregate(self, func: str) -> float | None:
        """:func:`_scalar_aggregate` of the summarized values: ``max`` /
        ``min`` keep the row store's type (``item()`` gives a Python int
        for int64), ``sum`` / ``avg`` read the running total."""
        if func == "count":
            return float(self.count)
        if self.count == 0:
            return None
        if func == "max":
            return self.largest[-1].item()
        if func == "min":
            return self.smallest[0].item()
        total = float(self.total)
        return total if func == "sum" else total / self.count


class _SealedRun:
    """A sealed run of one numeric column, at its narrowest exact width.

    ``codes`` is an array the engine owns (C-contiguous, never aliased by
    a caller who can still write to it).  With ``scale`` ``None`` the codes
    *are* the values: an INTEGER run at the narrowest of int8 / int16 /
    int32 / int64 that holds its minimum and maximum, or a REAL run as
    float64.  Otherwise the run is REAL and its values are ``codes /
    scale`` — int8, int16 or int32 codes, the narrowest that holds them —
    which :func:`_decimal_codes` has checked for every value.  The width is
    a function of the values alone; canonical width is simply the widest
    encoding, and :meth:`decode` is the only way to read a run.  A column
    inserted in blocks holds a run per block.
    """

    __slots__ = ("codes", "scale")

    def __init__(self, codes: np.ndarray, scale: float | None = None) -> None:
        self.codes = codes
        self.scale = scale

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def encoding(self) -> str:
        """``int8``, ``float64``, or ``int8/100`` for decimal codes."""
        name = self.codes.dtype.name
        return name if self.scale is None else f"{name}/{self.scale:g}"

    def decode(self, low: int = 0, high: int | None = None) -> np.ndarray:
        """Rows ``low:high`` in the column's canonical int64 / float64."""
        codes = self.codes[low:high]
        if self.scale is None:
            canonical = np.int64 if codes.dtype.kind == "i" else np.float64
            return codes.astype(canonical, copy=False)
        values = codes.astype(np.float64)
        values /= self.scale
        return values


def _narrowest(dtypes: Sequence[type], low: float, high: float) -> type | None:
    """The first of ``dtypes`` (narrowest first) that holds ``[low, high]``."""
    for dtype in dtypes:
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return dtype
    return None


def _narrowed_ints(values: np.ndarray) -> _SealedRun | None:
    """A non-empty int64 run in the narrowest dtype holding its range, or
    ``None`` when only int64 does."""
    width = _narrowest(
        (np.int8, np.int16, np.int32), int(values.min()), int(values.max())
    )
    return None if width is None else _SealedRun(values.astype(width))


def _decimal_codes(values: np.ndarray) -> _SealedRun | None:
    """A non-empty float64 run as integer codes over a power of ten such
    that ``codes / scale`` is the run bit for bit, or ``None`` when no scale
    of the ladder gives codes of an allowed width that do.

    The scale is picked on a strided probe and then verified on every value
    of the run — no sampling stands in for that pass — in
    :data:`_FOLD_BLOCK` blocks over preallocated scratch.  The values are
    finite and never ``-0.0`` (the callers' representability checks), so
    ``==`` is bit equality here.
    """
    limit = np.iinfo(_CODE_DTYPES[-1]).max
    probe = values[:: -(-values.size // _PROBE_ROWS)]
    if float(np.abs(probe).max()) > limit:
        return None  # |code| >= |value| at every scale
    for scale in _SCALES:
        rounded = np.rint(probe * scale)
        if (np.abs(rounded) <= limit).all() and (rounded / scale == probe).all():
            break
    else:
        return None
    codes = np.empty(values.size, dtype=_CODE_DTYPES[-1])
    scratch = np.empty(min(values.size, _FOLD_BLOCK))
    same = np.empty(scratch.size, dtype=bool)
    bound = 0.0
    # A huge value outside the probe overflows the multiply to inf, which
    # the range check then refuses like any other code that does not fit.
    with np.errstate(over="ignore"):
        for low in range(0, values.size, _FOLD_BLOCK):
            block = values[low : low + _FOLD_BLOCK]
            work = scratch[: block.size]
            np.multiply(block, scale, out=work)
            np.rint(work, out=work)
            bound = max(bound, float(work.max()), -float(work.min()))
            if bound > limit:
                return None
            codes[low : low + block.size] = work
            # Dividing the float scratch, not the int codes: int / float
            # is the slow ufunc loop.  Both hold the same integers (but for
            # a -0.0, the code of a value in (-0.5 / scale, 0): no match).
            np.divide(work, scale, out=work)
            if not np.equal(work, block, out=same[: block.size]).all():
                return None
    width = _narrowest(_CODE_DTYPES, -bound, bound)
    return _SealedRun(codes.astype(width, copy=False), scale)


def _seal(values: np.ndarray) -> _SealedRun:
    """Seal a canonical-dtype run into a chunk the engine owns.

    A narrowed or coded run is a fresh array by construction.  A run kept
    at canonical width is adopted when the array owns its data and is
    C-contiguous — and marked read-only, so a later write through the
    caller's reference raises instead of changing a stored row — and is
    copied otherwise (a view would pin its base, a strided one would also
    make every scan walk a non-contiguous array).
    """
    if values.size:
        encode = _narrowed_ints if values.dtype.kind == "i" else _decimal_codes
        run = encode(values)
        if run is not None:
            return run
    if values.flags.owndata and values.flags.c_contiguous:
        values.setflags(write=False)
        return _SealedRun(values)
    return _SealedRun(values.copy())


class _NumericColumn:
    """One numeric column: chunked typed arrays with an exactness escape.

    Values accumulate in a Python ``pending`` tail and are sealed into
    :class:`_SealedRun` chunks — stored at the narrowest width that reads
    back exactly, decoded to ``dtype`` (int64 for INTEGER, float64 for
    REAL) for every reader — with parallel validity masks once nulls
    appear.  If any value cannot be
    represented losslessly — an INTEGER outside int64 or of an ``int``
    subclass, a REAL column fed a non-finite float, ``-0.0``, or a Python
    ``int`` (whose *type* the row store would preserve) — the entire column
    spills to ``exact`` object
    storage and every query takes the scalar path.  Spilling is one-way and
    loses no data: correctness never depends on the fast path being
    available.

    A vectorized column answers ``top_k`` / ``bottom_k`` (``k`` up to
    :data:`SUMMARY_ROWS`) and ``aggregate`` from one
    :class:`_ColumnSummary`.  :meth:`summary` builds it with a single scan
    on the column's first such read and from then on folds forward only
    the rows appended since (``_folded`` is the cursor), reading a row
    still in the ``pending`` tail where it lies: a read after an insert
    seals no chunk and copies no column.  Sealing moves rows from the tail
    into a chunk without reordering them, so the cursor survives it; a
    spill drops the summary with the arrays.
    """

    __slots__ = (
        "dtype", "pending", "chunks", "masks", "exact", "_sealed", "_summary",
        "_folded",
    )

    def __init__(self, dtype: "np.dtype") -> None:
        self.dtype = dtype
        self.pending: list[object] = []
        self.chunks: list[_SealedRun] = []
        #: Parallel to ``chunks`` once any null has been seen, else None.
        self.masks: list[np.ndarray] | None = None
        #: Exact object storage after a spill (None while vectorized).
        self.exact: list[object] | None = None
        #: Rows held in ``chunks``.
        self._sealed = 0
        self._summary: _ColumnSummary | None = None
        #: Leading rows (chunks first, then ``pending``) ``_summary`` covers.
        self._folded = 0

    # -- ingestion --

    def _representable(self, value: object) -> bool:
        if self.dtype.kind == "i":
            # An int subclass (an IntEnum member) would read back as a
            # plain int: a type change the row store would not make.
            return type(value) is int and -(2**63) <= value <= 2**63 - 1
        # float64 column: Python floats are IEEE doubles, so any finite
        # float round-trips exactly; ints would come back as floats (a
        # type change the row store would not make), non-finite values
        # would change sort order under np.sort (NaN sorts last), and
        # -0.0 == 0.0 lets a sort or a min pick the other zero than the
        # row store's first-seen one (and 0 + -0.0 is 0.0 in Python's sum).
        return (
            isinstance(value, float)
            and math.isfinite(value)
            and (value != 0.0 or math.copysign(1.0, value) > 0.0)
        )

    def append_run(self, run: _SealedRun) -> None:
        """Bulk path: a run :func:`_seal` sealed from a null-free array
        while the column was not spilled."""
        self._flush()  # sealing the pending tail may itself spill
        if self.exact is not None:  # it did: the run was sealed before that
            self.exact.extend(run.decode().tolist())
            return
        self.chunks.append(run)
        self._sealed += len(run)
        if self.masks is not None:
            self.masks.append(np.ones(len(run), dtype=bool))

    def _flush(self) -> None:
        if not self.pending:
            return
        batch, self.pending = self.pending, []
        present = [v for v in batch if v is not None]
        if not all(self._representable(v) for v in present):
            self._spill(batch)
            return
        has_nulls = len(present) != len(batch)
        if has_nulls and self.masks is None:
            # Backfill all-valid masks for the chunks sealed before the
            # first null arrived.
            self.masks = [np.ones(len(c), dtype=bool) for c in self.chunks]
        if has_nulls:
            values = np.array(
                [0 if v is None else v for v in batch], dtype=self.dtype
            )
        else:
            values = np.array(batch, dtype=self.dtype)
        self.chunks.append(_seal(values))
        self._sealed += len(values)
        if self.masks is not None:
            self.masks.append(np.array([v is not None for v in batch], dtype=bool))

    def _spill(self, tail: Sequence[object]) -> None:
        exact: list[object] = []
        for index, chunk in enumerate(self.chunks):
            values = chunk.decode().tolist()
            if self.masks is not None:
                mask = self.masks[index]
                values = [
                    v if ok else None for v, ok in zip(values, mask.tolist())
                ]
            exact.extend(values)
        exact.extend(tail)
        self.exact = exact
        self.chunks = []
        self.masks = None
        self._summary = None

    # -- access --

    def __len__(self) -> int:
        if self.exact is not None:
            return len(self.exact)
        return self._sealed + len(self.pending)

    @property
    def nbytes(self) -> int:
        """Array bytes held: sealed codes, validity masks and the summary."""
        arrays = [chunk.codes for chunk in self.chunks] + (self.masks or [])
        if self._summary is not None:
            arrays += [self._summary.largest, self._summary.smallest]
        return sum(array.nbytes for array in arrays)

    def storage(self) -> list[object] | None:
        """Settle the pending tail; the exact list if spilled, else None.

        The scan paths call this first: the spill decision is made lazily
        at flush time, so only after flushing is ``exact`` authoritative.
        (:meth:`summary` settles it without flushing.)
        """
        if self.exact is None and self.pending:
            self._flush()
        return self.exact

    def summary(self, with_total: bool = False) -> _ColumnSummary | None:
        """The summary, current to the last appended row; None once spilled.

        The spill decision for rows still pending is made here, value by
        value, exactly as sealing them would make it.
        """
        if self.exact is not None:
            return None
        if self._summary is None:
            self._summary = _ColumnSummary(self.dtype)
        summary = self._summary
        if self._folded < len(self):
            tail = self.pending[max(self._folded - self._sealed, 0) :]
            if not all(v is None or self._representable(v) for v in tail):
                self._flush()  # spills the column and, with it, the summary
                return None
            for block in self._blocks_from(self._folded):
                summary.fold(block)
            self._folded = len(self)
        if with_total and summary.total is None:
            summary.start_total(self._blocks_from(0))
        return summary

    def _blocks_from(self, start: int) -> Iterator[np.ndarray]:
        """Non-null values of rows ``start``.. in insertion order, in blocks.

        Sealed rows come at most :data:`_FOLD_BLOCK` at a time, so no
        temporary of a fold grows with the chunk; the caller has checked
        that the pending rows among them are representable.
        """
        tail_start = max(start - self._sealed, 0)
        if start < self._sealed:
            for index, chunk in enumerate(self.chunks):
                if start >= len(chunk):
                    start -= len(chunk)
                    continue
                valid = self.masks[index] if self.masks is not None else None
                for low in range(start, len(chunk), _FOLD_BLOCK):
                    block = chunk.decode(low, low + _FOLD_BLOCK)
                    if valid is not None:
                        block = block[valid[low : low + _FOLD_BLOCK]]
                    if block.size:
                        yield block
                start = 0
        present = [v for v in self.pending[tail_start:] if v is not None]
        if present:
            yield np.array(present, dtype=self.dtype)

    def materialize(self) -> tuple[np.ndarray, np.ndarray | None]:
        """One contiguous canonical-dtype (values, validity-mask-or-None).

        Decodes the chunks for the caller's one read and keeps nothing: the
        column holds its codes and summary only, never a decoded copy.
        Callers must hold ``exact is None``.
        """
        self._flush()
        if self.exact is not None:  # the flush itself may have spilled
            raise RuntimeError("materialize() on a spilled column")
        if not self.chunks:
            values = np.empty(0, dtype=self.dtype)
            mask = None
        elif len(self.chunks) == 1:
            values = self.chunks[0].decode()
            mask = self.masks[0] if self.masks is not None else None
        else:
            # Decoded a chunk at a time into the one array a reader gets.
            values = np.empty(self._sealed, dtype=self.dtype)
            low = 0
            for chunk in self.chunks:
                values[low : low + len(chunk)] = chunk.decode()
                low += len(chunk)
            mask = (
                np.concatenate(self.masks) if self.masks is not None else None
            )
        if mask is not None and bool(mask.all()):
            mask = None
        return values, mask

    def valid_values(self) -> np.ndarray:
        values, mask = self.materialize()
        return values if mask is None else values[mask]

    def all_values(self) -> list[object]:
        exact = self.storage()
        if exact is not None:
            return list(exact)
        values, mask = self.materialize()
        out = values.tolist()
        if mask is not None:
            out = [v if ok else None for v, ok in zip(out, mask.tolist())]
        return out


class ColumnarEngine(StorageEngine):
    """Chunked numpy columns; top-k, bottom-k and aggregates from column
    summaries, a larger ``k`` and full-column reads as partition kernels
    over the decoded column.

    An engine that holds no rows holds no column objects either: the first
    batch builds them (``_columns`` is ``None`` until then), and every read
    of an engine without them answers from the schema -- nothing, ``None``
    or a count of ``0.0`` -- and builds none.  A party holds every table of
    its federation, most of them empty on a sharded layout's flat oracle.
    """

    name = "columnar"

    #: A numeric column's dtype, built once rather than once per column.
    _DTYPES = {"INTEGER": np.dtype(np.int64), "REAL": np.dtype(np.float64)}

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._columns: dict[str, _NumericColumn | _ObjectColumn] | None = None
        self._count = 0

    def seal(self, name: str, values: np.ndarray) -> "_SealedRun | list":
        # Only a numeric column is handed an array.  A column already
        # spilled stores Python objects: no run to encode, no array to adopt.
        # No column is built yet, so none can have spilled.
        columns = self._columns
        if columns is not None and columns[name].exact is not None:
            return values.tolist()
        return _seal(values)

    def append_columns(self, sealed: dict[str, list], count: int) -> None:
        columns = self._columns
        if columns is None:
            # Built here, by the first batch, and in line: a loop, not a
            # comprehension or a helper, whose own frame would cost more
            # than a one-column table's build.
            dtypes = self._DTYPES
            columns = self._columns = {}
            for declared in self.schema.columns:
                dtype = dtypes.get(declared.type)
                columns[declared.name] = (
                    _ObjectColumn() if dtype is None else _NumericColumn(dtype)
                )
        for name, column in columns.items():
            for data in sealed[name]:
                if type(data) is not list:
                    column.append_run(data)
                elif column.exact is not None:  # TEXT, or a spilled column
                    column.exact += data
                else:
                    # A list joins the pending tail (copied); a full one seals.
                    column.pending += data
                    if len(column.pending) >= CHUNK_ROWS:
                        column._flush()
        self._count += count

    def __len__(self) -> int:
        return self._count

    @property
    def nbytes(self) -> int:
        if self._columns is None:
            return 0
        return sum(
            column.nbytes
            for column in self._columns.values()
            if isinstance(column, _NumericColumn)
        )

    def encodings(self) -> dict[str, str]:
        """How each numeric column's sealed runs are stored, in first-seen
        order: ``int32``, ``int8/100`` (decimal codes over their scale),
        ``int8+int64`` for runs of different widths; ``""`` for none."""
        if self._columns is None:
            return {c.name: "" for c in self.schema.columns if c.is_numeric}
        return {
            name: "+".join(dict.fromkeys(c.encoding for c in column.chunks))
            for name, column in self._columns.items()
            if isinstance(column, _NumericColumn)
        }

    def rows(self) -> list[Row]:
        if self._columns is None:
            return []
        names = self.schema.names
        columns = [self._columns[name].all_values() for name in names]
        return [dict(zip(names, values)) for values in zip(*columns)]

    def column_values(self, name: str) -> list[object]:
        if self._columns is None:
            return []
        return self._columns[name].all_values()

    def _numeric(self, name: str) -> _NumericColumn:
        column = self._columns[name]
        assert isinstance(column, _NumericColumn)  # Table checked the schema
        return column

    def _to_list(self, values: np.ndarray) -> list:
        # int64 -> Python int, float64 -> Python float: exactly the types
        # the row store holds for vectorizable columns.
        return values.tolist()

    def top_k(self, name: str, k: int) -> list:
        if self._columns is None:
            return []
        column = self._numeric(name)
        summary = column.summary() if k <= SUMMARY_ROWS else None
        if summary is not None:
            return self._to_list(summary.largest[::-1][:k])
        exact = column.storage()
        if exact is not None:
            return heapq.nlargest(k, [v for v in exact if v is not None])
        return self.top_k_array(column.valid_values(), k)

    def bottom_k(self, name: str, k: int) -> list:
        if self._columns is None:
            return []
        column = self._numeric(name)
        summary = column.summary() if k <= SUMMARY_ROWS else None
        if summary is not None:
            return self._to_list(summary.smallest[:k])
        exact = column.storage()
        if exact is not None:
            return heapq.nsmallest(k, [v for v in exact if v is not None])
        return self.bottom_k_array(column.valid_values(), k)

    def aggregate(self, name: str, func: str) -> float | None:
        if self._columns is None:
            return _scalar_aggregate([], func)
        column = self._numeric(name)
        summary = column.summary(with_total=func in ("sum", "avg"))
        if summary is not None:
            return summary.aggregate(func)
        return _scalar_aggregate(
            [v for v in column.exact if v is not None], func
        )

    # -- array kernels (the k > SUMMARY_ROWS reads) --

    def top_k_array(self, values: np.ndarray, k: int) -> list:
        """Largest ``k`` of an already-extracted value array, descending."""
        return self._to_list(_largest(values, k)[::-1])

    def bottom_k_array(self, values: np.ndarray, k: int) -> list:
        """Smallest ``k`` of an already-extracted value array, ascending."""
        return self._to_list(_smallest(values, k))


# -- engine construction -----------------------------------------------------

_ENGINE_CLASSES: dict[str, type[StorageEngine]] = {
    ROW: RowStoreEngine,
    COLUMNAR: ColumnarEngine,
}

def make_engine(
    spec: "str | Callable[[Schema], StorageEngine]", schema: Schema
) -> StorageEngine:
    """Build a fresh engine for one table from a name or a factory.

    A factory callable is accepted wherever an engine name is: it receives
    the schema and must return a fresh, empty engine.  (A table given no
    engine builds a :class:`ColumnarEngine` itself.)
    """
    if isinstance(spec, str):
        if spec in _ENGINE_CLASSES:
            return _ENGINE_CLASSES[spec](schema)
    elif callable(spec):
        engine = spec(schema)
        if not isinstance(engine, StorageEngine):
            raise TypeError(
                f"engine factory returned {type(engine).__name__}, "
                "not a StorageEngine"
            )
        return engine
    raise ValueError(
        f"unknown storage engine {spec!r}; expected one of {ENGINES} "
        "or a factory callable"
    )
