"""The ``ColumnSource`` protocol — one scan surface over every backend.

A source presents a table as an ordered list of **granules** (the
morsels of morsel-driven execution: a row group, a column-aligned chunk,
an in-memory slice) and answers three calls per granule:

* :meth:`ColumnSource.bounds` — conservative ``(zmin, zmax)`` value
  bounds for one column, or ``None`` when unknown.  Never decodes; the
  executor uses it for zone-map pruning.
* :meth:`ColumnSource.load` — the encoded sequence of one column
  restricted to the granule, charging the supplied
  :class:`~repro.exec.run.ExecStats` for bytes touched/read.  The
  returned object speaks the sequence protocol the executor needs:
  ``filter_range(lo, hi)``, ``gather(positions)``, ``decode_all()``.
* :attr:`ColumnSource.parallel_safe` — whether granules may be executed
  concurrently (sources with unlocked accounting state say ``False``
  and the executor stays on one thread).

A source may additionally implement ``implicit_filter()`` returning a
positional :class:`~repro.exec.expr.Bitmap` (or ``None``): the executor
ANDs it into every plan's predicate.  This is how a mutated store
table's deletion vectors suppress dead rows through the ordinary
expression machinery — all-dead granules prune like any bitmap, masked
rows are charged to ``ExecStats.rows_masked``, and no operator had to
learn about deletes.

Implementations in the tree:

* :class:`repro.engine.parquet.ParquetSource` — row-grouped in-memory
  files with simulated I/O charging;
* :class:`repro.store.executor.StoreSource` — the persistent sharded
  store (mmap + zone maps + chunk cache);
* :class:`ArraySource` (here) — plain in-memory columns, the zero-cost
  backend for joins over transient data and for tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Granule:
    """One morsel of a source: ``n_rows`` rows starting at global
    ``row_start``.  ``index`` is the source-local ordinal."""

    index: int
    row_start: int
    n_rows: int


class ColumnSource(ABC):
    """Abstract base documenting the protocol (duck typing suffices)."""

    #: may granules run concurrently on the executor's thread pool?
    parallel_safe: bool = True

    @property
    @abstractmethod
    def column_names(self) -> tuple:
        """All column names, in schema order."""

    @property
    @abstractmethod
    def n_rows(self) -> int: ...

    @abstractmethod
    def granules(self) -> tuple:
        """The ordered morsel list (:class:`Granule` instances)."""

    @abstractmethod
    def bounds(self, granule: Granule, column: str):
        """Zone map for one column of one granule, or ``None``."""

    @abstractmethod
    def load(self, granule: Granule, column: str, stats):
        """Sequence for one column of one granule, charging ``stats``."""

    def describe(self) -> str:
        """One-line label for ``explain()`` output."""
        return type(self).__name__

    def implicit_filter(self):
        """Source-implied positional ``Bitmap`` term, or ``None``."""
        return None


class ChainSource(ColumnSource):
    """Row-wise concatenation of sources sharing one schema.

    The mutation layer's read-your-writes view: the published snapshot
    (a ``StoreSource``) chained with the in-memory memtable tail (an
    ``ArraySource``).  Granules are the children's granules re-offset to
    global row coordinates; children's implicit bitmap filters — and an
    optional caller-supplied global ``live_mask`` (pending, uncommitted
    deletes) — compose into one implicit :class:`Bitmap` term.
    """

    def __init__(self, sources, live_mask=None, name: str | None = None):
        sources = tuple(sources)
        if not sources:
            raise ValueError("ChainSource needs at least one source")
        names = tuple(sources[0].column_names)
        for src in sources[1:]:
            if tuple(src.column_names) != names:
                raise ValueError(
                    f"chained source {src.describe()!r} columns "
                    f"{tuple(src.column_names)} do not match {names}")
        self._sources = sources
        self._names = names
        self._name = name
        self.parallel_safe = all(
            getattr(s, "parallel_safe", True) for s in sources)
        self._offsets = []
        self._granules: list[Granule] = []
        self._children: list[tuple[ColumnSource, Granule]] = []
        offset = 0
        for src in sources:
            self._offsets.append(offset)
            for g in src.granules():
                self._granules.append(Granule(
                    len(self._granules), offset + g.row_start, g.n_rows))
                self._children.append((src, g))
            offset += src.n_rows
        self._n = offset
        if live_mask is not None:
            live_mask = np.asarray(live_mask, dtype=bool)
            if len(live_mask) != self._n:
                raise ValueError(
                    f"live mask covers {len(live_mask)} rows, chain "
                    f"holds {self._n}")
        self._live_mask = live_mask

    @property
    def column_names(self) -> tuple:
        return self._names

    @property
    def n_rows(self) -> int:
        return self._n

    def granules(self) -> tuple:
        return tuple(self._granules)

    def bounds(self, granule: Granule, column: str):
        src, child = self._children[granule.index]
        return src.bounds(child, column)

    def load(self, granule: Granule, column: str, stats):
        src, child = self._children[granule.index]
        return src.load(child, column, stats)

    def implicit_filter(self):
        masks = []
        for src, offset in zip(self._sources, self._offsets):
            # same optional-hook probe the executor uses: duck-typed
            # sources need not implement the method at all
            hook = getattr(src, "implicit_filter", None)
            term = hook() if callable(hook) else None
            if term is not None:
                masks.append((offset, src.n_rows, term.bitmap))
        if not masks and self._live_mask is None:
            return None
        from repro.exec.expr import Bitmap

        combined = np.ones(self._n, dtype=bool) \
            if self._live_mask is None else self._live_mask.copy()
        for offset, n, bitmap in masks:
            combined[offset: offset + n] &= bitmap
        return Bitmap(combined)

    def describe(self) -> str:
        if self._name:
            return self._name
        return " + ".join(s.describe() for s in self._sources)


class _SliceView:
    """Granule-local view of an ndarray or an encoded sequence."""

    def __init__(self, backing, start: int, n: int):
        self._backing = backing
        self._start = start
        self._n = n

    def __len__(self) -> int:
        return self._n

    def _values(self) -> np.ndarray:
        if isinstance(self._backing, np.ndarray):
            return self._backing[self._start: self._start + self._n]
        return self._backing.decode_all()[self._start:
                                          self._start + self._n]

    def decode_all(self) -> np.ndarray:
        return np.asarray(self._values(), dtype=np.int64)

    def gather(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        if isinstance(self._backing, np.ndarray):
            return self._backing[self._start + positions]
        return self._backing.gather(positions + self._start)

    def filter_range(self, lo: int, hi: int) -> np.ndarray:
        if not isinstance(self._backing, np.ndarray) and \
                self._start == 0 and self._n == len(self._backing):
            # whole-sequence view: let the codec prune internally
            return self._backing.filter_range(lo, hi)
        values = self._values()
        return (values >= lo) & (values < hi)


class ArraySource(ColumnSource):
    """In-memory columns (ndarrays or encoded sequences) as a source.

    ``morsel_rows`` slices the table into fixed-size granules (``None``
    = one granule).  For ndarray columns, per-granule min/max zone maps
    are precomputed; sequence-backed columns report ``model_bounds()``
    where the codec exposes it.  ``execute(prune=False)`` is the way to
    run unpruned.
    """

    parallel_safe = True

    def __init__(self, columns: dict, morsel_rows: int | None = None,
                 name: str = "memory"):
        if not columns:
            raise ValueError("ArraySource needs at least one column")
        self._columns = {}
        n = None
        for cname, backing in columns.items():
            if isinstance(backing, (list, tuple)):
                backing = np.asarray(backing, dtype=np.int64)
            if isinstance(backing, np.ndarray):
                backing = backing.astype(np.int64, copy=False)
            if n is None:
                n = len(backing)
            elif len(backing) != n:
                raise ValueError(f"column {cname!r} length mismatch")
            self._columns[cname] = backing
        self._n = int(n)
        self._name = name
        if morsel_rows is not None and morsel_rows <= 0:
            raise ValueError("morsel_rows must be positive")
        step = morsel_rows or max(self._n, 1)
        self._granules = tuple(
            Granule(i, start, min(step, self._n - start))
            for i, start in enumerate(range(0, max(self._n, 1), step)))
        self._bounds: dict[tuple[int, str], tuple | None] = {}
        self._precompute_bounds()

    def _precompute_bounds(self) -> None:
        for cname, backing in self._columns.items():
            for g in self._granules:
                if g.n_rows == 0:
                    continue
                if isinstance(backing, np.ndarray):
                    seg = backing[g.row_start: g.row_start + g.n_rows]
                    self._bounds[(g.index, cname)] = (int(seg.min()),
                                                      int(seg.max()))
                elif len(self._granules) == 1:
                    bound = getattr(backing, "model_bounds",
                                    lambda: None)()
                    if bound is not None:
                        self._bounds[(g.index, cname)] = bound

    # ------------------------------------------------------------ protocol
    @property
    def column_names(self) -> tuple:
        return tuple(self._columns)

    @property
    def n_rows(self) -> int:
        return self._n

    def granules(self) -> tuple:
        return self._granules

    def bounds(self, granule: Granule, column: str):
        return self._bounds.get((granule.index, column))

    def load(self, granule: Granule, column: str, stats):
        view = _SliceView(self._columns[column], granule.row_start,
                          granule.n_rows)
        if stats is not None:
            stats.chunks_scanned += 1
            backing = self._columns[column]
            if isinstance(backing, np.ndarray):
                stats.bytes_scanned += granule.n_rows * backing.itemsize
            elif hasattr(backing, "size_bytes"):
                stats.bytes_scanned += backing.size_bytes()
        return view

    def describe(self) -> str:
        return self._name
