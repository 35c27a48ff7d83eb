"""The ``ColumnSource`` protocol — one scan surface over every backend.

A source presents a table as an ordered list of **granules** (the
morsels of morsel-driven execution: a row group, a column-aligned chunk,
an in-memory slice) and answers:

* :meth:`ColumnSource.zone_maps` — one column's conservative value
  bounds for every granule at once: two int64 arrays ``(zmin, zmax)``
  in :meth:`~ColumnSource.granules` order, the int64 extremes where a
  granule has no bound (sound: every stored value is an int64).  Never
  decodes; the executor tests every granule against them in one
  vector pass (:meth:`repro.exec.expr.Expr.may_match`) to prune.
* :meth:`ColumnSource.load` — the encoded sequence of one column
  restricted to the granule, charging the supplied
  :class:`~repro.exec.run.ExecStats` for bytes touched/read.  The
  returned object speaks the sequence protocol the executor needs:
  ``filter_range(lo, hi)``, ``gather(positions)``, ``decode_all()``.
  Loads may run concurrently on the executor's threads.

A source may additionally implement ``implicit_filter()`` returning a
positional :class:`~repro.exec.expr.Bitmap` (or ``None``): the executor
ANDs it into every plan's predicate.  This is how a mutated store
table's deletion vectors suppress dead rows through the ordinary
expression machinery — all-dead granules prune like any bitmap, masked
rows are charged to ``ExecStats.rows_masked``, and no operator had to
learn about deletes.

Implementations in the tree:

* :class:`repro.store.executor.StoreSource` — the persistent sharded
  store (mmap + zone maps + chunk cache);
* :class:`ArraySource` (here) — plain in-memory columns, the zero-cost
  backend for joins over transient data and for tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

_INT64 = np.iinfo(np.int64)
#: the zone map of a granule with no bound: every int64
_UNKNOWN_ZONE = (_INT64.min, _INT64.max)


def zone_arrays(bounds) -> tuple[np.ndarray, np.ndarray]:
    """Zone maps ``(zmin, zmax)`` from one ``(zmin, zmax)`` pair per
    granule, ``None`` standing for a granule with no bound (it gets the
    int64 extremes).  Read-only: sources hand the same arrays to every
    query."""
    zones = np.array([_UNKNOWN_ZONE if b is None else b for b in bounds],
                     dtype=np.int64).reshape(-1, 2).T.copy()
    zones.setflags(write=False)
    return zones[0], zones[1]


@dataclass(frozen=True)
class Granule:
    """One morsel of a source: ``n_rows`` rows starting at global
    ``row_start``.  ``index`` is the source-local ordinal."""

    index: int
    row_start: int
    n_rows: int


class ColumnSource(ABC):
    """Abstract base documenting the protocol (duck typing suffices)."""

    _extents: tuple | None = None

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
    def zone_maps(self, column: str) -> tuple[np.ndarray, np.ndarray]:
        """Zone maps of one column: ``(zmin, zmax)``, one conservative
        inclusive bound per granule (see the module docstring)."""

    @abstractmethod
    def load(self, granule: Granule, column: str, stats):
        """Sequence for one column of one granule, charging ``stats``."""

    def granule_extents(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, counts)``: each granule's first global row and row
        count as int64 arrays, in :meth:`granules` order — the row side
        of the zone-map test.  Built on first use."""
        if self._extents is None:
            granules = self.granules()
            self._extents = tuple(
                np.fromiter((getattr(g, field) for g in granules),
                            dtype=np.int64, count=len(granules))
                for field in ("row_start", "n_rows"))
        return self._extents

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

    def zone_maps(self, column: str) -> tuple[np.ndarray, np.ndarray]:
        zones = [src.zone_maps(column) for src in self._sources]
        return (np.concatenate([zmin for zmin, _ in zones]),
                np.concatenate([zmax for _, zmax in zones]))

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
    = one granule).  Zone maps are precomputed: per-granule min/max for
    ndarray columns; a sequence-backed column held as one granule
    reports ``model_bounds()`` where the codec exposes it, and has no
    bound otherwise.  ``execute(prune=False)`` is the way to run
    unpruned.
    """

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
        self._zones = {name: self._zones_of(backing)
                       for name, backing in self._columns.items()}

    def _zones_of(self, backing) -> tuple[np.ndarray, np.ndarray]:
        if self._n == 0:
            return zone_arrays([None])  # the one granule holds no row
        if isinstance(backing, np.ndarray):
            # the granules tile the column: one reduceat per extreme
            starts, _ = self.granule_extents()
            zones = (np.minimum.reduceat(backing, starts),
                     np.maximum.reduceat(backing, starts))
            for zone in zones:
                zone.setflags(write=False)
            return zones
        bound = getattr(backing, "model_bounds", lambda: None)() \
            if len(self._granules) == 1 else None
        return zone_arrays([bound] * len(self._granules))

    # ------------------------------------------------------------ protocol
    @property
    def column_names(self) -> tuple:
        return tuple(self._columns)

    @property
    def n_rows(self) -> int:
        return self._n

    def granules(self) -> tuple:
        return self._granules

    def zone_maps(self, column: str) -> tuple[np.ndarray, np.ndarray]:
        return self._zones[column]

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
