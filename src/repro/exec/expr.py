"""Predicate expression trees for the execution layer.

A filter predicate is a small tree of per-column terms — range
(``lo <= v < hi``), equality (a width-1 range), ``IN``-set membership, a
positional :class:`Bitmap` — combined with :class:`And` / :class:`Or`.
Every node answers three questions, and the whole planner falls out of
them:

* :meth:`Expr.columns` — which columns evaluation needs;
* :meth:`Expr.may_match` — given every granule's conservative
  per-column value bounds (the source's zone-map arrays) and row
  extents, which granules could hold a matching row?  One boolean per
  granule, computed for all of them in one vector pass; ``False`` lets
  the executor prune the granule without touching its bytes;
* :meth:`Expr.evaluate` — the exact vectorised mask over a decoded
  batch.

Top-level AND conjuncts that are plain :class:`Range` terms are
additionally *pushable*: the executor hands them to the encoded
sequences' ``filter_range`` (LeCo-family codecs prune again at partition
granularity inside the chunk); everything else is the *residual*
predicate, evaluated on gathered batches.  :func:`split_pushdown`
performs that classification.

Build expressions with the :func:`col` sugar::

    from repro.exec import col

    expr = (col("ts").between(1_000, 2_000)
            & (col("sensor_id") == 7)
            & col("status").isin([0, 2]))

Every node also serialises to a plain-JSON dict (:meth:`Expr.to_json` /
:func:`expr_from_json`) so a whole predicate can cross the wire to a
table server; bitmaps travel as base64 ``packbits`` payloads.  Unknown
node kinds reject with a one-line :class:`ValueError`.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

import numpy as np


class Expr:
    """Base predicate node (combine with ``&`` and ``|``)."""

    def columns(self) -> frozenset:
        """Column names evaluation needs (positional terms need none)."""
        raise NotImplementedError

    def may_match(self, zones, starts: np.ndarray,
                  counts: np.ndarray) -> np.ndarray:
        """Which granules could hold a matching row?  One boolean per
        granule.  ``zones`` maps a column to its zone maps, two int64
        arrays ``(zmin, zmax)`` of inclusive bounds (a granule with no
        bound carries the int64 extremes); granule ``i`` holds global
        rows ``starts[i]`` up to ``starts[i] + counts[i]``, in row order
        and disjoint.  Conservative: ``True`` unless the zone maps (or
        the bitmap region) *prove* no row of the granule can match."""
        raise NotImplementedError

    def evaluate(self, batch: dict, row_ids: np.ndarray) -> np.ndarray:
        """Exact boolean mask over ``batch`` (``row_ids`` are global)."""
        raise NotImplementedError

    def to_json(self) -> dict:
        """Plain-JSON form (revive with :func:`expr_from_json`)."""
        raise NotImplementedError

    def __and__(self, other: "Expr") -> "Expr":
        return And.of(self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return Or.of(self, other)


@dataclass(frozen=True)
class Range(Expr):
    """``lo <= column < hi`` (either side ``None`` = unbounded)."""

    column: str
    lo: int | None
    hi: int | None

    def columns(self) -> frozenset:
        return frozenset((self.column,))

    @property
    def is_empty(self) -> bool:
        return (self.lo is not None and self.hi is not None
                and self.lo >= self.hi)

    def may_match(self, zones, starts, counts) -> np.ndarray:
        zmin, zmax = zones[self.column]
        if self.is_empty:
            return np.zeros(len(starts), dtype=bool)
        keep = np.ones(len(starts), dtype=bool)
        # numpy compares int64 against a Python int beyond int64 exactly
        if self.lo is not None:
            keep &= zmax >= self.lo
        if self.hi is not None:
            keep &= zmin < self.hi
        return keep

    def evaluate(self, batch, row_ids) -> np.ndarray:
        values = batch[self.column]
        mask = np.ones(len(values), dtype=bool)
        if self.lo is not None:
            mask &= values >= self.lo
        if self.hi is not None:
            mask &= values < self.hi
        return mask

    def to_json(self) -> dict:
        return {"kind": "range", "column": self.column,
                "lo": self.lo, "hi": self.hi}

    def intersect(self, other: "Range") -> "Range":
        """Tightest range implied by both conjuncts (same column)."""
        if other.column != self.column:
            raise ValueError("cannot intersect ranges on different columns")
        lo = self.lo if other.lo is None else \
            other.lo if self.lo is None else max(self.lo, other.lo)
        hi = self.hi if other.hi is None else \
            other.hi if self.hi is None else min(self.hi, other.hi)
        return Range(self.column, lo, hi)

    def __repr__(self) -> str:
        if self.lo is not None and self.hi is not None:
            if self.hi == self.lo + 1:
                return f"{self.column} == {self.lo}"
            return f"{self.lo} <= {self.column} < {self.hi}"
        if self.lo is not None:
            return f"{self.column} >= {self.lo}"
        if self.hi is not None:
            return f"{self.column} < {self.hi}"
        return f"{self.column}: unbounded"


class InSet(Expr):
    """``column IN (values)`` membership."""

    def __init__(self, column: str, values):
        self.column = column
        self.values = np.unique(np.asarray(list(values), dtype=np.int64))

    def columns(self) -> frozenset:
        return frozenset((self.column,))

    def may_match(self, zones, starts, counts) -> np.ndarray:
        # some value lies in [zmin, zmax]: the sorted values below zmin
        # are fewer than those at or below zmax
        zmin, zmax = zones[self.column]
        return np.searchsorted(self.values, zmin) \
            < np.searchsorted(self.values, zmax, side="right")

    def evaluate(self, batch, row_ids) -> np.ndarray:
        return np.isin(batch[self.column], self.values)

    def to_json(self) -> dict:
        return {"kind": "inset", "column": self.column,
                "values": [int(v) for v in self.values]}

    def __repr__(self) -> str:
        shown = ", ".join(str(v) for v in self.values[:6])
        if self.values.size > 6:
            shown += f", ... ({self.values.size} values)"
        return f"{self.column} IN ({shown})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, InSet) and other.column == self.column
                and np.array_equal(other.values, self.values))

    def __hash__(self) -> int:
        return hash((self.column, self.values.tobytes()))


class Bitmap(Expr):
    """Positional selection by a table-global boolean bitmap.

    The exec-layer form of the paper's §5.1.2 bitmap workloads: granules
    whose bitmap region is all-zero are pruned without touching bytes,
    exactly like the old per-row-group skip in the bitmap aggregation.
    """

    def __init__(self, bitmap: np.ndarray):
        self.bitmap = np.asarray(bitmap, dtype=bool)

    def columns(self) -> frozenset:
        return frozenset()

    def may_match(self, zones, starts, counts) -> np.ndarray:
        # any set bit per granule, as a slice would read it: rows past
        # the bitmap's end are unset, and a zero-row granule is False
        bits = self.bitmap
        lo = np.minimum(starts, bits.size)
        hi = np.minimum(starts + counts, bits.size)
        keep = hi > lo
        if keep.any():
            # one reduceat over [start, end) index pairs: each pair's
            # first index reduces exactly its granule's rows (the
            # second, a gap, is dropped), and the last granule's run
            # reduces to the end of the cut
            ends = hi[keep]
            edges = np.stack([lo[keep], ends], axis=1).ravel()
            keep[keep] = np.logical_or.reduceat(
                bits[:ends[-1]], edges[:-1])[0::2]
        return keep

    def evaluate(self, batch, row_ids) -> np.ndarray:
        return self.bitmap[row_ids]

    def to_json(self) -> dict:
        packed = np.packbits(self.bitmap)
        return {"kind": "bitmap", "n": int(self.bitmap.size),
                "bits": base64.b64encode(packed.tobytes()).decode("ascii")}

    def __repr__(self) -> str:
        return f"bitmap({int(self.bitmap.sum())}/{self.bitmap.size} set)"


class _Junction(Expr):
    """Shared machinery of :class:`And` / :class:`Or`."""

    def __init__(self, *children: Expr):
        flat: list[Expr] = []
        for child in children:
            if not isinstance(child, Expr):
                raise TypeError(f"not an expression: {child!r}")
            if isinstance(child, type(self)):
                flat.extend(child.children)
            else:
                flat.append(child)
        if not flat:
            raise ValueError(f"{type(self).__name__} needs children")
        self.children = tuple(flat)

    @classmethod
    def of(cls, *children: Expr) -> Expr:
        """Build, collapsing the single-child case to the child itself."""
        node = cls(*children)
        return node.children[0] if len(node.children) == 1 else node

    def columns(self) -> frozenset:
        return frozenset().union(*(c.columns() for c in self.children))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.children == self.children

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.children))

    def _parts(self) -> list[str]:
        return [f"({c!r})" if isinstance(c, _Junction) else repr(c)
                for c in self.children]

    def to_json(self) -> dict:
        return {"kind": "and" if isinstance(self, And) else "or",
                "children": [c.to_json() for c in self.children]}


class And(_Junction):
    def may_match(self, zones, starts, counts) -> np.ndarray:
        keep = self.children[0].may_match(zones, starts, counts)
        for child in self.children[1:]:
            keep &= child.may_match(zones, starts, counts)
        return keep

    def evaluate(self, batch, row_ids) -> np.ndarray:
        mask = self.children[0].evaluate(batch, row_ids)
        for child in self.children[1:]:
            mask = mask & child.evaluate(batch, row_ids)
        return mask

    def __repr__(self) -> str:
        return " AND ".join(self._parts())


class Or(_Junction):
    def may_match(self, zones, starts, counts) -> np.ndarray:
        keep = self.children[0].may_match(zones, starts, counts)
        for child in self.children[1:]:
            keep |= child.may_match(zones, starts, counts)
        return keep

    def evaluate(self, batch, row_ids) -> np.ndarray:
        mask = self.children[0].evaluate(batch, row_ids)
        for child in self.children[1:]:
            mask = mask | child.evaluate(batch, row_ids)
        return mask

    def __repr__(self) -> str:
        return " OR ".join(self._parts())


class Col:
    """Column reference sugar: comparison operators build terms."""

    def __init__(self, name: str):
        self.name = name

    def __ge__(self, value: int) -> Range:
        return Range(self.name, int(value), None)

    def __gt__(self, value: int) -> Range:
        return Range(self.name, int(value) + 1, None)

    def __lt__(self, value: int) -> Range:
        return Range(self.name, None, int(value))

    def __le__(self, value: int) -> Range:
        return Range(self.name, None, int(value) + 1)

    def __eq__(self, value) -> Range:  # type: ignore[override]
        return Range(self.name, int(value), int(value) + 1)

    def __hash__(self) -> int:
        return hash(self.name)

    def between(self, lo: int, hi: int) -> Range:
        """Half-open range ``lo <= column < hi``."""
        return Range(self.name, int(lo), int(hi))

    def isin(self, values) -> InSet:
        return InSet(self.name, values)


def col(name: str) -> Col:
    """Start an expression: ``col("ts").between(lo, hi)``."""
    return Col(name)


def expr_from_json(obj: dict) -> Expr:
    """Revive an expression from its :meth:`Expr.to_json` dict.

    Rejects unknown node kinds and malformed payloads with a one-line
    :class:`ValueError` (the wire layer forwards it verbatim).
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"expression JSON must be a dict with a 'kind', "
                         f"got {type(obj).__name__}")
    kind = obj["kind"]
    try:
        if kind == "range":
            lo, hi = obj["lo"], obj["hi"]
            return Range(str(obj["column"]),
                         None if lo is None else int(lo),
                         None if hi is None else int(hi))
        if kind == "inset":
            return InSet(str(obj["column"]), obj["values"])
        if kind == "bitmap":
            packed = np.frombuffer(
                base64.b64decode(obj["bits"], validate=True),
                dtype=np.uint8)
            n = int(obj["n"])
            if n > packed.size * 8:
                raise ValueError(
                    f"bitmap claims {n} rows but carries bits for "
                    f"at most {packed.size * 8}")
            return Bitmap(np.unpackbits(packed, count=n).astype(bool))
        if kind in ("and", "or"):
            children = [expr_from_json(c) for c in obj["children"]]
            return (And if kind == "and" else Or).of(*children)
    except (KeyError, TypeError) as err:
        raise ValueError(
            f"malformed {kind!r} expression JSON: {err}") from err
    raise ValueError(f"unknown expression kind {kind!r}; supported: "
                     f"range, inset, bitmap, and, or")


def conjuncts(expr: Expr) -> tuple[Expr, ...]:
    """Top-level AND conjuncts (the whole expression when not an AND)."""
    return expr.children if isinstance(expr, And) else (expr,)


def split_pushdown(expr: Expr | None):
    """Classify a predicate for execution.

    Returns ``(ranges, bitmaps, residual)``:

    * ``ranges`` — per-column tightest :class:`Range` merged from the
      pushable top-level conjuncts; the executor hands each one to the
      source sequence's ``filter_range`` (codec-internal pruning).
      Only fully-bounded ranges are pushed — ``filter_range(lo, hi)``
      takes int64 bounds, so a half-unbounded conjunct that did not
      merge into a closed interval stays residual (it still prunes via
      zone maps);
    * ``bitmaps`` — positional :class:`Bitmap` conjuncts, evaluated
      before any column is loaded;
    * ``residual`` — everything else (``IN`` terms, OR trees,
      half-unbounded ranges), an :class:`Expr` to evaluate on gathered
      batches, or ``None``.
    """
    if expr is None:
        return {}, (), None
    ranges: dict[str, Range] = {}
    bitmaps: list[Bitmap] = []
    rest: list[Expr] = []
    for term in conjuncts(expr):
        if isinstance(term, Range):
            prev = ranges.get(term.column)
            ranges[term.column] = term if prev is None \
                else prev.intersect(term)
        elif isinstance(term, Bitmap):
            bitmaps.append(term)
        else:
            rest.append(term)
    for column in list(ranges):
        merged = ranges[column]
        if merged.lo is None or merged.hi is None:
            rest.append(ranges.pop(column))
    residual = And.of(*rest) if rest else None
    return ranges, tuple(bitmaps), residual
