"""Constant and linear minimax regressors.

The linear regressor computes the exact Chebyshev (minimax) line for a
partition using the convex-hull band algorithm: the minimum vertical-width
band enclosing the points is supported by an edge of one hull and a vertex of
the other, and the optimal line is the band's midline.  On position-sorted
input the hulls come from a single Andrew monotone-chain pass, so the fit is
O(n).

The fit is written for a matrix of partitions (:func:`chebyshev_lines`: the
hulls of every row in one pruning loop, then each row's band from its two
hulls); one partition is its one-row case.
"""

from __future__ import annotations

import numpy as np

from repro.core.regressors.base import Regressor


class ConstantRegressor(Regressor):
    """Minimax constant fit: the mid-range of the partition."""

    name = "constant"
    min_partition_size = 1
    param_count = 1
    # Mid-range centering keeps residuals within [-span/2, span/2]; bias
    # encoding then needs bits(span).
    fast_delta_order = 0

    def fit_many(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[1] == 0:
            return np.zeros((len(rows), 1))
        lo = rows.min(axis=1).astype(np.float64)
        hi = rows.max(axis=1).astype(np.float64)
        return ((lo + hi) / 2.0)[:, None]

    def predict_many(self, params: np.ndarray, length: int) -> np.ndarray:
        return np.repeat(params[:, :1], length, axis=1)


#: iterated-pruning passes before falling back to the scalar chain
_HULL_PASS_LIMIT = 64


def _scalar_chain(ys: np.ndarray, idx: list[int], sign: float) -> list[int]:
    """Andrew monotone chain over the surviving indices (fallback path).

    ``sign`` +1 builds the upper hull (pop when the middle point lies on or
    below the chord), -1 the lower hull.
    """
    hull: list[int] = []
    for i in idx:
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            cross = (ys[i2] - ys[i1]) * (i - i1) \
                - (ys[i] - ys[i1]) * (i2 - i1)
            if sign * cross <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _hulls(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both convex hulls of every row of ``ys`` (``(R, L)`` float64,
    ``L >= 3``) via vectorised iterated pruning, all rows in one loop.

    Each pass removes *every* point lying on the wrong side of the chord of
    its current neighbours in one cross-product test.  A strict hull vertex
    always lies strictly outside the chord of any two other points, so
    simultaneous removal never discards one; the passes therefore converge
    to exactly the hull (collinear interior points are dropped, matching
    the scalar chain).  The first pass runs on the matrix, where the
    neighbours of every point sit 1 and 2 columns away; later passes run
    on the flat survivors of all ``2R`` hulls, a triple that spans two
    hulls masked out.  The lower hull is the upper hull of ``-ys`` (the
    cross product negates exactly), so one ``<= 0`` test serves both.  A
    hull still shedding points after ``_HULL_PASS_LIMIT`` passes is
    finished by the O(n) scalar chain over its (already pruned) survivors.

    Returns ``(pos, edges)``.  Hull ``h`` — the upper hull of row ``h``
    for ``h < R``, the lower hull of row ``h - R`` after — owns the global
    positions ``[h * L, (h + 1) * L)``; ``pos`` (sorted int64) holds every
    hull's vertices there, hull ``h``'s being ``pos[edges[h]:edges[h+1]]``.
    """
    n_rows, length = ys.shape
    flat = ys.ravel()
    cross = (ys[:, 1:-1] - ys[:, :-2]) * 2.0 - (ys[:, 2:] - ys[:, :-2])
    shed = np.zeros((2, n_rows, length), dtype=bool)   # end points stay
    np.less_equal(cross, 0, out=shed[0, :, 1:-1])
    np.greater_equal(cross, 0, out=shed[1, :, 1:-1])
    pos = np.flatnonzero(~shed)
    n_upper = np.searchsorted(pos, flat.size)
    pts = np.empty((2, pos.size))                      # x over y
    pts[0] = pos
    pts[1] = flat.take(pos % flat.size)
    np.negative(pts[1, n_upper:], out=pts[1, n_upper:])
    # a hull's two end points are never shed, so the neighbours of an
    # inner point are always its own hull's
    inner = np.ones((2 * n_rows, length), dtype=bool)
    inner[:, 0] = inner[:, -1] = False
    inner = inner.ravel().take(pos)

    def wrong_side():
        near = pts[:, 1:-1] - pts[:, :-2]
        far = pts[:, 2:] - pts[:, :-2]
        return (near[1] * far[0] - far[1] * near[0] <= 0) & inner[1:-1]

    for _ in range(_HULL_PASS_LIMIT - 1):
        keep = np.ones(inner.size, dtype=bool)
        np.logical_not(wrong_side(), out=keep[1:-1])
        kept = np.flatnonzero(keep)
        if kept.size == keep.size:
            break
        pts, inner = pts.take(kept, axis=1), inner.take(kept)
    else:
        pos = pts[0].astype(np.int64)
        keep = np.ones(pos.size, dtype=bool)
        for h in np.unique(pos[1:-1][wrong_side()] // length):
            members = np.flatnonzero(pos // length == h)
            chain = _scalar_chain(ys[h % n_rows],
                                  (pos[members] % length).tolist(),
                                  1.0 if h < n_rows else -1.0)
            keep[members] = np.isin(pos[members] % length, chain)
        pts = pts[:, keep]
    pos = pts[0].astype(np.int64)
    return pos, np.searchsorted(pos, np.arange(2 * n_rows + 1) * length)


def _walk_band(ys: list[float], upper: list[int], lower: list[int]
               ) -> tuple[float, float, float]:
    """Minimal band of one row from its hulls: the lower hull's edges are
    tried first, then the upper's, and the first strictly narrowest wins."""
    best_width = np.inf
    best = (ys[0], 0.0)

    def scan(edge_hull: list[int], far_hull: list[int], sign: float) -> None:
        """Try every edge of ``edge_hull`` against the vertices of
        ``far_hull``; ``sign`` is +1 when the far hull lies above the edge."""
        nonlocal best_width, best
        m = len(far_hull)
        j = m - 1
        for k in range(len(edge_hull) - 1):
            x1, x2 = edge_hull[k], edge_hull[k + 1]
            slope = (ys[x2] - ys[x1]) / (x2 - x1)

            def dist(idx: int) -> float:
                return sign * (ys[idx] - (ys[x1] + slope * (idx - x1)))

            # Vertical distance is unimodal over the far hull and its argmax
            # index is non-increasing as the edge slope advances, so a single
            # backward-walking pointer covers all edges in O(hull size).
            while j > 0 and dist(far_hull[j - 1]) >= dist(far_hull[j]):
                j -= 1
            width = dist(far_hull[j])
            if width < best_width:
                best_width = width
                mid = ys[x1] + sign * width / 2.0
                best = (mid - slope * x1, slope)

    scan(lower, upper, +1.0)
    scan(upper, lower, -1.0)
    intercept, slope = best
    return intercept, slope, best_width / 2.0


def chebyshev_lines(ys: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact minimax line fit of every row of ``ys`` (``(R, L)``).

    Returns ``(intercept, slope, max_error)`` vectors, ``max_error`` the
    Chebyshev radius (half the minimal vertical band width) of each row.
    The band of a row is supported by an edge of one of its hulls and a
    vertex of the other: the lower hull's edges are tried first, then the
    upper's, and the first strictly narrowest wins.
    """
    ys = np.asarray(ys, dtype=np.float64)
    n_rows, length = ys.shape
    zeros = np.zeros(n_rows)
    if length == 0 or n_rows == 0:
        return zeros, zeros.copy(), zeros.copy()
    if length == 1:
        return ys[:, 0].copy(), zeros, zeros.copy()
    if length == 2:
        return ys[:, 0].copy(), ys[:, 1] - ys[:, 0], zeros

    pos, edges = _hulls(ys)
    vertices = (pos % length).tolist()
    fit = np.empty((3, n_rows))
    for r, row in enumerate(ys.tolist()):
        upper, lower = (vertices[edges[h]: edges[h + 1]]
                        for h in (r, r + n_rows))
        fit[:, r] = _walk_band(row, upper, lower)
    return fit[0], fit[1], fit[2]


def chebyshev_line(values: np.ndarray) -> tuple[float, float, float]:
    """Exact minimax line fit of ``(i, values[i])``: the one-row case of
    :func:`chebyshev_lines`."""
    ys = np.asarray(values, dtype=np.float64)
    intercept, slope, radius = chebyshev_lines(ys[None, :])
    return intercept[0], slope[0], radius[0]


class LinearRegressor(Regressor):
    """Exact Chebyshev linear fit (the paper's default regressor)."""

    name = "linear"
    min_partition_size = 3
    param_count = 2
    fast_delta_order = 1

    def fit_many(self, rows: np.ndarray) -> np.ndarray:
        intercept, slope, _ = chebyshev_lines(
            np.asarray(rows, dtype=np.int64))
        return np.column_stack([intercept, slope])

    def predict_many(self, params: np.ndarray, length: int) -> np.ndarray:
        return params[:, :1] + params[:, 1:2] * np.arange(
            length, dtype=np.float64)
