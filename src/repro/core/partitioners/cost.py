"""The one storage-cost model every partitioner optimises (paper §3.2).

    sum_j ( ||F_j|| + header + (k_{j+1} - k_j) * Delta(v[k_j, k_{j+1})) )

:func:`header_bits` is what a partition costs besides its residuals, and
:func:`segment_bits` prices whole segments: header plus ``length × Δ``,
at the regressor's exact fitted width (what the encoder stores) or at its
fast estimate ``Δ̃``.  Split–merge's merge test, the DP, la-vector's edge
weights, the fixed-size search and :func:`plan_cost_bits` all price a
segment here, so the merge test, the DP reference and the score a plan is
judged by cannot drift apart.  The header is an estimate, not what the
``LECO`` image writes.
"""

from __future__ import annotations

import numpy as np

from repro.core.regressors.base import Regressor

#: per-partition header: bit-width byte + bias varint estimate (bits)
PARTITION_HEADER_BITS = 8 + 32
#: extra metadata per variable-length partition: stored start index (bits)
VAR_INDEX_BITS = 32


def header_bits(regressor: Regressor, variable: bool = True) -> int:
    """Bits one partition costs besides its residuals: the model, the
    header estimate and, when ``variable``, its stored start index."""
    bits = regressor.model_size_bytes * 8 + PARTITION_HEADER_BITS
    return bits + VAR_INDEX_BITS if variable else bits


def segment_bits(values: np.ndarray, starts, ends, regressor: Regressor, *,
                 exact: bool = True, variable: bool = True) -> np.ndarray:
    """Estimated stored bits of every segment ``[starts[s], ends[s])`` of
    ``values``, as an ``(S,)`` int64 array.

    ``exact=True`` prices residuals at the regressor's fitted width
    (``delta_bits_many``); ``exact=False`` at ``Δ̃``
    (``fast_delta_bits_many``).  Segments of one length are measured as
    one matrix in one call; row ``r`` of either call is bitwise the one-row
    call, so a segment's width never depends on what it was measured with.
    """
    values = np.asarray(values, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(ends, dtype=np.int64) - starts
    measure = regressor.delta_bits_many if exact \
        else regressor.fast_delta_bits_many
    widths = np.empty_like(lengths)
    for length in set(lengths.tolist()):
        rows = lengths == length
        widths[rows] = measure(values[starts[rows, None] + np.arange(length)])
    return header_bits(regressor, variable) + lengths * widths


def plan_cost_bits(values: np.ndarray, bounds: list[tuple[int, int]],
                   regressor: Regressor, variable: bool = True,
                   exact: bool = True) -> int:
    """Total estimated size in bits of a partition plan: the sum of its
    :func:`segment_bits`."""
    starts, ends = np.asarray(bounds, dtype=np.int64).reshape(-1, 2).T
    return int(segment_bits(values, starts, ends, regressor, exact=exact,
                            variable=variable).sum())


def validate_bounds(bounds: list[tuple[int, int]], n: int) -> None:
    """Assert that ``bounds`` is a contiguous, complete cover of ``[0, n)``."""
    if n == 0:
        if bounds:
            raise ValueError("non-empty bounds for empty sequence")
        return
    if not bounds:
        raise ValueError("empty bounds for non-empty sequence")
    if bounds[0][0] != 0 or bounds[-1][1] != n:
        raise ValueError(f"bounds {bounds[0]}..{bounds[-1]} do not cover [0, {n})")
    for (a, b), (c, d) in zip(bounds, bounds[1:]):
        if b != c:
            raise ValueError(f"gap or overlap between {(a, b)} and {(c, d)}")
    for a, b in bounds:
        if a >= b:
            raise ValueError(f"empty partition {(a, b)}")
