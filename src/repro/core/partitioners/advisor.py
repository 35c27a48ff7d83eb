"""Partitioning strategy advising via data-hardness scores (paper §3.2.3).

Two scores, following the "local/global hardness" definitions of Wongkham et
al. that the paper adopts:

* **Local hardness** ``H_l`` — run PLA with a *small* error bound (ε = 7) and
  normalise the segment count by the data size.  High ``H_l`` means no
  regressor fits well regardless of partitioning.
* **Global hardness** ``H_g`` — run PLA with a *large* error bound
  (ε = 4096); combine the (normalised) average value gap between adjacent
  segments with the (normalised) variance of segment lengths.  High ``H_g``
  means the global trend has "sharp turns" that variable-length partitioning
  can exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partitioners.base import Bounds, Partitioner
from repro.core.partitioners.fixed import (
    AutoFixedPartitioner,
    FixedLengthPartitioner,
)
from repro.core.partitioners.pla import pla_segments
from repro.core.partitioners.variable import SplitMergePartitioner

LOCAL_EPSILON = 7.0
GLOBAL_EPSILON = 4096.0
#: the paper's epsilons assume ~20-unit average gaps (200M rows over the
#: 32-bit range); scaled-down reproductions keep the metric density-invariant
REFERENCE_GAP = 20.0


def _density_factor(values: np.ndarray) -> float:
    """Average |first difference| relative to the paper's reference gap."""
    if len(values) < 2:
        return 1.0
    gaps = np.abs(np.diff(values.astype(np.float64)))
    # the median resists heavy-tailed gap distributions (e.g. osm's Pareto
    # jumps), which would otherwise inflate the scaled epsilon and hide
    # genuine local roughness
    # geometric mean of mean and median: tracks typical density while
    # resisting (but not ignoring) heavy-tailed gap distributions
    mean = float(gaps.mean())
    median = float(np.median(gaps)) or mean
    typical = float(np.sqrt(max(mean, 1e-12) * max(median, 1e-12)))
    return max(typical / REFERENCE_GAP, 1e-9)


def local_hardness(values: np.ndarray, epsilon: float = LOCAL_EPSILON
                   ) -> float:
    """Normalised PLA segment count at a small error bound (in [0, 1]).

    ``epsilon`` is scaled by the data's gap density so the score matches the
    paper's 200M-row setting on smaller generated data sets.
    """
    values = np.asarray(values, dtype=np.int64)
    if len(values) == 0:
        return 0.0
    segments = pla_segments(values, epsilon * _density_factor(values))
    # a perfectly linear set yields 1 segment; the worst case yields ~n/2
    return min(1.0, 2.0 * len(segments) / max(len(values), 1))


def global_hardness(values: np.ndarray, epsilon: float = GLOBAL_EPSILON
                    ) -> float:
    """Sum of normalised inter-segment gap and segment-length variance."""
    values = np.asarray(values, dtype=np.int64)
    n = len(values)
    if n == 0:
        return 0.0
    segments = pla_segments(values, epsilon * _density_factor(values))
    if len(segments) < 2:
        return 0.0

    gaps = []
    for (_, end_prev), (start_next, _) in zip(segments, segments[1:]):
        gaps.append(abs(int(values[start_next]) - int(values[end_prev - 1])))
    value_span = max(int(values.max()) - int(values.min()), 1)
    avg_gap = float(np.mean(gaps)) / value_span * len(segments)

    lengths = np.array([end - start for start, end in segments],
                       dtype=np.float64)
    len_cv = float(lengths.std() / max(lengths.mean(), 1.0))

    return min(1.0, avg_gap) / 2.0 + min(1.0, len_cv) / 2.0


@dataclass(frozen=True)
class HardnessReport:
    """Hardness scores plus the advised partitioning strategy."""

    local: float
    global_: float
    recommend_variable: bool

    @property
    def quadrant(self) -> str:
        loc = "hard" if self.local >= 0.5 else "easy"
        glo = "hard" if self.global_ >= 0.5 else "easy"
        return f"locally-{loc}/globally-{glo}"


def advise_partitioning(values: np.ndarray,
                        local_threshold: float = 0.5,
                        global_threshold: float = 0.5) -> HardnessReport:
    """Score the data set and advise fixed vs variable partitioning.

    Variable-length partitioning pays off on *locally easy but globally
    hard* data (paper §3.2.3): models fit well locally, but the global trend
    has sharp turns that fixed windows straddle.
    """
    loc = local_hardness(values)
    glo = global_hardness(values)
    recommend = loc < local_threshold and glo >= global_threshold
    return HardnessReport(local=loc, global_=glo,
                          recommend_variable=recommend)


class AdvisedPartitioner(Partitioner):
    """``partitioner="auto"``: the hardness advice picks fixed or variable
    partitioning per input (§3.2.3)."""

    name = "advised"

    def __init__(self, fixed: Partitioner, variable: Partitioner):
        self._plans = {False: fixed, True: variable}

    def choose(self, values: np.ndarray) -> Partitioner:
        return self._plans[advise_partitioning(values).recommend_variable]

    def partition(self, values: np.ndarray, regressor) -> Bounds:
        return self.choose(values).partition(values, regressor)


def resolve_partitioner(partitioner, tau: float = 0.05,
                        max_partition_size: int = 10_000) -> Partitioner:
    """The one reading of a codec's ``partitioner=`` plan.

    ``"fixed"`` is the sampling-searched fixed length bounded by
    ``max_partition_size`` (§3.2.1), ``"variable"`` the split–merge greedy
    with aggressiveness ``tau`` (§3.2.2), ``"auto"`` the hardness-advised
    choice between those two, an ``int`` that exact fixed length, and a
    :class:`Partitioner` is used as given.
    """
    if isinstance(partitioner, Partitioner):
        return partitioner
    fixed = AutoFixedPartitioner(max_size=max_partition_size)
    variable = SplitMergePartitioner(tau=tau)
    if partitioner == "fixed":
        return fixed
    if partitioner == "variable":
        return variable
    if partitioner == "auto":
        return AdvisedPartitioner(fixed, variable)
    if isinstance(partitioner, int):
        return FixedLengthPartitioner(partitioner)
    raise ValueError(f"unknown partitioner spec {partitioner!r}")
