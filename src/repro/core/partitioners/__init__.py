"""Partitioners: sequence segmentation strategies (paper §3.2)."""

from repro.core.partitioners.advisor import (
    AdvisedPartitioner,
    HardnessReport,
    advise_partitioning,
    global_hardness,
    local_hardness,
    resolve_partitioner,
)
from repro.core.partitioners.base import Bounds, Partitioner
from repro.core.partitioners.cost import (
    header_bits,
    plan_cost_bits,
    segment_bits,
    validate_bounds,
)
from repro.core.partitioners.fixed import (
    AutoFixedPartitioner,
    FixedLengthPartitioner,
    fixed_bounds,
    search_partition_size,
)
from repro.core.partitioners.la_vector import LaVectorPartitioner
from repro.core.partitioners.optimal import OptimalPartitioner
from repro.core.partitioners.pla import PLAPartitioner, pla_segments
from repro.core.partitioners.simpiece import (
    SimPiecePartitioner,
    simpiece_model_bits,
    simpiece_segments,
)
from repro.core.partitioners.variable import SplitMergePartitioner, select_seeds

__all__ = [
    "Bounds",
    "Partitioner",
    "header_bits",
    "plan_cost_bits",
    "segment_bits",
    "validate_bounds",
    "FixedLengthPartitioner",
    "AutoFixedPartitioner",
    "fixed_bounds",
    "search_partition_size",
    "SplitMergePartitioner",
    "select_seeds",
    "OptimalPartitioner",
    "PLAPartitioner",
    "pla_segments",
    "SimPiecePartitioner",
    "simpiece_model_bits",
    "simpiece_segments",
    "LaVectorPartitioner",
    "HardnessReport",
    "AdvisedPartitioner",
    "resolve_partitioner",
    "advise_partitioning",
    "local_hardness",
    "global_hardness",
]
