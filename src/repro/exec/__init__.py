"""``repro.exec`` — one vectorized query-execution layer, every backend.

The paper's end-to-end claims (filter → groupby, bitmap aggregation,
join probing) are about how learned compression changes *query* cost.
This package is the single planner/operator layer those workloads run
through, over any storage backend that implements the
:class:`~repro.exec.source.ColumnSource` protocol::

    from repro.exec import Plan, col
    from repro.store.executor import StoreSource      # persistent store

    plan = (Plan.scan(["sensor_id", "reading"])
            .where(col("ts").between(1_000, 2_000)
                   & col("status").isin([0, 2]))
            .aggregate({"avg_reading": ("avg", "reading")},
                       group_by="sensor_id"))

    result = plan.execute(StoreSource(table))   # or ArraySource(columns)
    result.groups                               # {sensor_id: {...}}
    print(result.explain())                     # plan + pruning counts

Predicates are small expression trees (AND/OR of per-column range,
equality, IN, and positional bitmap terms).  The executor pushes
pushable conjuncts down to the source — zone maps prune whole granules,
``filter_range`` prunes inside surviving chunks where the codec allows
— and evaluates the residual vectorized on gathered batches, morsel-
driven: on the calling thread, or on the scheduler a caller passes.
``ExecStats`` unifies the accounting both old execution paths kept
separately.
"""

from repro.exec.errors import (
    CorruptChunkError,
    ExecError,
    ExecTimeout,
    GranuleError,
    ServerBusy,
)
from repro.exec.expr import (
    And,
    Bitmap,
    Col,
    Expr,
    InSet,
    Or,
    Range,
    col,
    conjuncts,
    expr_from_json,
    split_pushdown,
)
from repro.exec.plan import AGG_OPS, PLAN_JSON_VERSION, Plan
from repro.exec.pool import MorselScheduler
from repro.exec.run import ExecResult, ExecStats, GranulePipeline, execute
from repro.exec.source import (
    ArraySource,
    ChainSource,
    ColumnSource,
    Granule,
)

__all__ = [
    "AGG_OPS",
    "And",
    "ArraySource",
    "Bitmap",
    "ChainSource",
    "Col",
    "ColumnSource",
    "CorruptChunkError",
    "ExecError",
    "ExecResult",
    "ExecStats",
    "ExecTimeout",
    "Expr",
    "GranuleError",
    "Granule",
    "GranulePipeline",
    "InSet",
    "MorselScheduler",
    "Or",
    "PLAN_JSON_VERSION",
    "Plan",
    "Range",
    "ServerBusy",
    "col",
    "conjuncts",
    "execute",
    "expr_from_json",
    "split_pushdown",
]
