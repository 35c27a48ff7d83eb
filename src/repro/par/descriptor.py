"""Granule descriptors: the compact wire format of the process tier.

A worker process never receives data — shards are mmap-able, so it
opens the table itself (read-only; the OS page cache is shared across
every worker for free) and only needs to be told *which* query and
*which* granule to run.  :class:`QueryDescriptor` is that telling: the
table directory, the pinned manifest generation, the plan (reusing the
PR 7 :meth:`~repro.exec.plan.Plan.to_json` wire format, which carries
the pushdown expression — ranges, IN-sets, OR trees and positional
bitmaps alike), and the one executor knob (``on_corruption``) the
worker-side :class:`~repro.exec.run.GranulePipeline` is built with.

**Who prunes.**  Zone-map pruning needs only footers and deletion
vectors, and the driver holds both: :func:`repro.exec.run.execute`
splits the granule set with :attr:`GranulePipeline.pruned` *before*
dispatch, charges the pruned count once, and sends survivors only.
So the descriptor carries no prune knob: a worker builds its pipeline
with ``prune=False`` — every granule it is sent was already tested —
whatever the caller's own ``prune=`` was.

**Who can be described.**  Only a source with a ``wire_descriptor``
(a :class:`~repro.store.executor.StoreSource`, which always has one).
:func:`describe_query` refuses any other with :class:`TypeError`, and
:func:`repro.exec.run.execute` asks it before admission, so a process
tier never runs a query's in-process closure.

Two deliberate choices:

* **Generation pinning.**  ``version`` is always the integer manifest
  generation the driver's snapshot was opened at — generation numbers
  are never reused, so it names that snapshot forever.  The worker
  re-opens that exact generation, so deletion-vector sidecars — the
  source's implicit Bitmap filter — are re-derived identically rather
  than shipped.  ``version`` / ``n_rows`` / ``n_granules`` are
  cross-checked after the open: any drift (a reaped generation, a
  half-visible publish) fails loudly before a single granule runs.
* **JSON-able throughout.**  The descriptor round-trips through
  :meth:`to_json`/:meth:`from_json` losslessly, and the process tier
  sends the JSON form over the pipe — so "survives pickle *and* JSON"
  is a property of the actual wire, not an aspiration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exec.plan import Plan

__all__ = ["DESCRIPTOR_VERSION", "QueryDescriptor", "describe_query"]

#: bumped on any incompatible change to the descriptor wire format
DESCRIPTOR_VERSION = 5


@dataclass(frozen=True)
class QueryDescriptor:
    """Everything a worker needs to rebuild one query's pipeline."""

    table_path: str            # absolute table directory
    version: int               # pinned manifest generation
    cache_bytes: int           # per-worker chunk-cache budget (0 = none)
    n_rows: int                # drift guard: snapshot row count
    n_granules: int            # drift guard: snapshot granule count
    plan: dict                 # Plan.to_json() (carries the pushdown expr)
    on_corruption: str         # "raise" | "skip"
    trace_enabled: bool = False  # worker records per-granule spans

    def to_json(self) -> dict:
        """A JSON-able dict (also the pickled pipe payload)."""
        return {
            "v": DESCRIPTOR_VERSION,
            "table_path": self.table_path,
            "version": self.version,
            "cache_bytes": self.cache_bytes,
            "n_rows": self.n_rows,
            "n_granules": self.n_granules,
            "plan": self.plan,
            "on_corruption": self.on_corruption,
            "trace_enabled": self.trace_enabled,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QueryDescriptor":
        version = obj.get("v")
        if version != DESCRIPTOR_VERSION:
            raise ValueError(
                f"unsupported descriptor version {version!r} "
                f"(this worker speaks {DESCRIPTOR_VERSION})")
        return cls(
            table_path=obj["table_path"],
            version=int(obj["version"]),
            cache_bytes=int(obj["cache_bytes"]),
            n_rows=int(obj["n_rows"]),
            n_granules=int(obj["n_granules"]),
            plan=obj["plan"],
            on_corruption=obj["on_corruption"],
            trace_enabled=bool(obj["trace_enabled"]),
        )

    def build_plan(self) -> Plan:
        return Plan.from_json(self.plan)


def describe_query(plan: Plan, source, *, on_corruption: str,
                   trace_enabled: bool = False) -> QueryDescriptor:
    """Describe ``plan`` over ``source`` for out-of-process execution.

    Raises :class:`TypeError` when the source cannot be rebuilt from a
    path — an in-memory :class:`~repro.exec.source.ArraySource`, a
    :class:`~repro.exec.source.ChainSource` — because a process tier
    runs nothing else: such a query runs on its calling thread or on a
    thread-tier scheduler.
    """
    wire = getattr(source, "wire_descriptor", None)
    if wire is None:
        raise TypeError(
            f"a process-tier scheduler runs only sources that describe "
            f"themselves; {source.describe()} does not (run it without "
            f"a scheduler or on a thread-tier one)")
    return QueryDescriptor(
        plan=plan.to_json(), on_corruption=on_corruption,
        trace_enabled=trace_enabled,
        **wire())
