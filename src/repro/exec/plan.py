"""Logical query plans: Scan → Filter → Project → Aggregate / HashJoin
or Limit.

A :class:`Plan` is an immutable chain of logical nodes built fluently::

    plan = (Plan.scan(["sensor_id", "reading"])
            .where(col("ts").between(lo, hi))
            .aggregate({"avg_reading": ("avg", "reading")},
                       group_by="sensor_id"))
    result = plan.execute(source)          # any ColumnSource backend
    print(result.explain())                # plan + pruning counts

A row plan (no Aggregate or HashJoin) may end in ``.limit(n)``: the
result holds the first ``n`` matching rows in row order, while
``n_rows`` and the stats still describe every match.

The plan is backend-neutral: the same object executes over a
:class:`~repro.store.executor.StoreSource` or an in-memory
:class:`~repro.exec.source.ArraySource`.  Physical decisions (zone-map
pruning, ``filter_range`` pushdown, residual evaluation, morsel
parallelism) happen in :func:`repro.exec.run.execute`.

Adding an operator means adding a node dataclass here plus its partial
evaluation + merge in :mod:`repro.exec.run` — NOT a new ``run_*`` helper
hard-coded against one backend (see ROADMAP "Exec notes").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exec.expr import And, Expr, expr_from_json

#: supported aggregate ops
AGG_OPS = ("sum", "count", "avg", "min", "max")
#: supported join modes
JOIN_MODES = ("semi", "inner")
#: wire version of the plan JSON layout (bump on incompatible changes)
PLAN_JSON_VERSION = 1


@dataclass(frozen=True)
class Scan:
    """Leaf: read ``columns`` (``None`` = every source column)."""

    columns: tuple | None


@dataclass(frozen=True)
class Filter:
    """Keep rows matching ``expr`` (pushdown decided at execution)."""

    expr: Expr


@dataclass(frozen=True)
class Project:
    """Narrow the output to ``columns``."""

    columns: tuple


@dataclass(frozen=True)
class Aggregate:
    """Grouped (or global, ``group_by=None``) aggregation.

    ``aggs`` maps output name -> ``(op, column)`` with op one of
    :data:`AGG_OPS`; ``count`` ignores its column.
    """

    aggs: tuple          # ((out_name, op, column), ...)
    group_by: str | None


@dataclass(frozen=True)
class HashJoin:
    """Probe this plan's rows against a built hash side.

    ``how="semi"`` keeps probe rows whose ``on`` value appears in
    ``keys``; ``how="inner"`` additionally attaches the build side's
    payload columns (``build`` maps name -> array, aligned with
    ``keys``, which must be unique).
    """

    on: str
    keys: np.ndarray
    build: tuple | None  # ((name, np.ndarray), ...) build payload
    how: str


@dataclass(frozen=True)
class Limit:
    """Keep the first ``n`` matching rows, in row order.  Every granule
    still filters and counts all of its matches; it gathers at most its
    first ``n``, and the driver keeps the first ``n`` in granule order."""

    n: int


#: nodes that terminate a plan (no further operators may follow)
_TERMINAL = (Aggregate, HashJoin)


class Plan:
    """An immutable logical operator chain (build with :meth:`scan`)."""

    def __init__(self, nodes: tuple):
        self.nodes = tuple(nodes)

    # ------------------------------------------------------------ builders
    @classmethod
    def scan(cls, columns=None) -> "Plan":
        """Start a plan reading ``columns`` (``None`` = all)."""
        cols = tuple(columns) if columns is not None else None
        if cols is not None and not cols:
            raise ValueError("scan projection cannot be empty")
        return cls((Scan(cols),))

    def _extend(self, node) -> "Plan":
        if self.nodes and isinstance(self.nodes[-1], (*_TERMINAL, Limit)):
            raise ValueError(
                f"cannot add {type(node).__name__} after the terminal "
                f"{type(self.nodes[-1]).__name__} operator")
        return Plan(self.nodes + (node,))

    def where(self, expr: Expr) -> "Plan":
        """Filter on ``expr``; repeated calls AND together."""
        if not isinstance(expr, Expr):
            raise TypeError(f"where() wants an Expr, got {type(expr)}")
        return self._extend(Filter(expr))

    def project(self, columns) -> "Plan":
        cols = tuple(columns)
        if not cols:
            raise ValueError("projection cannot be empty")
        return self._extend(Project(cols))

    def aggregate(self, aggs: dict, group_by: str | None = None) -> "Plan":
        """Terminal grouped/global aggregation (see :class:`Aggregate`)."""
        if not aggs:
            raise ValueError("aggregate() needs at least one aggregation")
        normalized = []
        for out, (op, column) in aggs.items():
            if op not in AGG_OPS:
                raise ValueError(
                    f"unknown aggregate op {op!r}; supported: "
                    f"{', '.join(AGG_OPS)}")
            normalized.append((out, op, column))
        return self._extend(Aggregate(tuple(normalized), group_by))

    def limit(self, n: int) -> "Plan":
        """Keep the first ``n`` matching rows (see :class:`Limit`); only
        a row plan takes one, and only one."""
        if type(n) is not int or n < 0:
            raise ValueError(f"limit must be an integer >= 0, got {n!r}")
        tail = self.nodes[-1]
        if not isinstance(tail, (Scan, Filter, Project)):
            raise ValueError(f"limit() applies to a row plan; it cannot "
                             f"follow {type(tail).__name__}")
        return Plan(self.nodes + (Limit(n),))

    def join(self, on: str, keys=None, build: dict | None = None,
             how: str = "semi") -> "Plan":
        """Terminal hash join probing ``on`` (see :class:`HashJoin`)."""
        if how not in JOIN_MODES:
            raise ValueError(f"unknown join mode {how!r}; supported: "
                             f"{', '.join(JOIN_MODES)}")
        if build is not None:
            if on not in build:
                raise ValueError(f"build side is missing the join key "
                                 f"column {on!r}")
            keys = build[on]
        if keys is None:
            raise ValueError("join() needs keys or a build side")
        keys = np.asarray(keys, dtype=np.int64)
        payload = None
        if build is not None:
            payload = tuple(
                (name, np.asarray(colv)) for name, colv in build.items()
                if name != on)
            if how == "inner" and len(np.unique(keys)) != len(keys):
                raise ValueError("inner join build keys must be unique")
        return self._extend(HashJoin(on, keys, payload, how))

    # ----------------------------------------------------------- structure
    @property
    def scan_node(self) -> Scan:
        return self.nodes[0]

    def filter_expr(self) -> Expr | None:
        """All Filter nodes folded into one conjunction (or None)."""
        exprs = [n.expr for n in self.nodes if isinstance(n, Filter)]
        return And.of(*exprs) if exprs else None

    def terminal(self):
        """The Aggregate/HashJoin tail, or ``None`` for a row plan."""
        tail = self.nodes[-1]
        return tail if isinstance(tail, _TERMINAL) else None

    @property
    def row_limit(self) -> int | None:
        """The Limit's ``n``, or ``None`` when every match is kept."""
        tail = self.nodes[-1]
        return tail.n if isinstance(tail, Limit) else None

    def output_columns(self, source_columns: tuple) -> tuple:
        """Columns the plan materialises, after projections."""
        cols = self.scan_node.columns or tuple(source_columns)
        for node in self.nodes:
            if isinstance(node, Project):
                cols = node.columns
        return cols

    # ------------------------------------------------------------- execute
    def execute(self, source, **opts):
        """Run over ``source``; ``opts`` are
        :func:`repro.exec.run.execute`'s keywords, passed verbatim."""
        from repro.exec.run import execute

        return execute(self, source, **opts)

    # ----------------------------------------------------------------- wire
    def to_json(self) -> dict:
        """Plain-JSON form of the whole plan (for the serve wire layer).

        Round-trips through :meth:`from_json`: every node and every
        expression tree serialises losslessly (bitmaps as base64
        ``packbits``, build payloads as value lists).
        """
        nodes: list[dict] = []
        for node in self.nodes:
            if isinstance(node, Scan):
                nodes.append({"kind": "scan",
                              "columns": list(node.columns)
                              if node.columns is not None else None})
            elif isinstance(node, Filter):
                nodes.append({"kind": "filter",
                              "expr": node.expr.to_json()})
            elif isinstance(node, Project):
                nodes.append({"kind": "project",
                              "columns": list(node.columns)})
            elif isinstance(node, Aggregate):
                nodes.append({
                    "kind": "aggregate",
                    "aggs": [[out, op, column]
                             for out, op, column in node.aggs],
                    "group_by": node.group_by})
            elif isinstance(node, Limit):
                nodes.append({"kind": "limit", "n": node.n})
            else:  # HashJoin
                nodes.append({
                    "kind": "join", "on": node.on, "how": node.how,
                    "keys": [int(k) for k in node.keys],
                    "build": None if node.build is None else
                    [[name, [int(v) for v in values]]
                     for name, values in node.build]})
        return {"v": PLAN_JSON_VERSION, "nodes": nodes}

    @classmethod
    def from_json(cls, obj: dict) -> "Plan":
        """Revive a plan from its :meth:`to_json` dict.

        Re-runs every fluent-builder validation, and rejects unknown
        versions and node kinds with one-line :class:`ValueError`\\ s —
        the server forwards those verbatim instead of dying.
        """
        if not isinstance(obj, dict):
            raise ValueError(
                f"plan JSON must be a dict, got {type(obj).__name__}")
        version = obj.get("v")
        if version != PLAN_JSON_VERSION:
            raise ValueError(
                f"unsupported plan JSON version {version!r} "
                f"(this reader speaks {PLAN_JSON_VERSION})")
        nodes = obj.get("nodes")
        if not isinstance(nodes, list) or not nodes:
            raise ValueError("plan JSON carries no nodes")
        first = nodes[0]
        if not isinstance(first, dict) or first.get("kind") != "scan":
            raise ValueError("plan JSON must start with a scan node")
        try:
            plan = cls.scan(first["columns"])
            for node in nodes[1:]:
                kind = node.get("kind") if isinstance(node, dict) \
                    else None
                if kind == "filter":
                    plan = plan.where(expr_from_json(node["expr"]))
                elif kind == "project":
                    plan = plan.project(node["columns"])
                elif kind == "aggregate":
                    aggs = {out: (op, column)
                            for out, op, column in node["aggs"]}
                    if len(aggs) != len(node["aggs"]):
                        raise ValueError(
                            "aggregate JSON repeats an output name")
                    plan = plan.aggregate(aggs,
                                          group_by=node["group_by"])
                elif kind == "join":
                    build = node.get("build")
                    if build is not None:
                        build = dict(
                            [[node["on"], node["keys"]]]
                            + [[name, values]
                               for name, values in build])
                    plan = plan.join(node["on"], keys=node["keys"],
                                     build=build, how=node["how"])
                elif kind == "limit":
                    plan = plan.limit(node["n"])
                elif kind == "scan":
                    raise ValueError(
                        "plan JSON has a second scan node")
                else:
                    raise ValueError(
                        f"unknown plan node kind {kind!r}; supported: "
                        f"scan, filter, project, aggregate, join, limit")
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed plan JSON: {err}") from err
        return plan

    # ------------------------------------------------------------- explain
    def describe_nodes(self) -> list:
        """One line per operator, innermost (Scan) last."""
        lines = []
        for node in self.nodes:
            if isinstance(node, Scan):
                cols = "*" if node.columns is None else \
                    ", ".join(node.columns)
                lines.append(f"Scan[columns=({cols})]")
            elif isinstance(node, Filter):
                lines.append(f"Filter[{node.expr!r}]")
            elif isinstance(node, Project):
                lines.append(f"Project[{', '.join(node.columns)}]")
            elif isinstance(node, Aggregate):
                parts = ", ".join(
                    f"{out}={op}({column})" if op != "count"
                    else f"{out}=count(*)"
                    for out, op, column in node.aggs)
                group = node.group_by if node.group_by else "<global>"
                lines.append(f"Aggregate[group_by={group}: {parts}]")
            elif isinstance(node, HashJoin):
                lines.append(
                    f"HashJoin[{node.how} on {node.on}, "
                    f"{len(node.keys)} build keys]")
            elif isinstance(node, Limit):
                lines.append(f"Limit[{node.n}]")
        return lines

    def explain(self) -> str:
        """Static plan rendering (no execution counts)."""
        lines = self.describe_nodes()
        return "\n".join(f"{'  ' * i}{line}"
                         for i, line in enumerate(reversed(lines)))

    def __repr__(self) -> str:
        return f"Plan({' -> '.join(type(n).__name__ for n in self.nodes)})"
