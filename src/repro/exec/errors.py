"""Error types shared by the execution layer and its column sources.

These live in ``repro.exec`` (not ``repro.store``) because the store
imports the executor for its scan path — sources raise them upward and
the run loop maps them onto the query's error policy:

* :class:`CorruptChunkError` — a checksum or envelope failed on revive.
  ``on_corruption="raise"`` (default) propagates it naming the shard
  file, column, and row range; ``"skip"`` quarantines the chunk and
  charges :attr:`ExecStats.chunks_corrupt`.
* :class:`GranuleError` — any other worker exception, re-raised wrapped
  with granule/shard/column context after in-flight work is cancelled.
* :class:`ExecTimeout` — the query exceeded ``timeout_s``; carries the
  partial :class:`ExecStats` so callers can see how far it got.
* :class:`ServerBusy` — admission control turned the query away before
  any work ran: the morsel scheduler's in-flight and parked budgets
  are both full (backpressure, the opposite of a hang).
"""

from __future__ import annotations

__all__ = ["CorruptChunkError", "ExecError", "ExecTimeout", "GranuleError",
           "ServerBusy"]


class ExecError(RuntimeError):
    """Base class for execution-layer failures."""


class CorruptChunkError(ValueError):
    """A column chunk failed verification on its way out of storage.

    A :class:`ValueError` (not :class:`ExecError`): corruption is a
    *data* problem detectable outside any query — scrub and the shard
    reader raise it too.
    """

    def __init__(self, message: str, *, file: str | None = None,
                 column: str | None = None,
                 row_start: int | None = None,
                 n_rows: int | None = None):
        where = []
        if file is not None:
            where.append(f"shard {file!r}")
        if column is not None:
            where.append(f"column {column!r}")
        if row_start is not None:
            end = "?" if n_rows is None else row_start + n_rows
            where.append(f"rows [{row_start}, {end})")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.file = file
        self.column = column
        self.row_start = row_start
        self.n_rows = n_rows


class GranuleError(ExecError):
    """A granule worker failed; wraps the cause with location context.

    The original exception is chained as ``__cause__`` and kept on
    :attr:`cause`; :attr:`granule` / :attr:`shard` / :attr:`column`
    say where the work was when it died.
    """

    def __init__(self, cause: BaseException, *, granule: int,
                 shard: str | None = None, column: str | None = None):
        where = f"granule {granule}"
        if shard is not None:
            where += f" of shard {shard!r}"
        if column is not None:
            where += f", column {column!r}"
        super().__init__(
            f"{where}: {type(cause).__name__}: {cause}")
        self.cause = cause
        self.granule = granule
        self.shard = shard
        self.column = column


class ServerBusy(ExecError):
    """Admission control rejected the query: every execution slot and
    every parking slot of the scheduler is taken.  Nothing ran — retry
    later (the error is immediate by design, never a queue-forever).
    """


class ExecTimeout(ExecError):
    """``timeout_s`` elapsed; outstanding granules were cancelled.

    :attr:`stats` holds the partial :class:`~repro.exec.stats.ExecStats`
    accumulated before the deadline — enough to tell a slow plan from a
    stuck source.
    """

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats
