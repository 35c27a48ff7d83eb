"""Cold store tables for the paper's §5.1 host-system figures (Figs. 18–21).

The figures measure LeCo inside a host system, and the host system here
is :mod:`repro.store`: :func:`cold_table` writes the columns into a
temporary table directory and opens it with no chunk cache, so every
chunk a query loads is a read that ``ExecStats.bytes_read`` and
``ExecStats.reads`` count.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from repro.codecs.simple import DICT_MAX_FRACTION
from repro.store import Table, write_table


def figure_codec(values: np.ndarray, encoding: str) -> str:
    """The store codec one column is written with under a figure encoding.

    ``"dict"`` is Parquet's Default encoding: a column whose distinct
    share exceeds :data:`DICT_MAX_FRACTION` is written ``"plain"``.
    Every other encoding is its registry codec.
    """
    if encoding == "dict" and \
            len(np.unique(values)) > DICT_MAX_FRACTION * len(values):
        return "plain"
    return encoding


@contextmanager
def cold_table(columns: dict[str, np.ndarray], encoding: str,
               chunk_rows: int) -> Iterator[Table]:
    """Write ``columns`` under one figure encoding into a temporary
    directory and yield the table opened with ``cache_bytes=0``; the
    directory is removed on exit."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table")
        write_table(path, columns, chunk_rows=chunk_rows,
                    codec={name: figure_codec(values, encoding)
                           for name, values in columns.items()})
        with Table.open(path, cache_bytes=0) as table:
            yield table
