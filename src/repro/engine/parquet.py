"""Row-grouped columnar file format — the Parquet stand-in (§5.1).

A :class:`ParquetLikeFile` holds row groups of encoded column chunks,
optionally block-compressed (the zstd stand-in).  ``scan_column`` charges
the I/O model for the bytes actually read and pays the real CPU cost of
block decompression, so the Fig. 18–21 benchmarks get a faithful CPU/IO
breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import codecs
from repro.engine.array import EncodedColumn
from repro.engine.blockzstd import block_compress, block_decompress
from repro.engine.io import IOModel
from repro.exec.source import ColumnSource, Granule, zone_arrays


@dataclass
class ColumnChunk:
    """One column within one row group."""

    column: EncodedColumn
    compressed_payload: bytes | None  # set when block compression is on

    def stored_bytes(self) -> int:
        if self.compressed_payload is not None:
            return len(self.compressed_payload)
        return self.column.size_bytes()


class RowGroup:
    def __init__(self, start: int, chunks: dict[str, ColumnChunk]):
        self.start = start
        self.chunks = chunks

    @property
    def n_rows(self) -> int:
        return next(iter(self.chunks.values())).column.n


class ParquetLikeFile:
    """An immutable columnar file: row groups x encoded column chunks."""

    def __init__(self, row_groups: list[RowGroup], encoding: str,
                 block_compression: bool):
        self.row_groups = row_groups
        self.encoding = encoding
        self.block_compression = block_compression

    @classmethod
    def write(cls, table: dict[str, np.ndarray], encoding: str,
              row_group_size: int = 100_000,
              block_compression: bool = False,
              partition_size: int = 10_000) -> "ParquetLikeFile":
        """Encode ``table`` (dict of equal-length int columns) into a file."""
        n = len(next(iter(table.values())))
        for name, col in table.items():
            if len(col) != n:
                raise ValueError(f"column {name} length mismatch")
        groups = []
        for start in range(0, n, row_group_size):
            end = min(start + row_group_size, n)
            chunks = {}
            for name, col in table.items():
                encoded = EncodedColumn(col[start:end], encoding,
                                        partition_size)
                payload = None
                if block_compression:
                    payload = block_compress(encoded.payload_bytes())
                chunks[name] = ColumnChunk(encoded, payload)
            groups.append(RowGroup(start, chunks))
        return cls(groups, encoding, block_compression)

    @property
    def n_rows(self) -> int:
        return sum(g.n_rows for g in self.row_groups)

    def file_size_bytes(self) -> int:
        return sum(chunk.stored_bytes() for g in self.row_groups
                   for chunk in g.chunks.values())

    def scan_column(self, group: RowGroup, name: str,
                    io: IOModel | None = None) -> EncodedColumn:
        """Load one column chunk: charge its bytes, pay decompression CPU."""
        chunk = group.chunks[name]
        if io is not None:
            io.charge(chunk.stored_bytes())
        if chunk.compressed_payload is not None:
            # real CPU cost of undoing the block compression
            block_decompress(chunk.compressed_payload)
        return chunk.column


class ParquetSource(ColumnSource):
    """:class:`~repro.exec.source.ColumnSource` over a ParquetLikeFile.

    Granules are row groups.  Zone maps come from the encoded
    sequences' ``model_bounds()`` — consulted only for codecs whose
    registry entry sets ``supports_model_bounds`` (the LeCo family), so
    the planner reads the same capability flag as the store writer —
    and are built per column on its first zone-map test.
    Loads charge the supplied :class:`IOModel` exactly like
    :meth:`ParquetLikeFile.scan_column`; the model's running totals are
    an unlocked accumulator, so the source reports
    ``parallel_safe=False`` and the executor stays on one thread.
    """

    parallel_safe = False

    def __init__(self, file: ParquetLikeFile, io: IOModel | None = None):
        self.file = file
        self.io = io
        self._granules = tuple(
            Granule(i, group.start, group.n_rows)
            for i, group in enumerate(file.row_groups))
        self._zones: dict[str, tuple] = {}

    @property
    def column_names(self) -> tuple:
        if not self.file.row_groups:
            return ()
        return tuple(self.file.row_groups[0].chunks)

    @property
    def n_rows(self) -> int:
        return self.file.n_rows

    def granules(self) -> tuple:
        return self._granules

    def zone_maps(self, column: str) -> tuple:
        zones = self._zones.get(column)
        if zones is None:
            encoded = [group.chunks[column].column
                       for group in self.file.row_groups]
            zones = self._zones[column] = zone_arrays(
                enc.sequence.model_bounds()
                if codecs.info(enc.encoding).supports_model_bounds
                else None for enc in encoded)
        return zones

    def load(self, granule: Granule, column: str, stats):
        group = self.file.row_groups[granule.index]
        nbytes = group.chunks[column].stored_bytes()
        encoded = self.file.scan_column(group, column, self.io)
        if stats is not None:
            stats.chunks_scanned += 1
            stats.bytes_scanned += nbytes
            stats.bytes_read += nbytes
            stats.reads += 1
            if self.io is not None:
                stats.io_s += (nbytes / self.io.bandwidth_bytes_per_s
                               + self.io.latency_s)
        return encoded

    def describe(self) -> str:
        label = f"parquet({self.file.encoding}"
        if self.file.block_compression:
            label += "+zstd"
        return label + ")"
