"""Figure 21 — CPU/IO breakdown of block compression on the query path.

Repeats the bitmap-selection query (ml, selectivity 0.01%) over a cold
store table for Default/FOR/LeCo encodings, without and with block
compression: with it on, every chunk the query loaded is read as its
DEFLATE'd copy (the zstd stand-in, as in Fig. 20) and inflated first, and
that inflation is added to the query's CPU.  The paper's finding: zstd's
I/O savings are outweighed by its decompression CPU — the motivation for
lightweight compression in §2.
"""

import time
import zlib

from repro.bench import cold_table
from repro.datasets import load
from repro.datasets.synthetic import zipf_cluster_bitmap
from repro.exec import Bitmap, GranulePipeline, Plan, execute
from repro.store import StoreSource

TITLE = "Figure 21: time breakdown with block compression"
CAPTION = ("bitmap query on ml at 0.01% selectivity (ms); block "
           "decompression CPU vs I/O savings")
COLUMNS = (("encoding", "{}"), ("zstd", "{}"), ("file", "{:.3f}MB"),
           ("cpu ms", "{:.2f}"), ("io ms", "{:.3f}"), ("total ms", "{:.2f}"))
N = 60_000
ENCODINGS = ("dict", "for", "leco")
#: the I/O model: ~2 GB/s sequential NVMe reads, 100 us per read
BANDWIDTH = 2e9
LATENCY_S = 100e-6
#: the zstd stand-in's compression level
LEVEL = 3


def inflated_run(table, plan):
    """Run ``plan`` cold on the single-column ``table``, then inflate the
    DEFLATE'd copy of exactly the chunks it loaded.  Returns the result,
    every chunk's DEFLATE'd copy, the copies inflated, and the seconds
    inflating took."""
    column, = table.column_names
    blobs = [zlib.compress(table.chunk_bytes(i, meta), LEVEL)
             for i, shard in enumerate(table.shards)
             for meta in shard.by_column[column]]
    source = StoreSource(table)
    res = execute(plan, source)
    pruned = GranulePipeline(plan, source).pruned
    read = [blob for blob, skip in zip(blobs, pruned) if not skip]
    t0 = time.perf_counter()
    for blob in read:
        zlib.decompress(blob)
    return res, blobs, read, time.perf_counter() - t0


def rows() -> list[tuple]:
    values = load("ml", n=N).values
    bitmap = zipf_cluster_bitmap(N, 0.0001, seed=3)
    plan = (Plan.scan(["v"]).where(Bitmap(bitmap))
            .aggregate({"total": ("sum", "v")}))
    out = []
    for enc in ENCODINGS:
        with cold_table({"v": values}, enc, chunk_rows=10_000) as table:
            res, blobs, read, inflate_s = inflated_run(table, plan)
            stored = table.stored_bytes()
        assert res.groups[None]["total"] == int(values[bitmap].sum()), enc
        st = res.stats
        for zstd, size, nbytes, cpu_s in (
                ("off", stored, st.bytes_read, st.cpu_s),
                ("on", sum(map(len, blobs)), sum(map(len, read)),
                 st.cpu_s + inflate_s)):
            disk_s = nbytes / BANDWIDTH + st.reads * LATENCY_S
            out.append((enc, zstd, size / 1e6, cpu_s * 1e3, disk_s * 1e3,
                        (cpu_s + disk_s) * 1e3))
    return out


def _cell(rows, encoding: str, zstd: str, column: int) -> float:
    return next(r[column] for r in rows if r[:2] == (encoding, zstd))


CLAIMS = (
    ("zstd's I/O saving is outweighed by its decompression CPU where it "
     "compresses most (Default encoding): CPU added exceeds I/O saved",
     lambda rows: _cell(rows, "dict", "on", 3) - _cell(rows, "dict", "off", 3)
     > _cell(rows, "dict", "off", 4) - _cell(rows, "dict", "on", 4)),
)
