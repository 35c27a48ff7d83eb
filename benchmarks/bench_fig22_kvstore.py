"""Figure 22 — RocksDB-style Seek throughput vs block-cache size (§5.2).

A mini LSM with 4KB data blocks and pinned index blocks, index codecs
LeCo vs restart-interval {1, 16, 128}, skewed (80/20) Seek workload,
sweeping the block-cache budget.  Mechanisms reproduced: (a) smaller index
blocks leave more cache for data blocks; (b) LeCo answers an index lookup
with O(log n) random accesses while large restart intervals decode a whole
interval per lookup.  The paper's result: LeCo seeks faster than every
restart-interval baseline.
"""

from repro.kvstore import MiniLSM, make_records, skewed_seek_keys

TITLE = "Figure 22: KV-store Seek throughput vs cache size"
COLUMNS = (("cache", "{}KB"), ("config", "{}"),
           ("index", lambda nbytes: f"{nbytes / 1024:.0f}KB"),
           ("kops/s", "{:.1f}"), ("data hit rate", "{:.2f}"))
N_RECORDS = 60_000
N_SEEKS = 8000
CONFIGS = (
    ("baseline_1", "restart", 1),
    ("baseline_16", "restart", 16),
    ("baseline_128", "restart", 128),
    ("leco", "leco", 1),
)
#: scaled-down analogue of the paper's 2GB..10GB cache sweep
CACHE_SIZES = (1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 21)


def rows() -> list[tuple]:
    """One row per (cache size, config); past COLUMNS each row carries
    the raw separator bytes the caption compares index sizes against."""
    records = make_records(N_RECORDS, value_bytes=100)
    keys = skewed_seek_keys(records, N_SEEKS)
    raw = MiniLSM(records, "restart", restart_interval=1,
                  table_records=20_000).raw_index_bytes()
    out = []
    for cache in CACHE_SIZES:
        for label, codec, ri in CONFIGS:
            db = MiniLSM(records, codec, restart_interval=ri,
                         table_records=20_000, cache_bytes=cache)
            stats = db.run_seeks(keys)
            hit_rate = stats.cache_hits / max(
                stats.cache_hits + stats.cache_misses, 1)
            out.append((cache >> 10, label, db.index_bytes(),
                        stats.throughput_mops * 1000, hit_rate, raw))
    return out


def CAPTION(rows) -> str:
    raw = rows[0][5]
    return f"index bytes vs raw separators ({raw}): " + ", ".join(
        f"{label}={nbytes / raw:.1%}"
        for _, label, nbytes, *_ in rows[:len(CONFIGS)])


def _by_cache(rows, config: str, column: int) -> dict:
    return {r[0]: r[column] for r in rows if r[1] == config}


CLAIMS = (
    ("LeCo's index blocks are the smallest of the four configurations",
     lambda rows: all(_by_cache(rows, "leco", 2)[r[0]] < r[2]
                      for r in rows if r[1] != "leco")),
    ("smaller index blocks leave more cache for data: LeCo's data-block "
     "hit rate is at least restart-interval 1's at every cache size",
     lambda rows: all(rate >= _by_cache(rows, "baseline_1", 4)[cache]
                      for cache, rate in _by_cache(rows, "leco", 4).items())),
    ("LeCo seeks at least as fast as restart-interval 1 at every cache "
     "size",
     lambda rows: all(kops >= _by_cache(rows, "baseline_1", 3)[cache]
                      for cache, kops in _by_cache(rows, "leco", 3).items())),
)
