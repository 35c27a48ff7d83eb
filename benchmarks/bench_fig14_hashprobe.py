"""Figure 14 — dictionary-compressed hash probe vs memory budget (§4.5).

The probe side of a hash join is dictionary-encoded; the order-preserving
dictionary is compressed with LeCo, FOR, or kept raw.  Sweeping the memory
budget down, the big dictionaries spill out of the buffer pool and every
probe pays page misses; LeCo's dictionary stays resident the longest.
"""

from repro.datasets import load
from repro.engine import run_hash_probe

TITLE = "Figure 14: hash-probe throughput vs memory budget"
COLUMNS = (("budget", "{}KB"), ("leco GB/s", "{:.3f}"),
           ("for GB/s", "{:.3f}"), ("raw GB/s", "{:.3f}"),
           ("leco/for", "{:.1f}x"))
N = 120_000
METHODS = ("leco", "for", "raw")
#: the paper's fixed build-side table
HASH_TABLE = 128 << 10
#: scaled-down analogue of the paper's 3GB -> 500MB sweep; the points
#: bracket the three dictionary sizes (raw ~96KB > FOR ~28KB > LeCo ~9KB)
#: so each scheme falls off the buffer-pool cliff at a different budget
BUDGETS = [HASH_TABLE + extra for extra in
           (4 << 20, 128 << 10, 32 << 10, 16 << 10, 8 << 10, 4 << 10)]


def rows() -> list[tuple]:
    """One row per budget; past COLUMNS each row carries the three
    dictionary sizes in bytes (METHODS order) for the caption and claims."""
    probe = load("medicare", n=N).values
    out = []
    for budget in BUDGETS:
        leco, for_, raw = (
            run_hash_probe(probe, method, memory_budget_bytes=budget,
                           hash_table_bytes=HASH_TABLE)
            for method in METHODS)
        out.append((budget >> 10, leco.throughput_gbps, for_.throughput_gbps,
                    raw.throughput_gbps,
                    leco.throughput_gbps / max(for_.throughput_gbps, 1e-12),
                    leco.dictionary_bytes, for_.dictionary_bytes,
                    raw.dictionary_bytes))
    return out


def CAPTION(rows) -> str:
    return "dictionary bytes: leco={} for={} raw={}".format(*rows[0][5:])


CLAIMS = (
    ("LeCo's dictionary is the smallest (LeCo < FOR < raw)",
     lambda rows: all(r[5] < r[6] < r[7] for r in rows)),
    ("LeCo's dictionary outlives FOR's as the budget shrinks: where FOR's "
     "no longer fits beside the hash table and LeCo's does, the LeCo probe "
     "is at least 3x faster",
     lambda rows: any(r[4] >= 3 for r in rows
                      if r[5] <= (r[0] << 10) - HASH_TABLE < r[6])),
)
