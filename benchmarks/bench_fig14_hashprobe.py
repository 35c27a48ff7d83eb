"""Figure 14 — dictionary-compressed hash probe vs memory budget (§4.5).

The probe side of a hash join is dictionary-encoded; the order-preserving
dictionary is compressed with LeCo, FOR, or kept raw.  Sweeping the memory
budget down, the big dictionaries spill out of the buffer pool and every
probe pays page misses; LeCo's dictionary stays resident the longest.
The subject is residency, not a file, so the probe column stays in memory
(an ``ArraySource`` decoding through the dictionary, probed by the
executor's semi join); a non-resident dictionary access is one page read.
"""

from dataclasses import dataclass

import numpy as np

from repro import codecs
from repro.datasets import load
from repro.exec import ArraySource, Bitmap, Plan

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
#: a dictionary page miss: one 4 KiB read at ~2 GB/s plus 100 us latency
PAGE_BYTES = 4096
BANDWIDTH = 2e9
LATENCY_S = 100e-6


@dataclass
class ProbeResult:
    throughput_gbps: float
    dictionary_bytes: int
    miss_fraction: float


class _DictionaryColumn:
    """The probe column as seen through its compressed dictionary: the
    slice of the sequence protocol the executor needs, every access
    decoding dictionary codes through ``decode`` (so the executor's
    gather is the paper's filter → dictionary decode stage)."""

    def __init__(self, decode, codes: np.ndarray):
        self._decode = decode
        self._codes = codes

    def __len__(self) -> int:
        return len(self._codes)

    def decode_all(self) -> np.ndarray:
        return np.asarray(self._decode(self._codes), dtype=np.int64)

    def gather(self, positions: np.ndarray) -> np.ndarray:
        codes = self._codes[np.asarray(positions, dtype=np.int64)]
        return np.asarray(self._decode(codes), dtype=np.int64)


def run_hash_probe(probe_values: np.ndarray, method: str,
                   memory_budget_bytes: int, hash_table_bytes: int,
                   filter_selectivity: float = 0.01,
                   hit_ratio: float = 0.5, seed: int = 5) -> ProbeResult:
    """Filter -> dictionary decode -> hash probe, under a memory budget;
    ``method`` stores the dictionary as ``"raw"``, ``"for"`` or
    ``"leco"``."""
    rng = np.random.default_rng(seed)
    probe_values = np.asarray(probe_values, dtype=np.int64)
    uniques, codes = np.unique(probe_values, return_inverse=True)
    if method == "raw":
        decode, dict_bytes = (lambda c: uniques[c]), uniques.nbytes
    else:
        seq = codecs.get(method, partitioner=128).encode(uniques)
        decode, dict_bytes = seq.gather, seq.compressed_size_bytes()

    # hash table keyed on `hit_ratio` of the unique values
    build_keys = rng.choice(uniques, size=max(int(len(uniques) * hit_ratio),
                                              1), replace=False)
    # what fraction of the dictionary stays resident under the budget?
    leftover = max(memory_budget_bytes - hash_table_bytes, 0)
    miss_fraction = 1.0 - min(1.0, leftover / max(dict_bytes, 1))
    selected = rng.random(len(probe_values)) < filter_selectivity

    source = ArraySource({"probe": _DictionaryColumn(decode, codes)},
                         name=f"dict-probe[{method}]")
    plan = (Plan.scan(["probe"])
            .where(Bitmap(selected))
            .join(on="probe", keys=build_keys, how="semi"))
    res = plan.execute(source)

    misses = int(res.stats.rows_scanned * miss_fraction)
    disk_s = misses * (PAGE_BYTES / BANDWIDTH + LATENCY_S)
    return ProbeResult(
        throughput_gbps=probe_values.nbytes / (res.stats.cpu_s + disk_s)
        / 1e9,
        dictionary_bytes=dict_bytes,
        miss_fraction=miss_fraction,
    )


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
