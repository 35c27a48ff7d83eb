"""Dictionary-compressed hash-probe under a memory budget (paper §4.5).

The experiment: the probe side of a hash join is dictionary-encoded with an
order-preserving dictionary; the dictionary itself is compressed with LeCo,
FOR, or kept raw.  A memory budget covers the hash table plus whatever part
of the dictionary fits; dictionary accesses that fall outside the resident
fraction are charged as buffer-pool misses (one page read each).  When LeCo
shrinks the dictionary below the leftover budget the misses vanish — the
paper's up-to-95.7x cliff.

Since PR 4 the probe pipeline is a plan over :mod:`repro.exec`: the
dictionary-encoded column becomes an in-memory
:class:`~repro.exec.source.ArraySource` column, the random filter is a
positional :class:`~repro.exec.Bitmap` term, and the probe itself is the
executor's semi :class:`~repro.exec.plan.HashJoin` operator — the same
operator any backend's plans use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import codecs
from repro.engine.io import IODelta, IOModel
from repro.exec import ArraySource, Bitmap, Plan

PAGE_BYTES = 4096


@dataclass
class ProbeResult:
    throughput_gbps: float
    dictionary_bytes: int
    miss_fraction: float
    hits: int


def _encode_dictionary(uniques: np.ndarray, method: str):
    """Returns (decode_fn, stored_bytes) for the dictionary values."""
    if method == "raw":
        return (lambda codes: uniques[codes]), uniques.nbytes
    if method not in ("for", "leco"):
        raise ValueError(f"unknown dictionary method {method!r}")
    seq = codecs.get(method, partitioner=128).encode(uniques)
    return seq.gather, seq.compressed_size_bytes()


class _DictionaryColumn:
    """The probe column as seen through its compressed dictionary.

    Speaks the slice of the sequence protocol the executor needs:
    every access decodes dictionary codes through ``decode`` (so the
    exec layer's gather is exactly the paper's filter → dictionary
    decode stage).
    """

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

    def filter_range(self, lo: int, hi: int) -> np.ndarray:
        values = self.decode_all()
        return (values >= lo) & (values < hi)


def run_hash_probe(probe_values: np.ndarray, method: str,
                   memory_budget_bytes: int,
                   hash_table_bytes: int,
                   filter_selectivity: float = 0.01,
                   hit_ratio: float = 0.5,
                   io: IOModel | None = None,
                   seed: int = 5) -> ProbeResult:
    """Filter -> dictionary decode -> hash probe, under a memory budget."""
    delta = IODelta(io or IOModel())
    io = delta.io
    rng = np.random.default_rng(seed)
    probe_values = np.asarray(probe_values, dtype=np.int64)

    uniques, codes = np.unique(probe_values, return_inverse=True)
    decode, dict_bytes = _encode_dictionary(uniques, method)

    # hash table keyed on `hit_ratio` of the unique values
    build_keys = rng.choice(uniques, size=max(int(len(uniques) * hit_ratio),
                                              1), replace=False)

    # what fraction of the dictionary stays resident under the budget?
    leftover = max(memory_budget_bytes - hash_table_bytes, 0)
    resident = min(1.0, leftover / max(dict_bytes, 1))
    miss_fraction = 1.0 - resident

    n = len(probe_values)
    selected = rng.random(n) < filter_selectivity

    source = ArraySource({"probe": _DictionaryColumn(decode, codes)},
                         name=f"dict-probe[{method}]")
    plan = (Plan.scan(["probe"])
            .where(Bitmap(selected))
            .join(on="probe", keys=build_keys, how="semi"))
    res = plan.execute(source)

    # each non-resident dictionary access is a page miss, charged onto
    # the caller's accumulator; the throughput uses this probe's delta
    misses = int(res.stats.rows_scanned * miss_fraction)
    io.bytes_read += misses * PAGE_BYTES
    io.reads += misses

    cpu = (res.stats.cpu_filter_s + res.stats.cpu_gather_s
           + res.stats.cpu_join_s)
    total = cpu + delta.seconds
    raw_bytes = probe_values.nbytes
    return ProbeResult(
        throughput_gbps=raw_bytes / total / 1e9,
        dictionary_bytes=dict_bytes,
        miss_fraction=miss_fraction,
        hits=res.n_rows,
    )
