"""Figure 15 — string compression: LeCo's extension vs FSST (§4.7).

On email / hex / word: FSST with offset delta-block sizes
{0, 20, 40, 60, 80, 100} (trading random access for ratio) against LeCo
with the power-of-two and tight character-set bases.  The paper's claims:
LeCo is faster at random access with competitive ratios on email/hex;
FSST's dictionary approach wins on human-readable words.
"""

import time

import numpy as np

from repro.baselines import FSSTCodec
from repro.core.strings import StringCompressor
from repro.datasets import load_strings

TITLE = "Figure 15: string evaluation"
CAPTION = ("ratio and random-access latency; FSST sweeps the offset "
           "delta-block, LeCo sweeps the character-set base")
COLUMNS = (("dataset", "{}"), ("config", "{}"), ("ratio", "{:.1%}"),
           ("RA ns", "{:.0f}"))
N = 8000
PROBES = 400
FSST_BLOCKS = (0, 20, 40, 60, 80, 100)


def _measure(encoded, data):
    rng = np.random.default_rng(0)
    positions = rng.integers(0, len(data), PROBES)
    start = time.perf_counter()
    for pos in positions:
        encoded.get(int(pos))
    ra_ns = (time.perf_counter() - start) / PROBES * 1e9
    raw = sum(len(s) for s in data)
    return encoded.compressed_size_bytes() / raw, ra_ns


def rows() -> list[tuple]:
    out = []
    for name in ("email", "hex", "word"):
        data = load_strings(name, N)
        for block in FSST_BLOCKS:
            enc = FSSTCodec(offset_block=block).encode(data)
            assert enc.decode_all() == data
            out.append((name, f"fsst(b={block})", *_measure(enc, data)))
        for pow2 in (True, False):
            comp = StringCompressor(partition_size=128,
                                    power_of_two_base=pow2).encode(data)
            assert comp.decode_all() == data
            base = comp.partitions[0].base
            out.append((name, f"leco(base={base})", *_measure(comp, data)))
    return out


def _cells(rows, dataset: str, scheme: str, column: int) -> list:
    return [r[column] for r in rows
            if r[0] == dataset and r[1].startswith(scheme)]


CLAIMS = (
    ("LeCo compresses email and hex better than every FSST configuration; "
     "FSST wins on human-readable words",
     lambda rows: all(max(_cells(rows, d, "leco", 2))
                      < min(_cells(rows, d, "fsst", 2))
                      for d in ("email", "hex"))
     and min(_cells(rows, "word", "fsst", 2))
     < min(_cells(rows, "word", "leco", 2))),
    ("on email and hex LeCo's random access is faster than FSST's with "
     "delta-coded offsets (block 100)",
     lambda rows: all(max(_cells(rows, d, "leco", 3))
                      < _cells(rows, d, "fsst(b=100)", 3)[0]
                      for d in ("email", "hex"))),
)
