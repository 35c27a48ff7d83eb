"""Figure 5 — compression ratio vs fixed partition size (the U-shape).

Sweeps the fixed block size on ``booksale`` and ``normal`` and prints the
ratio trend; the paper's point is the U-shape that motivates the sampling
search of §3.2.1.
"""

from repro import codecs
from repro.datasets import load

TITLE = "Figure 5: compression ratio vs block size"
CAPTION = "the U-shape motivating the sampling-based size search (§3.2.1)"
COLUMNS = (("dataset", "{}"), ("block size", "{}"), ("ratio", "{:.1%}"))
N = 4000
SIZES = (4, 16, 64, 256, 1024)


def rows() -> list[tuple]:
    out = []
    for name in ("booksale", "normal"):
        ds = load(name, n=N)
        for size in SIZES:
            enc = codecs.get("leco", partitioner=size).encode(ds.values)
            out.append((name, size,
                        enc.compressed_size_bytes() / ds.uncompressed_bytes))
    return out


def _u_shaped(ratios: list) -> bool:
    best = ratios.index(min(ratios))
    return (0 < best < len(ratios) - 1
            and ratios[:best + 1] == sorted(ratios[:best + 1], reverse=True)
            and ratios[best:] == sorted(ratios[best:]))


CLAIMS = (
    ("on both datasets the ratio falls to a minimum at an interior block "
     "size and rises again (the U-shape)",
     lambda rows: all(_u_shaped([r[2] for r in rows if r[0] == name])
                      for name in {r[0] for r in rows})),
)
