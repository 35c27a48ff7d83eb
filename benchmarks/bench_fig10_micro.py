"""Figure 10 — the main integer microbenchmark.

Twelve datasets x {rANS, FOR, Elias-Fano, Delta-fix, Delta-var, LeCo-fix,
LeCo-var}: compression ratio (with the model-size share), random-access
latency, and full-decompression throughput.  Elias-Fano is skipped on the
unsorted sets (poisson, movieid), as in the paper; rANS gets ten probes
because its Python decode is strictly sequential.

The line-up x dataset matrix is the costliest measurement of the suite and
is taken once per process (:func:`lineup_matrix`); Fig. 2 and Table 1 are
views of it.
"""

import functools

from repro import codecs
from repro.bench import LINEUP, Measurement, measure_codec
from repro.datasets import FIG10_DATASETS, load

TITLE = "Figure 10: compression microbenchmark"
CAPTION = ("ratio (model share) / random access / decode and compress "
           "throughput on the twelve integer datasets")
COLUMNS = (("dataset", "{}"), ("codec", "{}"), ("ratio", "{:.1%}"),
           ("model", "{:.2%}"), ("RA ns", "{:.0f}"),
           ("dec GB/s", "{:.3f}"), ("enc GB/s", "{:.4f}"))
N = 4000
PROBES = 100


@functools.cache
def lineup_matrix() -> dict[str, list[Measurement]]:
    """The line-up (plus Elias-Fano where sorted) on every Fig. 10
    dataset, by dataset.  Cached: callers must not mutate it."""
    matrix = {}
    for name in FIG10_DATASETS:
        ds = load(name, n=N)
        matrix[name] = [
            measure_codec(codecs.get(codec), ds, n_random=PROBES, repeats=1)
            for codec in LINEUP + (("elias-fano",) if ds.sorted else ())]
    return matrix


def lineup_by_codec() -> dict[str, list[Measurement]]:
    """The same matrix, by codec label, datasets in Fig. 10 order."""
    per_codec: dict[str, list[Measurement]] = {}
    for measurements in lineup_matrix().values():
        for m in measurements:
            per_codec.setdefault(m.codec, []).append(m)
    return per_codec


def rows() -> list[tuple]:
    out = []
    for name, measurements in lineup_matrix().items():
        rans = measure_codec(codecs.get("rans"), load(name, n=N),
                             n_random=10, repeats=1)
        out += [(name, m.codec, m.compression_ratio, m.model_ratio,
                 m.random_access_ns, m.decode_gbps, m.compress_gbps)
                for m in measurements + [rans]]
    return out


def _by_dataset(rows, codec: str, column: int) -> dict:
    return {r[0]: r[column] for r in rows if r[1] == codec}


def _no_worse(rows, codec: str, than: str, column: int,
              slack: float = 1.0) -> bool:
    ours, theirs = (_by_dataset(rows, c, column) for c in (codec, than))
    return all(ours[d] <= slack * theirs[d] for d in theirs)


CLAIMS = (
    ("LeCo-fix compresses no worse than FOR on all twelve datasets "
     "(FOR is LeCo with a constant model)",
     lambda rows: _no_worse(rows, "leco-fix", "for", 2)),
    ("LeCo-var compresses no worse than LeCo-fix on all twelve datasets",
     lambda rows: _no_worse(rows, "leco-var", "leco-fix", 2)),
    ("FOR random access is within 3x of LeCo-fix's on every dataset "
     "(paper: FOR is the fastest)",
     lambda rows: _no_worse(rows, "for", "leco-fix", 4, slack=3.0)),
)
