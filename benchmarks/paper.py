"""The paper half of the repository, run one way.

    PYTHONPATH=src python benchmarks/paper.py [name ...]

Every ``bench_{fig,tab,ablation}*.py`` beside this file is an *experiment
module* reproducing one table or figure of the paper, with one shape:

* ``TITLE`` and ``CAPTION`` — the printed heading (``CAPTION`` is a
  string, or a function of the rows where it quotes a measured number);
* ``COLUMNS`` — ``(header, format)`` pairs, a format being a ``str.format``
  template or a function of the cell;
* the size constants it runs at (``N`` ...), scaled down from the paper's
  10^8 rows for the pure-Python substrate — the one committed size, so a
  verdict below is a statement about this tree and not about a setting;
* ``rows() -> list[tuple]`` — the measured table as raw numbers, one tuple
  per printed row (a row may carry fields past ``COLUMNS`` that a caption
  or claim reads but the table does not print);
* ``CLAIMS`` — ``(text, predicate(rows))`` pairs: what the paper says this
  table shows, as orderings and ratios (3x slack on anything timed, never
  absolute GB/s), so "reproduces the paper" is checked, not read.

This runner is the only entry point: it prints each table, evaluates the
claims, prints the scoreboard (``figure · claim · reproduced / not — why``)
and exits non-zero iff a verdict differs from :data:`EXPECTED`.  A claim
that does not hold here stays in the list with its reason (substrate, scale,
or the ROADMAP item that owns it) rather than being relaxed until it
passes; a fix that flips one must flip its row, and README's copy of the
table, in the same change.
"""

import importlib
import sys

from repro.bench import headline, render_table

#: the registry, in the paper's order: every experiment module
#: (``bench_<name>.py``) with one entry per claim in its ``CLAIMS`` order —
#: ``None`` where the claim is reproduced here, else why it is not
EXPECTED = {
    "fig02_pareto": (None, None, None),
    "fig05_blocksize": (None,),
    "fig09_hardness": (None, None),
    "fig10_micro": (None, None, None),
    "fig11_selector": (
        None,
        "ROADMAP item 3: the CART selector, trained on 60 synthetic "
        "sequences a class, misses on `poly` (27.5% vs 8.8%), `exp` and "
        "`site`",
    ),
    "fig12_cosmos": (
        None,
        "no ROADMAP item: the second *estimated* frequency costs more than "
        "it saves (2sin 41.6% vs sin 39.9%, the same at 30 000 rows); given "
        "the true frequencies two terms win (32.3%)",
    ),
    "fig13_multicolumn": (None, None),
    "fig14_hashprobe": (None, None),
    "fig15_strings": (None, None),
    "fig16_partitioners": (
        None,
        "ROADMAP item 4: la-vector's shortest path runs over the same cost "
        "model here and edges LeCo-var by at most 0.5 points on three of "
        "four datasets (18.7% vs 18.8% on `house_price`)",
    ),
    "fig17_robustness": (None,),
    "fig18_filter_groupby": (
        None,
        "ROADMAP item 11: on the store the sums tie (Delta / LeCo 0.7-1.4 "
        "run to run): reviving a 20 000-row LeCo `ts` chunk parses its "
        "correction lists in Python (0.5 ms), and its model-band zone map "
        "keeps two of the three chunks where Delta's exact min/max keeps "
        "one; per chunk read Delta's filter still costs about twice LeCo's",
    ),
    "fig19_bitmap_agg": (None, None),
    "fig20_zstd_size": (
        "substrate: `normal`'s bit-packed residuals are incompressible and "
        "DEFLATE (the zstd stand-in) hands them back 8 bytes larger; the "
        "other three shrink by 0.2-2.0%",
        None,
    ),
    "fig21_zstd_time": (None,),
    "fig22_kvstore": (
        None,
        None,
        "substrate: a LeCo index lookup is O(log n) interpreted `get` "
        "calls, restart-interval 1 is one C `bisect` over raw keys — 12 "
        "kops/s against 29 with the cache warm",
    ),
    "tab01_compress_tps": (None, None, None),
    "ablation_optimal_gap": (
        "ROADMAP item 4: +15.4% on `movieid` (and -23.6% on `house_price`): "
        "the DP is optimal for the fast-width cost model while both plans "
        "are scored by exact fits",
        None,
    ),
    "ablation_serial_decode": (
        None,
        "substrate: numpy's accumulate is no cheaper than its vectorised "
        "multiply-add, and the accumulated partitions are predicted whole "
        "and indexed back — 30-50% slower on `linear` and `booksale`",
    ),
}


def experiment(name: str):
    """The experiment module registered as ``name``."""
    if name not in EXPECTED:
        raise SystemExit(f"unknown experiment {name!r}; "
                         f"known: {', '.join(EXPECTED)}")
    return importlib.import_module("bench_" + name)


def render(module, rows) -> str:
    """``module``'s heading and table for the measured ``rows``."""
    caption = module.CAPTION
    if callable(caption):
        caption = caption(rows)
    cells = [[fmt(cell) if callable(fmt) else fmt.format(cell)
              for (_, fmt), cell in zip(module.COLUMNS, row)]
             for row in rows]
    return headline(module.TITLE, caption) + render_table(
        [header for header, _ in module.COLUMNS], cells)


def main(names=()) -> int:
    """Run the named experiments (default: all); 0 iff every claim's
    verdict is the one :data:`EXPECTED` records."""
    scoreboard = []
    held = surprises = 0
    for name in names or EXPECTED:
        module = experiment(name)
        rows = module.rows()
        print(render(module, rows), flush=True)
        for (claim, holds), why_not in zip(module.CLAIMS, EXPECTED[name],
                                           strict=True):
            reproduced = bool(holds(rows))
            held += reproduced
            if reproduced == (why_not is None):
                verdict = "reproduced" if reproduced else f"not — {why_not}"
            else:
                surprises += 1
                verdict = (
                    "reproduced — UNEXPECTED, EXPECTED says not: flip its "
                    "entry here and its row in README" if reproduced else
                    "not — UNEXPECTED, EXPECTED says reproduced")
            scoreboard.append(f"{name} · {claim} · {verdict}")
    print(headline("Scoreboard", "figure · claim · reproduced / not — why")
          + "\n".join(scoreboard))
    print(f"\n{held} reproduced, {len(scoreboard) - held} not, "
          f"{surprises} differing from EXPECTED")
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
