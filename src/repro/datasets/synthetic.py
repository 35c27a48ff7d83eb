"""Integer dataset generators (paper §4.1, Fig. 9a).

Each generator reproduces the documented *shape* of the corresponding
dataset — the serial-correlation structure that drives LeCo's behaviour —
scaled from the paper's 10^8 rows to benchmark-friendly sizes.  All
generators are seeded and deterministic.

Families (first paper row of Fig. 9a is the "locally easy" group):

* ``linear``, ``normal`` — clean synthetic CDFs (32-bit sorted);
* ``poisson`` — event timestamps from merged sensor streams, *not* fully
  sorted (small local disorder);
* ``ml`` — bursty real-world timestamps (sorted, long flat runs);
* ``booksale``, ``facebook``, ``wiki``, ``osm`` — SOSD-style sorted keys
  with increasingly heavy-tailed gap distributions;
* ``movieid`` — piecewise-linear "liked movie IDs" (Fig. 1), unsorted;
* ``house_price`` — heavy-tailed price column with repeated round values;
* ``planet``, ``libio`` — dense ID ranges with occasional large gaps;
* ``cosmos``, ``polylog``, ``exp``, ``poly``, ``site``, ``weight``,
  ``adult`` — the non-linear group of §4.4;
* ``medicare`` — unsorted, low-cardinality 64-bit values for §4.5.

:func:`zipf_cluster_bitmap` generates the clustered selection bitmaps of
§5.1.2 (Figs. 19 and 21).
"""

from __future__ import annotations

import numpy as np

U32 = (1 << 32) - 1


def _sorted_from_gaps(gaps: np.ndarray, start: int = 0) -> np.ndarray:
    return start + np.cumsum(np.maximum(gaps, 0)).astype(np.int64)


def gen_linear(n: int, seed: int = 0) -> np.ndarray:
    """Clean linear ramp over the 32-bit range (paper's best case)."""
    return np.linspace(0, U32, n).astype(np.int64)


def gen_normal(n: int, seed: int = 0) -> np.ndarray:
    """Sorted normal sample scaled to the 32-bit range."""
    rng = np.random.default_rng(seed)
    sample = np.sort(rng.normal(0.0, 1.0, n))
    lo, hi = sample[0], sample[-1]
    return ((sample - lo) / (hi - lo) * U32).astype(np.int64)


def gen_poisson(n: int, seed: int = 0) -> np.ndarray:
    """Poisson-process timestamps with sensor-merge local disorder."""
    rng = np.random.default_rng(seed)
    times = _sorted_from_gaps(
        rng.exponential(5_000.0, n).astype(np.int64) + 1,
        start=1_600_000_000_000)
    # merged per-sensor streams arrive slightly out of order
    jitter = rng.integers(-3, 4, n)
    idx = np.clip(np.arange(n) + jitter, 0, n - 1)
    return times[idx]


def gen_ml(n: int, seed: int = 0) -> np.ndarray:
    """Bursty sorted timestamps (UCI bar-crawl style): long runs of small
    constant gaps interleaved with large session gaps."""
    rng = np.random.default_rng(seed)
    gaps = np.full(n, 40, dtype=np.int64)
    gaps += rng.integers(0, 3, n)
    session_breaks = rng.random(n) < 0.002
    gaps[session_breaks] = rng.integers(10_000, 5_000_000,
                                        int(session_breaks.sum()))
    return _sorted_from_gaps(gaps, start=1_493_000_000_000)


def gen_booksale(n: int, seed: int = 0) -> np.ndarray:
    """SOSD 'books'-like: sorted keys with lognormal gap spread."""
    rng = np.random.default_rng(seed)
    gaps = np.exp(rng.normal(3.0, 1.8, n)).astype(np.int64) + 1
    return _sorted_from_gaps(gaps)


def gen_facebook(n: int, seed: int = 0) -> np.ndarray:
    """Sorted 64-bit IDs: uniform backbone plus dense cluster bursts."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1e9, n).astype(np.int64) + 1
    dense = rng.random(n) < 0.3
    gaps[dense] = rng.integers(1, 1000, int(dense.sum()))
    return _sorted_from_gaps(gaps)


def gen_wiki(n: int, seed: int = 0) -> np.ndarray:
    """Sorted edit timestamps with many duplicates (zero gaps)."""
    rng = np.random.default_rng(seed)
    gaps = rng.geometric(0.25, n).astype(np.int64) - 1
    return _sorted_from_gaps(gaps, start=1_100_000_000)


def gen_osm(n: int, seed: int = 0) -> np.ndarray:
    """Sorted cell IDs with Pareto (very heavy tail) gaps — locally hard."""
    rng = np.random.default_rng(seed)
    gaps = (rng.pareto(0.7, n) * 1e4).astype(np.int64) + 1
    return _sorted_from_gaps(gaps)


def gen_movieid(n: int, seed: int = 0) -> np.ndarray:
    """Piecewise-linear movie IDs (Fig. 1): slope changes + level jumps."""
    rng = np.random.default_rng(seed)
    pieces = []
    level = 0.0
    remaining = n
    while remaining > 0:
        length = int(min(remaining, rng.integers(n // 40 + 2, n // 8 + 4)))
        slope = rng.uniform(0.05, 6.0)
        noise = rng.normal(0, rng.uniform(0.2, 1.5), length)
        pieces.append(level + slope * np.arange(length) + noise)
        level = pieces[-1][-1] + rng.uniform(-0.2, 1.0) * rng.integers(
            0, 8000)
        remaining -= length
    values = np.concatenate(pieces)
    values -= values.min()
    return np.round(values).astype(np.int64)


def gen_house_price(n: int, seed: int = 0) -> np.ndarray:
    """Sorted prices: lognormal body rounded to 'psychological' steps,
    producing runs of identical values and abrupt tail jumps."""
    rng = np.random.default_rng(seed)
    prices = np.exp(rng.normal(12.3, 0.7, n))
    step = np.where(prices < 5e5, 1000, 25_000)
    prices = np.round(prices / step) * step
    return np.sort(prices).astype(np.int64)


def gen_planet(n: int, seed: int = 0) -> np.ndarray:
    """Sorted planet IDs: long dense runs, occasional big range jumps."""
    rng = np.random.default_rng(seed)
    gaps = rng.integers(1, 60, n).astype(np.int64)
    jumps = rng.random(n) < 0.001
    gaps[jumps] = rng.integers(1_000_000, 50_000_000, int(jumps.sum()))
    return _sorted_from_gaps(gaps, start=10_000_000)


def gen_libio(n: int, seed: int = 0) -> np.ndarray:
    """Sorted repository IDs: near-consecutive with moderate gaps."""
    rng = np.random.default_rng(seed)
    gaps = rng.geometric(0.4, n).astype(np.int64)
    return _sorted_from_gaps(gaps, start=1_000)


def gen_medicare(n: int, seed: int = 0) -> np.ndarray:
    """Unsorted 64-bit values with modest cardinality (§4.5 probe side).

    The paper's augmented BI-benchmark IDs form a near-arithmetic unique-
    value domain: an order-preserving dictionary of them compresses to a
    fraction of a percent with LeCo but stays large under FOR.
    """
    rng = np.random.default_rng(seed)
    n_unique = max(n // 10, 64)
    steps = 1000 + rng.integers(0, 4, n_unique).astype(np.int64)
    dictionary = (1 << 50) + np.cumsum(steps)
    ranks = rng.integers(0, n_unique, n)
    return dictionary[ranks].astype(np.int64)


# ------------------------------------------------------- non-linear (§4.4)

def gen_cosmos(n: int, seed: int = 0) -> np.ndarray:
    """The paper's cosmic-ray signal: two sine carriers + Gaussian noise."""
    rng = np.random.default_rng(seed)
    x = np.arange(n, dtype=np.float64)
    signal = (np.sin((x + 10) / (60 * np.pi))
              + 0.1 * np.sin(3 * (x + 10) / (60 * np.pi))) * 1e6
    return np.round(signal + rng.normal(0, 100, n)).astype(np.int64)


def gen_polylog(n: int, seed: int = 0, block: int = 500) -> np.ndarray:
    """Alternating polynomial and logarithm blocks (growth-curve model)."""
    rng = np.random.default_rng(seed)
    out = np.empty(n, dtype=np.int64)
    x = np.arange(block, dtype=np.float64)
    pos = 0
    poly_turn = True
    while pos < n:
        m = min(block, n - pos)
        if poly_turn:
            a = rng.uniform(0.5, 5.0)
            y = a * x[:m] ** 2 + rng.uniform(0, 1e5)
        else:
            a = rng.uniform(1e4, 1e5)
            y = a * np.log1p(x[:m]) + rng.uniform(0, 1e5)
        out[pos: pos + m] = np.round(y + rng.normal(0, 10, m))
        pos += m
        poly_turn = not poly_turn
    return out


def gen_exp(n: int, seed: int = 0, block: int = 2000) -> np.ndarray:
    """Blocks of exponential growth with per-block random rates."""
    rng = np.random.default_rng(seed)
    out = np.empty(n, dtype=np.int64)
    pos = 0
    while pos < n:
        m = min(block, n - pos)
        rate = rng.uniform(2.0, 12.0) / m
        base = rng.uniform(10, 1000)
        y = base * np.exp(rate * np.arange(m))
        out[pos: pos + m] = np.round(y + rng.normal(0, 5, m))
        pos += m
    return out


def gen_poly(n: int, seed: int = 0, block: int = 2000) -> np.ndarray:
    """Blocks of degree-2/3 polynomials with per-block coefficients."""
    rng = np.random.default_rng(seed)
    out = np.empty(n, dtype=np.int64)
    pos = 0
    while pos < n:
        m = min(block, n - pos)
        x = np.arange(m, dtype=np.float64)
        degree = int(rng.integers(2, 4))
        coeffs = rng.uniform(0.001, 2.0, degree + 1)
        y = sum(c * x ** p for p, c in enumerate(coeffs))
        out[pos: pos + m] = np.round(y + rng.normal(0, 5, m))
        pos += m
    return out


def gen_site(n: int, seed: int = 0) -> np.ndarray:
    """Sorted web-session column: few huge hubs, many small values."""
    rng = np.random.default_rng(seed)
    return np.sort((rng.pareto(1.1, n) * 30).astype(np.int64))


def gen_weight(n: int, seed: int = 0) -> np.ndarray:
    """Sorted anthropometric values in a narrow absolute band."""
    rng = np.random.default_rng(seed)
    sample = rng.normal(6.8e6, 2.2e5, n)
    return np.sort(np.round(sample)).astype(np.int64)


def gen_adult(n: int, seed: int = 0) -> np.ndarray:
    """Sorted census-style column: discrete plateaus + skewed tail."""
    rng = np.random.default_rng(seed)
    body = rng.integers(0, 5_000, int(n * 0.8)) * 100
    tail = np.exp(rng.normal(11.5, 1.2, n - len(body)))
    return np.sort(np.concatenate([body, tail]).astype(np.int64))


def zipf_cluster_bitmap(n: int, selectivity: float, clusters: int = 10,
                        seed: int = 0) -> np.ndarray:
    """Figs. 19 and 21's selection bitmaps (§5.1.2): ``clusters`` set-bit
    runs with Zipf-like sizes, covering about ``selectivity`` of ``n``."""
    rng = np.random.default_rng(seed)
    target = max(int(n * selectivity), 1)
    weights = 1.0 / np.arange(1, clusters + 1)
    weights /= weights.sum()
    sizes = np.maximum((weights * target).astype(np.int64), 1)
    bitmap = np.zeros(n, dtype=bool)
    starts = np.sort(rng.integers(0, max(n - int(sizes.max()) - 1, 1),
                                  clusters))
    for start, size in zip(starts, sizes):
        bitmap[start: start + int(size)] = True
    return bitmap
