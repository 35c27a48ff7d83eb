"""The arithmetic every reported number and every verdict rests on.

Pure functions over plain lists and dicts — no clocks, no processes —
so ``test_harness.py`` can pin each rule down exactly.
"""

from __future__ import annotations

import statistics

#: tail percentiles tried highest first (see :func:`tail_percentile`)
TAIL_PERCENTILES = (99, 95, 90, 75)
#: samples a percentile must leave beyond itself to be reported
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n_samples: int) -> int:
    """The highest of p99/p95/p90/p75 that still has at least ten
    samples beyond it; 50 when even p75 does not (fewer than 40
    samples: the run has no reportable tail, only a median)."""
    for p in TAIL_PERCENTILES:
        if n_samples * (100 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return 50


def quiet_slice(values, better: str) -> float:
    """The second-best slice value: interference on a shared box only
    ever slows a slice, so the best slices estimate the program's own
    cost; the very best is dropped as a possible fluke."""
    ordered = sorted(values, reverse=(better == "higher"))
    if not ordered:
        raise ValueError("quiet slice of no slices")
    return ordered[min(1, len(ordered) - 1)]


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (one value: all three equal it)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def slice_values(marks, ops_by_stream: dict, latency_stream: str,
                 throughput_stream: str) -> dict:
    """Per-slice timing values of one measured window.

    ``marks`` are the ``n + 1`` slice edges ``(t, cpu_seconds)``;
    ``ops_by_stream`` maps a stream name to its ops ``(t_end,
    latency_s, ok, ...)``.  An op belongs to the slice its reply
    arrived in, and only correct replies count: a fast refusal or a
    wrong answer may neither raise throughput nor lower the median.
    Returns equal-length lists: ``latency_p50_ms`` of the latency
    stream, ``throughput_ops_s`` of the throughput stream,
    ``cpu_ms_per_op`` over the ops of all streams, and the raw
    ``ops`` counts of the throughput stream.
    """
    out = {"latency_p50_ms": [], "throughput_ops_s": [],
           "cpu_ms_per_op": [], "ops": []}
    for (t_lo, cpu_lo), (t_hi, cpu_hi) in zip(marks, marks[1:]):
        inside = {
            name: [op for op in ops if op[2] and t_lo < op[0] <= t_hi]
            for name, ops in ops_by_stream.items()}
        lat = [op[1] * 1e3 for op in inside[latency_stream]]
        done = len(inside[throughput_stream])
        everything = sum(len(ops) for ops in inside.values())
        if not lat or not done:
            raise ValueError(
                f"a slice of {t_hi - t_lo:.2f} s holds no correct reply "
                f"of stream {latency_stream if not lat else throughput_stream!r}")
        out["latency_p50_ms"].append(percentile(lat, 50))
        out["throughput_ops_s"].append(done / (t_hi - t_lo))
        out["cpu_ms_per_op"].append(
            (cpu_hi - cpu_lo) * 1e3 / everything)
        out["ops"].append(done)
    return out


def trimmed_mean(values, trim: float = 0.10) -> float:
    """Mean of what is left after dropping the ``trim`` share of the
    samples at each end."""
    ordered = sorted(values)
    k = int(len(ordered) * trim)
    kept = ordered[k:len(ordered) - k]
    return sum(kept) / len(kept)


def speed_factor(samples, references) -> float:
    """How much slower than the reference machine the probe's work ran.

    ``samples`` are the probe's passes during an interval, one tuple of
    CPU seconds per pass (one entry per piece of work);
    ``references`` are the same pieces' CPU seconds on the reference
    box.  Each piece's trimmed mean is divided by its reference and the
    ratios are averaged, so no one kind of work decides the factor.
    The mean follows a disturbance that comes and goes within the
    interval, which a median of the passes would miss; the trim drops
    the odd pass that a timer interrupt inflated.
    """
    ratios = [trimmed_mean(column) / ref
              for column, ref in zip(zip(*samples), references)]
    return sum(ratios) / len(ratios)


def at_reference_speed(slices: dict, factors) -> dict:
    """The per-slice values as if the machine had run at the reference
    speed: ``factors[k]`` says how much slower than the reference it
    ran during slice ``k``, so times shrink by it and rates grow."""
    out = dict(slices)
    for name in ("latency_p50_ms", "cpu_ms_per_op"):
        out[name] = [v / f for v, f in zip(slices[name], factors)]
    out["throughput_ops_s"] = [
        v * f for v, f in zip(slices["throughput_ops_s"], factors)]
    return out


# ------------------------------------------------------------------ spans
def self_times(spans) -> dict:
    """Self time of every span of one request.

    ``spans`` are ``(span_id, parent_id, start, end)`` tuples; exactly
    one has ``parent_id None`` (the root).  A span's self time is its
    duration minus what its children cover; where several children of
    one span overlap (granules on two workers), they split the instant
    equally, so the self times of a tree always sum to the root's
    duration.  Children are clipped to their parent's interval (a span
    re-anchored from another process's clock may poke outside it).
    """
    spans = list(spans)
    children: dict = {}
    bounds: dict = {}
    root = None
    for span_id, parent, start, end in spans:
        bounds[span_id] = [start, max(end, start)]
        if parent is None:
            root = span_id
        else:
            children.setdefault(parent, []).append(span_id)
    if root is None:
        raise ValueError("no root span")
    out = {span_id: 0.0 for span_id in bounds}
    # clip top-down, so a grandchild is clipped to its clipped parent
    stack = [root]
    while stack:
        parent = stack.pop()
        p_lo, p_hi = bounds[parent]
        for kid in children.get(parent, ()):
            b = bounds[kid]
            b[0] = min(max(b[0], p_lo), p_hi)
            b[1] = min(max(b[1], p_lo), p_hi)
            stack.append(kid)

    def share(span_id, lo: float, hi: float, weight: float) -> None:
        """Attribute ``weight`` x the interval ``[lo, hi)`` of
        ``span_id`` to it and its descendants."""
        kids = [k for k in children.get(span_id, ())
                if bounds[k][1] > lo and bounds[k][0] < hi]
        if not kids:
            out[span_id] += weight * (hi - lo)
            return
        # sweep the kids' clipped edges, keeping the active set
        events: dict = {}
        for k in kids:
            events.setdefault(max(bounds[k][0], lo), ([], []))[0].append(k)
            events.setdefault(min(bounds[k][1], hi), ([], []))[1].append(k)
        events.setdefault(hi, ([], []))
        active: set = set()
        prev = lo
        for t in sorted(events):
            if t > prev:
                if not active:
                    out[span_id] += weight * (t - prev)
                else:
                    for k in tuple(active):
                        share(k, prev, t, weight / len(active))
                prev = t
            opened, closed = events[t]
            active.update(opened)
            active.difference_update(closed)

    share(root, bounds[root][0], bounds[root][1], 1.0)
    return out


# ---------------------------------------------------------------- scrapes
def family_total(families: dict, family: str, sample: str | None = None,
                 **labels) -> float:
    """Sum of a parsed exposition family's samples named ``sample``
    (default: the family name) whose labels include ``labels``."""
    fam = families.get(family)
    if fam is None:
        return 0.0
    want = sample or family
    return sum(value for name, lab, value in fam["samples"]
               if name == want
               and all(lab.get(k) == v for k, v in labels.items()))


def scrape_delta(before: dict, after: dict, family: str,
                 sample: str | None = None, **labels) -> float:
    """``after - before`` of one series sum (two parsed scrapes)."""
    return (family_total(after, family, sample, **labels)
            - family_total(before, family, sample, **labels))


def request_seconds_delta(before: dict, after: dict,
                          own_requests: int, own_seconds: float
                          ) -> tuple[int, float]:
    """Workload requests and their total handling time between two
    scrapes of ``repro_serve_request_seconds``, with the scrapes' own
    ``metrics`` requests removed: the server charges a scrape *after*
    rendering it, so the ``before`` scrape lands inside the window.
    ``own_seconds`` is what one scrape costs the server, measured as
    the histogram's growth between two back-to-back scrapes."""
    fam = "repro_serve_request_seconds"
    count = scrape_delta(before, after, fam, fam + "_count")
    total = scrape_delta(before, after, fam, fam + "_sum")
    return int(round(count)) - own_requests, total - own_seconds


# ---------------------------------------------------------------- compare
def verdict(a_values, b_values, better: str,
            bound: float | None) -> dict:
    """Compare run set B against run set A for one (metric, workload).

    ``improved`` / ``regressed`` only when that side wins at least nine
    tenths of the pairs (i-th run against i-th run, ties for neither)
    *and* the medians differ by more than A's inter-quartile distance
    *and* by more than ``bound`` of A's median.  ``unresolved`` when A's
    own spread exceeds the bound — the benchmark cannot tell.  A
    per-layer metric has no bound (``None``): A's inter-quartile
    distance is then its only noise band and it is never unresolved.
    """
    a_values, b_values = list(a_values), list(b_values)
    a_q1, a_med, a_q3 = quartiles(a_values)
    b_q1, b_med, b_q3 = quartiles(b_values)
    sign = -1.0 if better == "lower" else 1.0
    pairs = list(zip(a_values, b_values))
    b_wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    a_wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    iqr = a_q3 - a_q1
    gap = abs(b_med - a_med)
    decisive = gap > iqr and (
        bound is None or (a_med != 0 and gap / abs(a_med) > bound))
    need = 0.9 * len(pairs)
    if bound is not None and a_med and iqr / abs(a_med) > bound:
        word = "unresolved"
    elif decisive and pairs and b_wins >= need \
            and sign * (b_med - a_med) > 0:
        word = "improved"
    elif decisive and pairs and a_wins >= need \
            and sign * (b_med - a_med) < 0:
        word = "regressed"
    else:
        word = "unchanged"
    return {
        "a": {"q1": a_q1, "median": a_med, "q3": a_q3,
              "n": len(a_values)},
        "b": {"q1": b_q1, "median": b_med, "q3": b_q3,
              "n": len(b_values)},
        "ratio": b_med / a_med if a_med else float("nan"),
        "base": a_med,
        "b_wins": b_wins, "a_wins": a_wins, "pairs": len(pairs),
        "verdict": word,
    }
