"""``python -m repro.obs top`` — a live rates view over ``/metrics``.

Prometheus exposition is cumulative; what an operator wants is *rates*.
This module turns two scrapes (``t`` and ``t+dt``) into a one-screen
summary: QPS and request latency quantiles, executor throughput, cache
hit rate, scheduler occupancy, and — via the cross-process ``proc``
label the driver attaches to merged worker telemetry — a per-lane
breakdown of granules, cache traffic, and respawn health.

Everything computes from parsed exposition text
(:func:`repro.obs.metrics.parse_text`), so the same code paths serve a
live server (``top http://host:port/metrics``) and a saved snapshot
pair (``top --snapshots before.txt after.txt``) — which is also how
the tests drive it, no HTTP involved.

Quantiles come from histogram *bucket deltas* (classic
``histogram_quantile`` linear interpolation within the winning
bucket), so p50/p99 describe only the scrape window, not the server's
whole life.
"""

from __future__ import annotations

import time

from repro.obs.metrics import parse_text

__all__ = ["compute_view", "format_view", "run_top", "scrape"]


def scrape(url: str, timeout: float = 5.0) -> dict:
    """Fetch and parse one ``/metrics`` exposition."""
    # imported here: the table server reads this module's helpers and
    # should not carry an HTTP client for them
    import urllib.request

    with urllib.request.urlopen(url, timeout=timeout) as resp:
        text = resp.read().decode("utf-8")
    return parse_text(text)


# ------------------------------------------------------------ extraction
def _samples(fams: dict, family: str, sample: str | None = None):
    """(labels, value) pairs of one family (optionally one sample name,
    for histogram ``_bucket``/``_sum``/``_count`` rows)."""
    entry = fams.get(family)
    if entry is None:
        return []
    want = sample or family
    return [(labels, value) for name, labels, value
            in entry["samples"] if name == want]


def sample_total(fams: dict, family: str,
                 where: dict | None = None) -> float:
    """Sum of a counter or gauge family's samples matching ``where``
    (matching includes ``proc``-labelled worker series, so totals are
    process-tree-wide)."""
    total = 0.0
    for labels, value in _samples(fams, family):
        if where and any(labels.get(k) != v for k, v in where.items()):
            continue
        total += value
    return total


def counter_delta(prev: dict, curr: dict, family: str,
                  where: dict | None = None) -> float:
    return max(0.0, sample_total(curr, family, where)
               - sample_total(prev, family, where))


def by_label(fams: dict, family: str, label: str) -> dict[str, float]:
    """Counter totals grouped by one label's value (samples without the
    label fall under ``"driver"`` — unlabelled series are the driver's
    own activity)."""
    out: dict[str, float] = {}
    for labels, value in _samples(fams, family):
        key = labels.get(label, "driver")
        out[key] = out.get(key, 0.0) + value
    return out


def _hist_buckets(fams: dict, family: str) -> dict[float, float]:
    """Cumulative bucket counts summed across label combinations."""
    out: dict[float, float] = {}
    for labels, value in _samples(fams, family, f"{family}_bucket"):
        edge = float(labels["le"])
        out[edge] = out.get(edge, 0.0) + value
    return out


def hist_quantile(prev: dict, curr: dict, family: str,
                  q: float) -> float | None:
    """``histogram_quantile(q, rate(family_bucket))`` over the window.

    ``None`` when the family saw no observations between the scrapes.
    Linear interpolation inside the winning bucket; the +Inf bucket
    reports its lower edge (the largest finite bucket boundary).
    """
    before = _hist_buckets(prev, family)
    deltas = {edge: count - before.get(edge, 0.0)
              for edge, count in _hist_buckets(curr, family).items()}
    if not deltas:
        return None
    edges = sorted(deltas)
    total = deltas.get(float("inf"), max(deltas.values()))
    if total <= 0:
        return None
    rank = q * total
    lo_edge, lo_count = 0.0, 0.0
    for edge in edges:
        count = deltas[edge]
        if count >= rank:
            if edge == float("inf"):
                return lo_edge
            span = count - lo_count
            if span <= 0:
                return edge
            return lo_edge + (edge - lo_edge) * (rank - lo_count) / span
        lo_edge, lo_count = edge, count
    return lo_edge


# --------------------------------------------------------------- the view
def compute_view(prev: dict, curr: dict, dt: float) -> dict:
    """Rates/deltas between two parsed scrapes, ``dt`` seconds apart."""
    dt = max(dt, 1e-9)
    requests = counter_delta(prev, curr, "repro_serve_requests_total")
    queries = counter_delta(prev, curr, "repro_exec_queries_total",
                            where={"status": "ok"})
    hits = counter_delta(prev, curr, "repro_cache_lookups_total",
                         where={"outcome": "hit"})
    misses = counter_delta(prev, curr, "repro_cache_lookups_total",
                           where={"outcome": "miss"})
    lookups = hits + misses
    lanes: dict[str, dict] = {}
    for fam, key in (("repro_par_worker_granules_total", "granules"),
                     ("repro_cache_lookups_total", "cache_lookups")):
        prev_by = by_label(prev, fam, "proc")
        for proc, value in by_label(curr, fam, "proc").items():
            if proc == "driver" and fam != "repro_cache_lookups_total":
                continue
            lanes.setdefault(proc, {})[key] = \
                max(0.0, value - prev_by.get(proc, 0.0))
    lanes.pop("driver", None)
    return {
        "dt": dt,
        "qps": requests / dt,
        "queries_per_s": queries / dt,
        "request_p50": hist_quantile(prev, curr,
                                     "repro_serve_request_seconds", 0.5),
        "request_p99": hist_quantile(prev, curr,
                                     "repro_serve_request_seconds", 0.99),
        "exec_p50": hist_quantile(prev, curr,
                                  "repro_exec_query_seconds", 0.5),
        "exec_p99": hist_quantile(prev, curr,
                                  "repro_exec_query_seconds", 0.99),
        "rows_per_s": counter_delta(
            prev, curr, "repro_exec_rows_total") / dt,
        "granules_per_s": counter_delta(
            prev, curr, "repro_exec_granules_total") / dt,
        "cache_hit_rate": (hits / lookups) if lookups else None,
        "cache_used_bytes": sample_total(curr, "repro_cache_used_bytes"),
        "inflight": sample_total(curr, "repro_sched_inflight"),
        "parked": sample_total(curr, "repro_sched_parked"),
        "workers": sample_total(curr, "repro_par_workers"),
        "respawns": counter_delta(prev, curr,
                                  "repro_par_respawns_total"),
        "pipe_p50": hist_quantile(
            prev, curr, "repro_par_pipe_roundtrip_seconds", 0.5),
        "pipe_p99": hist_quantile(
            prev, curr, "repro_par_pipe_roundtrip_seconds", 0.99),
        "lanes": dict(sorted(lanes.items())),
    }


def _ms(value: float | None) -> str:
    return "-" if value is None else f"{value * 1e3:.2f}ms"


def format_view(view: dict) -> str:
    """One refresh frame of the ``top`` display."""
    lines = [
        f"repro top — window {view['dt']:.1f}s",
        f"  serve   {view['qps']:8.1f} req/s   "
        f"p50 {_ms(view['request_p50'])}  p99 {_ms(view['request_p99'])}",
        f"  exec    {view['queries_per_s']:8.1f} q/s     "
        f"p50 {_ms(view['exec_p50'])}  p99 {_ms(view['exec_p99'])}   "
        f"{view['rows_per_s']:,.0f} rows/s  "
        f"{view['granules_per_s']:,.0f} granules/s",
        f"  cache   hit rate "
        + ("-" if view["cache_hit_rate"] is None
           else f"{view['cache_hit_rate'] * 100:5.1f}%")
        + f"   used {view['cache_used_bytes']:,.0f}B",
        f"  sched   inflight {view['inflight']:.0f}  "
        f"parked {view['parked']:.0f}",
    ]
    if view["workers"] or view["lanes"]:
        lines.append(
            f"  par     workers {view['workers']:.0f}  "
            f"respawns +{view['respawns']:.0f}  "
            f"pipe p50 {_ms(view['pipe_p50'])}  "
            f"p99 {_ms(view['pipe_p99'])}")
        for proc, stats in view["lanes"].items():
            lines.append(
                f"    {proc:<6} granules +{stats.get('granules', 0):.0f}"
                f"  cache lookups +{stats.get('cache_lookups', 0):.0f}")
    return "\n".join(lines)


def run_top(url: str, interval: float = 2.0, iterations: int = 0,
            out=print) -> int:
    """Scrape-diff-print loop against a live ``/metrics`` endpoint.
    ``iterations=0`` runs until interrupted."""
    prev = scrape(url)
    n = 0
    while True:
        time.sleep(interval)
        curr = scrape(url)
        out(format_view(compute_view(prev, curr, interval)))
        prev = curr
        n += 1
        if iterations and n >= iterations:
            return 0
