"""Process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` holds every instrument the stack exposes —
the scheduler's admission outcomes, the chunk cache's hit/miss/eviction
totals, the executor's work accounting, the WAL/flush/compaction
counters — and renders them as zero-dependency Prometheus-style text
exposition (the ``/metrics`` endpoint of the table server, and the
``metrics`` wire op).

Contracts:

* **Get-or-create by name.**  ``registry.counter(name, ...)`` returns
  the existing instrument when the name is already registered (and
  raises when the kind or label names disagree) — two ``ChunkCache``
  instances charging ``repro_cache_lookups_total`` share one series.
  The module-level :func:`counter`/:func:`gauge`/:func:`histogram`
  helpers operate on the process-wide default registry.
* **Always-on cheap.**  Every mutation is one short per-child lock
  (CPython ``+=`` is not atomic across threads — the conformance suite
  proves no increments are lost under contention).  Instrumented code
  charges *per granule / per chunk / per query*, never per row.
  :func:`set_enabled` flips a process-wide kill switch that turns every
  ``inc``/``set``/``observe`` into a no-op — the uninstrumented
  baseline ``benchmarks/bench_obs.py`` gates the ≤5 % overhead budget
  against.
* **Names** follow ``repro_<area>_<noun>[_<unit>]`` with counters
  suffixed ``_total``; label values are coerced to ``str``.

:func:`parse_text` parses the exposition format back (names, types,
labels, values) — the conformance tests round-trip every registered
instrument through it, so the rendering can never silently drift from
what a Prometheus scraper would read.

Cross-process merge: :meth:`MetricsRegistry.snapshot` captures every
local series as a compact picklable dict, :func:`snapshot_delta`
subtracts two snapshots (counters and histograms as monotonic deltas,
gauges as last-value), and :meth:`MetricsRegistry.merge` folds a delta
into this registry under a ``proc`` label — worker processes piggyback
deltas on their result envelopes and the driver's ``/metrics`` shows
the whole process tree.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
import threading

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ReservoirQuantiles",
    "counter",
    "default_registry",
    "enabled",
    "gauge",
    "histogram",
    "parse_text",
    "render_text",
    "set_enabled",
    "snapshot_delta",
]

#: default histogram buckets (seconds): sub-ms through tens of seconds
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _env_disabled() -> bool:
    """``REPRO_OBS_DISABLED=1`` (or any truthy value) starts the process
    with instrumentation off — spawn-started workers inherit the flag
    through their ctor spec, so the kill switch reaches every tier."""
    raw = os.environ.get("REPRO_OBS_DISABLED", "").strip().lower()
    return raw not in ("", "0", "false", "no")


#: process-wide instrumentation kill switch (see :func:`set_enabled`)
_ENABLED = not _env_disabled()


def set_enabled(flag: bool) -> None:
    """Turn every instrument mutation into a no-op (``False``) or back
    on (``True``).  Registration and rendering are unaffected — series
    keep their last values while disabled."""
    global _ENABLED
    _ENABLED = bool(flag)


def enabled() -> bool:
    return _ENABLED


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n") \
                .replace('"', '\\"')


def _unescape(value: str) -> str:
    out, i = [], 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _format_value(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    if isinstance(v, bool):
        return str(int(v))
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _format_labels(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    inner = ",".join(f'{n}="{_escape(v)}"'
                     for n, v in zip(names, values))
    return "{" + inner + "}"


class _Child:
    """One labelled series of an instrument (the ``()`` child when the
    instrument has no labels)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _CounterChild(_Child):
    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount


class _GaugeChild(_Child):
    __slots__ = ("_fn",)

    def __init__(self):
        super().__init__()
        self._fn = None

    def set_function(self, fn) -> None:
        """Make this series *computed*: ``fn()`` is evaluated at render/
        read time instead of storing pushed values.  This is how multi-
        instance subsystems (one chunk cache per open table / worker)
        export one truthful aggregate gauge — each ``set()`` from N
        instances would otherwise clobber the others (last-writer-wins).
        Mutating a function-backed series is a programming error."""
        self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        if fn is not None:
            return float(fn())
        with self._lock:
            return self._value

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError("gauge series is function-backed; "
                             "mutate the underlying state instead")
        if not _ENABLED:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise ValueError("gauge series is function-backed; "
                             "mutate the underlying state instead")
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class _HistogramChild:
    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]):
        self._lock = threading.Lock()
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1

    def raw(self) -> tuple[tuple[int, ...], float, int]:
        """(per-bucket counts incl. +Inf — *not* cumulative, sum, count);
        the picklable snapshot form, subtractable bucket-wise."""
        with self._lock:
            return tuple(self.counts), self.sum, self.count

    def merge(self, counts, total: float, n: int) -> None:
        """Fold a delta of per-bucket counts/sum/count into this series
        (the driver-side half of the worker telemetry protocol)."""
        if not _ENABLED:
            return
        if len(counts) != len(self.counts):
            raise ValueError(
                f"histogram merge: bucket count mismatch "
                f"({len(counts)} != {len(self.counts)})")
        with self._lock:
            for i, c in enumerate(counts):
                self.counts[i] += c
            self.sum += total
            self.count += n


class _Instrument:
    """Named family of series; :meth:`labels` returns (and memoizes)
    one child per label-value tuple."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = ()):
        _validate_name(name)
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        # Series merged in from other processes, keyed by the local
        # label values *plus* the trailing ``proc`` value.  Kept apart
        # from ``_children`` so local charging, snapshot(), and the
        # labels() contract never see them.
        self._remote: dict[tuple[str, ...], object] = {}
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):
        raise NotImplementedError

    def labels(self, **labelvalues):
        """The child series for these label values (created on first
        use).  Label keys must match the registered label names."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: labels() wants exactly "
                f"{self.labelnames}, got {tuple(labelvalues)}")
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key,
                                                  self._make_child())
        return child

    def children(self) -> dict[tuple[str, ...], object]:
        with self._lock:
            return dict(self._children)

    def remote_children(self) -> dict[tuple[str, ...], object]:
        """Merged-in series from other processes; keys are the local
        label values plus the trailing ``proc`` value."""
        with self._lock:
            return dict(self._remote)

    def _remote_child(self, key: tuple[str, ...]):
        child = self._remote.get(key)
        if child is None:
            with self._lock:
                child = self._remote.setdefault(key, self._make_child())
        return child

    def _default_child(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labelled by {self.labelnames}; "
                "call .labels(...) first")
        return self._children[()]


class Counter(_Instrument):
    """Monotonic counter (rendered with its ``_total`` suffix intact)."""

    kind = "counter"

    def _make_child(self):
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class Gauge(_Instrument):
    """Point-in-time value (in-flight queries, cache bytes, ...)."""

    kind = "gauge"

    def _make_child(self):
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set_function(self, fn) -> None:
        """Back the (unlabelled) series with ``fn()``, evaluated at
        read/render time — see :meth:`_GaugeChild.set_function`."""
        self._default_child().set_function(fn)

    @property
    def value(self) -> float:
        return self._default_child().value


class Histogram(_Instrument):
    """Fixed-bucket histogram (cumulative ``le`` buckets + sum/count)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = (),
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        buckets = tuple(sorted(float(b) for b in buckets))
        if not buckets:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = buckets
        super().__init__(name, help, labelnames)

    def _make_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)


def _validate_name(name: str) -> None:
    ok = name and (name[0].isalpha() or name[0] == "_") and all(
        ch.isalnum() or ch == "_" for ch in name)
    if not ok:
        raise ValueError(f"bad metric name {name!r} "
                         "(want [a-zA-Z_][a-zA-Z0-9_]*)")


class MetricsRegistry:
    """Thread-safe name → instrument map with text exposition."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    # -------------------------------------------------------- registration
    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: tuple[str, ...], **kwargs):
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls or \
                        existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{existing.labelnames}")
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labels: tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._instruments.get(name)

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    # ---------------------------------------------------------- exposition
    def _walk(self, remote: bool, families=None):
        """The one series walk :meth:`render`, :meth:`snapshot` and
        :meth:`series` read: ``(instrument, [(labelnames, key, value),
        ...])`` per instrument (of ``families`` only, when given) in name
        order — local children first, then (with ``remote``) the
        merged-in series with their extra ``proc`` label.  ``value`` is
        a float (counter / gauge, function-backed gauges evaluated) or a
        histogram's ``(per_bucket_counts, sum, count)``."""
        for inst in sorted(self.instruments(), key=lambda i: i.name):
            if families is not None and inst.name not in families:
                continue
            hist = inst.kind == "histogram"

            def read(names, children):
                return [(names, key,
                         child.raw() if hist else float(child.value))
                        for key, child in sorted(children.items())]

            series = read(inst.labelnames, inst.children())
            if remote:
                series += read(inst.labelnames + ("proc",),
                               inst.remote_children())
            yield inst, series

    def render(self) -> str:
        """Prometheus text exposition (format 0.0.4) of every series."""
        lines: list[str] = []
        for inst, series in self._walk(remote=True):
            if inst.help:
                lines.append(f"# HELP {inst.name} {inst.help}")
            lines.append(f"# TYPE {inst.name} {inst.kind}")
            for labelnames, key, value in series:
                labels = _format_labels(labelnames, key)
                if inst.kind != "histogram":
                    lines.append(
                        f"{inst.name}{labels} {_format_value(value)}")
                    continue
                counts, total, n = value
                edges = inst.buckets + (float("inf"),)
                for edge, c in zip(edges, itertools.accumulate(counts)):
                    le = _format_labels(labelnames + ("le",),
                                        key + (_format_value(edge),))
                    lines.append(f"{inst.name}_bucket{le} {c}")
                lines.append(
                    f"{inst.name}_sum{labels} {_format_value(total)}")
                lines.append(f"{inst.name}_count{labels} {n}")
        return "\n".join(lines) + "\n"

    def series(self, families) -> dict[str, list[tuple[dict, float]]]:
        """``{family: [(labels, value), ...]}`` for the counter and
        gauge ``families``, merged-in ``proc`` series included: the
        samples :meth:`render` prints, without the text."""
        return {inst.name: [(dict(zip(labelnames, key)), value)
                            for labelnames, key, value in series]
                for inst, series in self._walk(True, families)}

    # ------------------------------------------------- cross-process merge
    def snapshot(self) -> dict:
        """Picklable capture of every *local* series.

        ``{name: {"kind", "help", "labels", "series", ["buckets"]}}``
        where ``series`` maps label-value tuples to a float (counter /
        gauge — function-backed gauges are evaluated) or to
        ``(per_bucket_counts, sum, count)`` for histograms.  Remote
        series merged in from other processes are *not* re-exported:
        each process reports only its own activity, so a two-level
        merge never double-counts.
        """
        snap: dict = {}
        for inst, series in self._walk(remote=False):
            entry = {"kind": inst.kind, "help": inst.help,
                     "labels": inst.labelnames,
                     "series": {key: value for _, key, value in series}}
            if inst.kind == "histogram":
                entry["buckets"] = inst.buckets
            snap[inst.name] = entry
        return snap

    def merge(self, delta: dict, proc: str) -> None:
        """Fold a :func:`snapshot_delta` into this registry under the
        ``proc`` label.  Unknown families are registered on the fly;
        kind/label/bucket disagreements raise (same contract as local
        get-or-create).  Counter and histogram payloads are *deltas*
        and accumulate; gauge payloads are last-values and overwrite.
        """
        for name, entry in delta.items():
            kind = entry["kind"]
            labels = tuple(entry["labels"])
            if kind == "counter":
                inst = self.counter(name, entry.get("help", ""), labels)
            elif kind == "gauge":
                inst = self.gauge(name, entry.get("help", ""), labels)
            elif kind == "histogram":
                inst = self.histogram(name, entry.get("help", ""),
                                      labels,
                                      tuple(entry["buckets"]))
                if inst.buckets != tuple(entry["buckets"]):
                    raise ValueError(
                        f"metric {name!r}: histogram bucket edges "
                        f"disagree across processes")
            else:
                raise ValueError(f"metric {name!r}: unknown kind "
                                 f"{kind!r} in telemetry delta")
            for key, payload in entry["series"].items():
                child = inst._remote_child(tuple(key) + (str(proc),))
                if kind == "counter":
                    child.inc(payload)
                elif kind == "gauge":
                    child.set(payload)
                else:
                    counts, total, n = payload
                    child.merge(counts, total, n)


def snapshot_delta(old: dict | None, new: dict) -> dict:
    """What changed between two :meth:`MetricsRegistry.snapshot` calls,
    in the same format — the compact payload a worker ships per result
    envelope.

    Counters and histograms subtract (monotonic, so deltas are ≥ 0; a
    registry restart — value below the old snapshot — resends the full
    new value).  Gauges are last-value and included only when changed.
    Unchanged and zero-from-birth series are dropped, so an idle worker
    produces an empty dict.
    """
    delta: dict = {}
    old = old or {}
    for name, entry in new.items():
        prev_series = old.get(name, {}).get("series", {})
        changed: dict = {}
        for key, payload in entry["series"].items():
            prev = prev_series.get(key)
            if entry["kind"] == "histogram":
                counts, total, n = payload
                if prev is not None:
                    pcounts, ptotal, pn = prev
                    if n >= pn:
                        counts = tuple(c - p
                                       for c, p in zip(counts, pcounts))
                        total, n = total - ptotal, n - pn
                if n > 0:
                    changed[key] = (counts, total, n)
            elif entry["kind"] == "counter":
                d = payload - (prev if prev is not None else 0.0)
                if d < 0:          # registry restarted: resend total
                    d = payload
                if d > 0:
                    changed[key] = d
            else:                  # gauge: last value wins
                if payload != (prev if prev is not None else 0.0):
                    changed[key] = payload
        if changed:
            slim = {k: v for k, v in entry.items() if k != "series"}
            slim["series"] = changed
            delta[name] = slim
    return delta


# ----------------------------------------------------------------- parsing
def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip()
        if text[eq + 1: eq + 2] != '"':
            raise ValueError(f"unquoted label value in {text!r}")
        j = eq + 2
        raw = []
        while j < len(text) and text[j] != '"':
            if text[j] == "\\":
                raw.append(text[j: j + 2])
                j += 2
            else:
                raw.append(text[j])
                j += 1
        if j >= len(text):
            raise ValueError(f"unterminated label value in {text!r}")
        labels[name] = _unescape("".join(raw))
        i = j + 1
        if i < len(text) and text[i] == ",":
            i += 1
    return labels


def parse_text(text: str) -> dict[str, dict]:
    """Parse the exposition format back into families.

    Returns ``{family_name: {"type": kind, "help": str|None,
    "samples": [(sample_name, labels_dict, value), ...]}}``.  Histogram
    ``_bucket``/``_sum``/``_count`` samples belong to their family.
    Raises :class:`ValueError` on anything the renderer would never
    produce.
    """
    families: dict[str, dict] = {}
    current: str | None = None
    # split on "\n" only: str.splitlines() would also break lines on
    # \x0b-\x0d, \x1c-\x1e, \x85,  ... — characters that are legal
    # *unescaped* inside a quoted label value (escaping covers only
    # \n, \" and \\, as in the Prometheus exposition format)
    for line in text.split("\n"):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(
                name, {"type": None, "help": None, "samples": []})
            families[name]["help"] = help_text
            current = name
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families.setdefault(
                name, {"type": None, "help": None, "samples": []})
            families[name]["type"] = kind.strip()
            current = name
            continue
        if line.startswith("#"):
            continue
        brace = line.find("{")
        if brace != -1:
            sample_name = line[:brace]
            end = line.rindex("}")
            labels = _parse_labels(line[brace + 1: end])
            value_text = line[end + 1:].strip()
        else:
            sample_name, _, value_text = line.partition(" ")
            labels = {}
        value = float("inf") if value_text == "+Inf" \
            else float(value_text)
        family = current
        if family is None or not sample_name.startswith(family):
            family = sample_name
            for suffix in ("_bucket", "_sum", "_count"):
                if sample_name.endswith(suffix):
                    family = sample_name[: -len(suffix)]
            families.setdefault(
                family, {"type": None, "help": None, "samples": []})
        families[family]["samples"].append((sample_name, labels, value))
    return families


# ------------------------------------------------------ latency reservoir
class ReservoirQuantiles:
    """O(1)-memory streaming quantile sketch (Vitter's algorithm R).

    A fixed-size uniform sample over *everything ever observed* — the
    table server's ``/stats`` p50/p99 read from one of these instead of
    an unbounded latency list, so a long-lived server's memory stays
    flat no matter how many requests it has answered.  Seeded, so a
    replayed request sequence yields the same sample.
    """

    def __init__(self, size: int = 1024, seed: int = 0x5EED):
        if size < 1:
            raise ValueError(f"reservoir size must be positive, got {size}")
        self.size = size
        self.count = 0          # observations ever seen
        self._values: list[float] = []
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            if len(self._values) < self.size:
                self._values.append(float(value))
            else:
                slot = self._rng.randrange(self.count)
                if slot < self.size:
                    self._values[slot] = float(value)

    def quantiles(self, *qs: float) -> list[float]:
        """Linear-interpolated quantiles of the current sample
        (``0.0`` when nothing was observed yet)."""
        with self._lock:
            values = sorted(self._values)
        out = []
        for q in qs:
            if not values:
                out.append(0.0)
                continue
            pos = max(0.0, min(1.0, q)) * (len(values) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(values) - 1)
            out.append(values[lo] + (values[hi] - values[lo])
                       * (pos - lo))
        return out

    def quantile(self, q: float) -> float:
        return self.quantiles(q)[0]


# ------------------------------------------------------- default registry
_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every subsystem charges by default."""
    return _default


def counter(name: str, help: str = "",
            labels: tuple[str, ...] = ()) -> Counter:
    return _default.counter(name, help, labels)


def gauge(name: str, help: str = "",
          labels: tuple[str, ...] = ()) -> Gauge:
    return _default.gauge(name, help, labels)


def histogram(name: str, help: str = "", labels: tuple[str, ...] = (),
              buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
    return _default.histogram(name, help, labels, buckets)


def render_text() -> str:
    """Exposition text of the default registry (the ``/metrics`` body)."""
    return _default.render()
