"""Bounded, thread-safe LRU cache for decoded column chunks.

Scan workers revive each surviving chunk from its envelope bytes
(``codecs.from_bytes``) before filtering/gathering; the cache keeps those
revived sequences across scans so warm queries skip the mmap read and the
envelope parse entirely.  Capacity is bounded in *stored chunk bytes* (the
honest proxy for the decoded footprint of the lightweight codecs), entries
are evicted least-recently-used, and all operations are lock-protected so
the thread-pool executor — and, since PR 7, *every query of a table
server* — can share one cache.

Attribution contract: lifetime totals live in the metrics registry only
(``repro_cache_lookups_total`` / ``repro_cache_evictions_total``, summed
over every cache in the process tree — what ``/metrics`` and the
server's ``/stats`` hit rate read).  Per-query accounting never reads
them — :meth:`get_or_load` returns this call's own ``(hit, evictions)``
outcome so concurrent queries each charge exactly their own deltas to
their own :class:`~repro.exec.run.ExecStats`, instead of diffing a racy
global snapshot.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.obs import metrics as obs_metrics

#: default cache budget: 64 MiB of stored chunk bytes
DEFAULT_CAPACITY_BYTES = 64 << 20

# process-wide cache metrics: every ChunkCache instance charges the same
# series (an operator wants total cache pressure, not per-instance).
# Counters simply sum; the gauges are *function-backed* — rendered as
# the sum over every live cache instance, so N open tables (or serve +
# per-worker caches) no longer clobber each other last-writer-wins,
# and the hot path pays no per-insert gauge writes at all.
_M_LOOKUPS = obs_metrics.counter(
    "repro_cache_lookups_total", "chunk cache lookups by outcome",
    labels=("outcome",))
_M_HIT = _M_LOOKUPS.labels(outcome="hit")
_M_MISS = _M_LOOKUPS.labels(outcome="miss")
_M_EVICTIONS = obs_metrics.counter(
    "repro_cache_evictions_total", "chunk cache entries evicted")
_M_USED = obs_metrics.gauge(
    "repro_cache_used_bytes",
    "stored chunk bytes held across all live caches")
_M_ENTRIES = obs_metrics.gauge(
    "repro_cache_entries", "entries held across all live caches")

_LIVE_LOCK = threading.Lock()
_LIVE_CACHES: "weakref.WeakSet[ChunkCache]" = weakref.WeakSet()


def _sum_live(attr: str) -> int:
    with _LIVE_LOCK:
        caches = list(_LIVE_CACHES)
    total = 0
    for cache in caches:
        with cache._lock:
            total += cache._used_bytes if attr == "bytes" \
                else len(cache._entries)
    return total


_M_USED.set_function(lambda: _sum_live("bytes"))
_M_ENTRIES.set_function(lambda: _sum_live("entries"))


class ChunkCache:
    """LRU map from chunk key to revived sequence, bounded in bytes."""

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        if capacity_bytes < 0:
            raise ValueError(f"negative capacity {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._used_bytes = 0
        with _LIVE_LOCK:
            _LIVE_CACHES.add(self)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._used_bytes

    def stats(self) -> dict:
        """One consistent snapshot of this cache's occupancy (lookup
        and eviction totals are registry series, not instance state)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "used_bytes": self._used_bytes,
                "capacity_bytes": self.capacity_bytes,
            }

    def get_or_load(self, key: Hashable, loader: Callable[[], Any],
                    nbytes: int) -> tuple[Any, bool, int]:
        """Return ``(value, was_hit, evictions)``; ``loader`` runs outside
        the lock.  ``evictions`` counts the entries *this call's* insert
        pushed out — the caller charges them to its own query stats.

        Two threads racing on the same absent key may both load; the second
        insert wins harmlessly (values are immutable revived sequences).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                _M_HIT.inc()
                return entry[0], True, 0
            _M_MISS.inc()
        value = loader()
        evicted = 0
        with self._lock:
            if key not in self._entries:
                self._entries[key] = (value, nbytes)
                self._used_bytes += nbytes
                evicted = self._evict_locked()
        if evicted:
            _M_EVICTIONS.inc(evicted)
        return value, False, evicted

    def _evict_locked(self) -> int:
        evicted = 0
        while self._used_bytes > self.capacity_bytes and len(self._entries) > 1:
            _, (_, dropped) = self._entries.popitem(last=False)
            self._used_bytes -= dropped
            evicted += 1
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._used_bytes = 0
