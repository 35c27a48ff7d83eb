"""Index-block codecs (paper §5.2).

An index block maps separator keys to block handles (offset, size).  Two
families are compared:

* :class:`RestartDeltaIndex` — RocksDB's native scheme: within each
  "restart interval" of ``ri`` entries, the first key is stored whole and
  the rest as (shared-prefix length, suffix); handles are delta-encoded.
  Lookup binary-searches the restart points, then decodes the interval
  sequentially.  ``ri=1`` stores every key whole (RocksDB's default — no
  compression, fastest lookup); larger ``ri`` trades lookup CPU for size.
* :class:`LecoIndex` — keys compressed with LeCo's string extension,
  offsets with LeCo-fix; both support random access, so the binary search
  touches only O(log n) entries with no interval decoding.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro import codecs
from repro.bitio import decode_uvarint, encode_uvarint


class IndexBlock(ABC):
    """Searchable index over (separator key, block id)."""

    @abstractmethod
    def lookup(self, key: bytes) -> int:
        """Block id whose separator is the smallest key >= ``key``.

        Returns the last block when ``key`` exceeds every separator.
        """

    @abstractmethod
    def size_bytes(self) -> int: ...

    @property
    @abstractmethod
    def entry_count(self) -> int: ...


class RestartDeltaIndex(IndexBlock):
    """RocksDB-style prefix-delta index with restart intervals."""

    def __init__(self, keys: list[bytes], restart_interval: int = 1):
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self.ri = restart_interval
        self._n = len(keys)
        self._restart_keys: list[bytes] = []
        self._units: list[bytes] = []
        for start in range(0, len(keys), restart_interval):
            chunk = keys[start: start + restart_interval]
            self._restart_keys.append(chunk[0])
            unit = bytearray()
            prev = chunk[0]
            unit += encode_uvarint(len(chunk[0]))
            unit += chunk[0]
            for key in chunk[1:]:
                shared = _shared_prefix_len(prev, key)
                unit += encode_uvarint(shared)
                unit += encode_uvarint(len(key) - shared)
                unit += key[shared:]
                prev = key
            self._units.append(bytes(unit))

    @property
    def entry_count(self) -> int:
        return self._n

    def _decode_unit(self, unit_id: int) -> list[bytes]:
        data = self._units[unit_id]
        keys: list[bytes] = []
        offset = 0
        klen, offset = decode_uvarint(data, offset)
        keys.append(data[offset: offset + klen])
        offset += klen
        while offset < len(data):
            shared, offset = decode_uvarint(data, offset)
            rest, offset = decode_uvarint(data, offset)
            keys.append(keys[-1][:shared] + data[offset: offset + rest])
            offset += rest
        return keys

    def lookup(self, key: bytes) -> int:
        from bisect import bisect_right

        unit_id = bisect_right(self._restart_keys, key) - 1
        if unit_id < 0:
            return 0
        # the sequential decompression the paper charges against large RI
        keys = self._decode_unit(unit_id)
        for local, sep in enumerate(keys):
            if sep >= key:
                return unit_id * self.ri + local
        next_entry = unit_id * self.ri + len(keys)
        return min(next_entry, self._n - 1)

    def size_bytes(self) -> int:
        payload = sum(len(u) for u in self._units)
        restarts = 4 * len(self._units)
        return payload + restarts


class LecoIndex(IndexBlock):
    """Index block with LeCo-compressed keys (string extension, §5.2)."""

    def __init__(self, keys: list[bytes], partition_size: int = 64):
        self._n = len(keys)
        self._keys = codecs.get(
            "leco-str", partition_size=partition_size).encode(keys)

    @property
    def entry_count(self) -> int:
        return self._n

    def lookup(self, key: bytes) -> int:
        lo, hi = 0, self._n - 1
        result = self._n - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            if self._keys.get(mid) >= key:
                result = mid
                hi = mid - 1
            else:
                lo = mid + 1
        return result

    def size_bytes(self) -> int:
        return self._keys.compressed_size_bytes()


def _shared_prefix_len(a: bytes, b: bytes) -> int:
    limit = min(len(a), len(b))
    idx = 0
    while idx < limit and a[idx] == b[idx]:
        idx += 1
    return idx
