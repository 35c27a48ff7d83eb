"""rANS: range asymmetric numeral systems entropy coder (paper §4.1).

A static byte-oriented rANS with 12-bit quantised frequencies, operating on
the little-endian byte image of the sequence (the dataset's natural value
width).  rANS represents the dictionary/entropy family in the benchmark:
it approaches Shannon's entropy of the byte distribution but is blind to
serial correlation — the contrast the paper draws in §4.3.1.

Decoding is strictly sequential; random access decodes a prefix, which is
why the paper reports ~10^5–10^6 ns random-access latencies for it.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Codec, EncodedSequence, as_int64
from repro.bitio import decode_uvarint, encode_uvarint

_PROB_BITS = 12
_PROB_SCALE = 1 << _PROB_BITS
_RANS_L = 1 << 23  # renormalisation lower bound (byte-wise emission)


def _quantise_freqs(counts: np.ndarray) -> np.ndarray:
    """Scale symbol counts to sum to 2**12 with no used symbol at zero."""
    total = counts.sum()
    if total == 0:
        freqs = np.zeros(256, dtype=np.int64)
        freqs[0] = _PROB_SCALE
        return freqs
    freqs = np.maximum((counts * _PROB_SCALE) // total, 0).astype(np.int64)
    freqs[(counts > 0) & (freqs == 0)] = 1
    # fix the rounding drift by adjusting the most frequent symbol
    drift = _PROB_SCALE - freqs.sum()
    freqs[int(np.argmax(freqs))] += drift
    if freqs.min() < 0 or freqs.sum() != _PROB_SCALE:
        raise AssertionError("frequency quantisation failed")
    return freqs


class RansEncodedSequence(EncodedSequence):
    wire_id = "rans"

    def __init__(self, n: int, width: int, freqs: np.ndarray,
                 payload: bytes, state: int):
        self.n = n
        self.width = width
        self._freqs = freqs
        self._cum = np.concatenate([[0], np.cumsum(freqs)]).astype(np.int64)
        self._payload = payload
        self._state = state
        # symbol lookup: slot -> symbol
        self._slot_to_sym = np.repeat(
            np.arange(256, dtype=np.uint8), freqs).astype(np.uint8)
        # Vectorised decode-table build: per-slot frequency and the
        # precombined `slot - cum[sym]` remainder, so the (inherently
        # serial) decode loop below is pure list indexing + int arithmetic
        # with no per-symbol numpy scalar work left inside it.
        slot_freq = freqs[self._slot_to_sym]
        slot_rem = (np.arange(_PROB_SCALE, dtype=np.int64)
                    - self._cum[self._slot_to_sym])
        self._sym_bytes = self._slot_to_sym.tobytes()
        self._slot_freq = slot_freq.tolist()
        self._slot_rem = slot_rem.tolist()

    def __len__(self) -> int:
        return self.n

    def _decode_bytes(self, count: int) -> np.ndarray:
        out = bytearray(count)
        state = self._state
        payload = self._payload
        pos = 0
        npayload = len(payload)
        sym_bytes = self._sym_bytes
        slot_freq = self._slot_freq
        slot_rem = self._slot_rem
        mask = _PROB_SCALE - 1
        for i in range(count):
            slot = state & mask
            out[i] = sym_bytes[slot]
            state = slot_freq[slot] * (state >> _PROB_BITS) + slot_rem[slot]
            while state < _RANS_L and pos < npayload:
                state = (state << 8) | payload[pos]
                pos += 1
        return np.frombuffer(bytes(out), dtype=np.uint8)

    def _decode_prefix_values(self, count: int) -> np.ndarray:
        """Decode the first ``count`` values (the sequential-access cost)."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        raw = self._decode_bytes(count * self.width)
        padded = np.zeros((count, 8), dtype=np.uint8)
        padded[:, : self.width] = raw.reshape(count, self.width)
        return padded.view(np.uint64).ravel().astype(np.int64)

    def decode_all(self) -> np.ndarray:
        return self._decode_prefix_values(self.n)

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Batch access: one prefix decode up to the furthest index.

        rANS stays strictly sequential, but a batch shares the prefix work
        instead of re-decoding it per position as scalar ``get`` must.
        """
        indices = self._check_indices(indices)
        if indices.size == 0:
            return np.empty(0, dtype=np.int64)
        prefix = self._decode_prefix_values(int(indices.max()) + 1)
        return prefix[indices]

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        """Prefix decode up to ``hi`` and slice (no suffix work)."""
        if not 0 <= lo <= hi <= self.n:
            raise IndexError(f"bad range [{lo}, {hi}) for n={self.n}")
        return self._decode_prefix_values(hi)[lo:hi]

    def _get(self, position: int) -> int:
        raw = self._decode_bytes((position + 1) * self.width)
        chunk = raw[position * self.width: (position + 1) * self.width]
        value = 0
        for byte in chunk[::-1]:
            value = (value << 8) | int(byte)
        # full-width values are the little-endian image of an int64:
        # fold back to signed (decode_all's uint64 -> int64 cast does this)
        if value >= 1 << 63:
            value -= 1 << 64
        return value

    def compressed_size_bytes(self) -> int:
        # freq table: 256 x 12 bits; state: 4 bytes; header: 9
        return len(self._payload) + (256 * _PROB_BITS) // 8 + 4 + 9

    def payload_bytes(self) -> bytes:
        out = bytearray()
        out += encode_uvarint(self.n)
        out.append(self.width)
        out += self._freqs.astype(">u2").tobytes()
        out += encode_uvarint(self._state)
        out += self._payload
        return bytes(out)

    @classmethod
    def from_payload(cls, payload: bytes) -> "RansEncodedSequence":
        n, offset = decode_uvarint(payload, 0)
        width = payload[offset]
        offset += 1
        freqs = np.frombuffer(payload, dtype=">u2", count=256,
                              offset=offset).astype(np.int64)
        offset += 512
        state, offset = decode_uvarint(payload, offset)
        return cls(n, width, freqs, payload[offset:], state)


class RansCodec(Codec):
    """Static byte-wise rANS over the value bytes."""

    name = "rans"
    sequential_access = True

    def __init__(self, width: int | None = None):
        self.width = width

    def encode(self, values: np.ndarray) -> RansEncodedSequence:
        values = as_int64(values)
        width = self.width or infer_value_width(values)
        raw = values.astype(np.uint64).view(np.uint8).reshape(-1, 8)
        stream = np.ascontiguousarray(raw[:, :width]).ravel()
        counts = np.bincount(stream, minlength=256).astype(np.int64)
        freqs = _quantise_freqs(counts)
        cum = np.concatenate([[0], np.cumsum(freqs)]).astype(np.int64)

        # hoist the per-symbol table lookups out of the serial loop:
        # frequency, cumulative base, and renormalisation threshold become
        # plain-list reads on the symbol byte
        freq_list = freqs.tolist()
        cum_list = cum[:-1].tolist()
        max_state_list = (((_RANS_L >> _PROB_BITS) << 8) * freqs).tolist()

        # encode in reverse so the decoder reads forwards
        state = _RANS_L
        out = bytearray()
        for sym in stream[::-1].tolist():
            freq = freq_list[sym]
            # renormalise: flush low bytes while the state is too large
            max_state = max_state_list[sym]
            while state >= max_state:
                out.append(state & 0xFF)
                state >>= 8
            state = ((state // freq) << _PROB_BITS) + state % freq \
                + cum_list[sym]
        out.reverse()
        return RansEncodedSequence(len(values), width, freqs, bytes(out),
                                   state)


def infer_value_width(values: np.ndarray) -> int:
    """Natural byte width of the data (4 for 32-bit ranges, else 8)."""
    values = as_int64(values)
    if values.size == 0:
        return 4
    lo, hi = int(values.min()), int(values.max())
    if lo >= 0 and hi < (1 << 32):
        return 4
    return 8
