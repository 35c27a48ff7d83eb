"""Quickstart: the unified codec registry, LeCo first.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CodecSpec, codecs, compress, decompress

# A typical "serial correlated" column: event timestamps with jitter.
rng = np.random.default_rng(42)
timestamps = 1_700_000_000 + np.cumsum(rng.poisson(40, 100_000))

# ---------------------------------------------------------------- registry
# Every scheme the paper evaluates is reachable through one registry.
print("registered codecs:", ", ".join(codecs.available()))

# Construct a codec by name; encode returns the vectorised sequence
# protocol: gather / decode_range / decode_all / size_bytes / to_bytes.
# Every partitioned codec (leco*, for, delta*) takes its plan as
# partitioner= "fixed" | "variable" | "auto" | an int | a Partitioner.
leco = codecs.get("leco")
seq = leco.encode(timestamps)

raw_bytes = timestamps.nbytes
print(f"\nrows:              {len(seq):,}")
print(f"raw size:          {raw_bytes:,} bytes")
print(f"compressed size:   {seq.size_bytes():,} bytes "
      f"({seq.size_bytes() / raw_bytes:.1%})")

# Batch random access is the first-class path: one vectorised gather.
positions = rng.integers(0, len(timestamps), 10_000)
assert np.array_equal(seq.gather(positions), timestamps[positions])
print(f"gather(10k probes) matches; scalar seq[12345] = {seq[12345]}")

# Range decode touches only the partitions covering [lo, hi).
assert np.array_equal(seq.decode_range(500, 600), timestamps[500:600])

# ---------------------------------------------------------------- envelope
# to_bytes() writes a self-describing envelope (magic + codec id +
# version + payload): from_bytes revives it without knowing the scheme.
blob = seq.to_bytes()
revived = codecs.from_bytes(blob)
assert np.array_equal(revived.decode_all(), timestamps)
print(f"\nenvelope:          {len(blob):,} bytes, round trip OK")

# The same call revives any registered codec's blob.
delta_blob = codecs.get("delta").encode(timestamps).to_bytes()
assert np.array_equal(codecs.from_bytes(delta_blob).decode_all(),
                      timestamps)

# Capability flags drive generic consumers (store, benchmarks, tests).
info = codecs.info("delta")
print(f"delta: sequential_access={info.sequential_access}, "
      f"model_bounds={info.supports_model_bounds}")

# ---------------------------------------------------------------- CodecSpec
# Configuration travels as one CodecSpec; compress() is the one-call shim
# over codecs.get(spec.codec, spec=spec).encode(values), so what it
# returns is the same sequence object as above.
spec = CodecSpec(mode="var", regressor="auto", tau=0.05)
arr = compress(timestamps, spec)
print(f"\nvariable+auto:     {arr.compressed_size_bytes():,} bytes "
      f"({len(arr.starts)} partitions)")
assert np.array_equal(decompress(arr), timestamps)
assert np.array_equal(decompress(arr.to_bytes()), timestamps)

# Strings go through the same registry (LeCo §3.4 and FSST).
urls = [f"https://example.com/item/{i:07d}".encode() for i in range(2000)]
for name in ("leco-str", "fsst"):
    s = codecs.get(name).encode(urls)
    assert codecs.from_bytes(s.to_bytes()).decode_all() == urls
    print(f"{name:9s} strings:  {s.size_bytes():,} bytes "
          f"(raw {sum(len(u) for u in urls):,})")
