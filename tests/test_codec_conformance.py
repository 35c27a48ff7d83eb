"""Registry-driven conformance suite (runs against EVERY registered codec).

The parametrization enumerates :func:`repro.codecs.available` at collection
time, so registering a new codec automatically subjects it to the shared
contract — no test edits required:

* ``from_bytes(to_bytes(x))`` round-trips through the envelope;
* ``gather(idx)`` equals ``decode_all()[idx]`` on random index sets
  including duplicates and boundary indices;
* ``decode_range(lo, hi)`` equals the full-decode slice;
* scalar ``get`` agrees with ``gather`` (negatives wrap once, both raise
  ``IndexError`` out of range);
* ``filter_range(lo, hi)`` equals the decoded comparison and
  ``model_bounds()`` never excludes a stored value;
* every access path of a ``CompressedArray`` equals a per-position
  reference decoder, and its partitions cover each position exactly
  once, under every plan and regressor (:class:`TestBatchedDecode`);
* ``gather_many`` over many sequences equals their own ``gather`` /
  ``decode_all`` results end to end, codecs mixed or not
  (:class:`TestGatherMany`);
* the envelope rejects truncated and foreign-magic blobs with ValueError;
* the envelope bytes of every LAPACK-free encoder equal the pinned golden
  digests (:class:`TestGoldenBytes`).

Each contract runs on a serial-correlated input and on uniformly random
values over the whole int64 range (64-bit hashes).
"""

import hashlib

import numpy as np
import pytest

from repro import codecs
from repro.baselines.base import gather_many
from repro.bitio import BitPackedArray
from repro.core.encoding import CompressedArray
from repro.core.regressors import (
    available_regressors,
    floor_to_int64,
    get_regressor,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the CI image
    HAVE_HYPOTHESIS = False

INT_CODECS = [n for n in codecs.available()
              if codecs.info(n).supports_integers]
STR_CODECS = [n for n in codecs.available()
              if codecs.info(n).supports_strings]
INT64 = np.iinfo(np.int64)


def make_int_data(name: str, n: int = 600, seed: int = 7) -> np.ndarray:
    """Integer test data honouring the codec's input capabilities."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([
        np.cumsum(rng.integers(0, 50, n // 2)),       # serial-correlated
        rng.integers(-(1 << 33), 1 << 33, n - n // 2),  # wide + negative
    ]).astype(np.int64)
    if codecs.info(name).requires_sorted:
        values = np.sort(np.abs(values))
    return values


def full_range_data(name: str, n: int = 600, seed: int = 11) -> np.ndarray:
    """Uniformly random int64 (64-bit hashes): spans beyond 2**63."""
    values = np.random.default_rng(seed).integers(
        -(1 << 63), (1 << 63) - 1, n)
    return np.sort(values) if codecs.info(name).requires_sorted else values


def int_datasets(name: str) -> list[np.ndarray]:
    return [make_int_data(name), full_range_data(name)]


def make_strings(n: int = 300) -> list[bytes]:
    return [f"host-{i // 7:04d}.shard{i % 7}.example.net".encode()
            for i in range(n)]


def encode(name: str, data):
    return codecs.get(name).encode(data)


class TestIntegerConformance:
    @pytest.mark.parametrize("name", INT_CODECS)
    def test_envelope_roundtrip(self, name):
        for values in int_datasets(name):
            seq = encode(name, values)
            blob = seq.to_bytes()
            assert blob[:4] == codecs.MAGIC
            revived = codecs.from_bytes(blob)
            assert len(revived) == len(values)
            assert np.array_equal(revived.decode_all(), values)
            # a second serialise/parse cycle is stable, byte for byte
            assert revived.to_bytes() == blob
            assert np.array_equal(
                codecs.from_bytes(revived.to_bytes()).decode_all(), values)

    @pytest.mark.parametrize("regressor",
                             [*available_regressors(), "auto"])
    def test_revived_leco_reserialises_byte_for_byte(self, regressor):
        # "auto" mixes regressor names inside one payload (the _FLAG_MIXED
        # header); short input keeps the sin/log fits cheap
        values = make_int_data("leco", n=96)
        for plan in (8, "variable"):
            blob = codecs.get("leco", regressor=regressor,
                              partitioner=plan).encode(values).to_bytes()
            assert codecs.from_bytes(blob).to_bytes() == blob, plan

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_gather_matches_decode_all(self, name):
        for values in int_datasets(name):
            seq = encode(name, values)
            rng = np.random.default_rng(3)
            n = len(values)
            idx = np.concatenate([
                [0, n - 1, 0, n - 1],          # boundaries, duplicated
                rng.integers(0, n, 64),
                rng.integers(0, n, 16),        # extra duplicates likely
            ]).astype(np.int64)
            out = np.asarray(seq.gather(idx), dtype=np.int64)
            assert np.array_equal(out, values[idx])

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_gather_empty_and_bounds(self, name):
        values = make_int_data(name)
        seq = encode(name, values)
        assert seq.gather(np.empty(0, dtype=np.int64)).size == 0
        with pytest.raises(IndexError):
            seq.gather(np.array([len(values)]))

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_scalar_get_agrees(self, name):
        for values in int_datasets(name):
            seq = encode(name, values)
            n = len(values)
            # negatives wrap once, exactly as gather's do
            for pos in (0, 1, n // 2, n - 1, -1, -n):
                assert seq.get(pos) == seq[pos] == int(values[pos])
                assert seq.gather(np.array([pos]))[0] == values[pos]
            for pos in (n, -n - 1):
                with pytest.raises(IndexError):
                    seq.get(pos)
                with pytest.raises(IndexError):
                    seq.gather(np.array([pos]))

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_decode_range_matches_slice(self, name):
        for values in int_datasets(name):
            seq = encode(name, values)
            n = len(values)
            for lo, hi in ((0, 0), (0, n), (7, 8), (n // 3, 2 * n // 3),
                           (n - 1, n)):
                assert np.array_equal(seq.decode_range(lo, hi),
                                      values[lo:hi])
            with pytest.raises(IndexError):
                seq.decode_range(0, n + 1)

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_filter_range_and_model_bounds(self, name):
        for values in int_datasets(name):
            check_filter_and_bounds(encode(name, values), values)

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_envelope_rejects_truncation(self, name):
        blob = encode(name, make_int_data(name)).to_bytes()
        for cut in (3, 5, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ValueError):
                codecs.from_bytes(blob[:cut])

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_envelope_rejects_foreign_magic(self, name):
        blob = encode(name, make_int_data(name)).to_bytes()
        with pytest.raises(ValueError):
            codecs.from_bytes(b"ZSTD" + blob[4:])

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_sequential_access_flag_matches_codec(self, name):
        codec = codecs.get(name)
        assert codecs.info(name).sequential_access == \
            getattr(codec, "sequential_access", False)


def partition_bands(seq) -> list:
    """Ranges a partitioned sequence decides from its bands alone: one
    partition's band exactly, and runs of whole partitions (none for a
    codec without ``partition_value_bounds``)."""
    bounds = getattr(seq, "partition_value_bounds", None)
    if bounds is None or len(seq) == 0:
        return []
    bounds = bounds()
    mid = len(bounds) // 2
    return [(int(bounds[j, 0]), int(bounds[j, 1]) + 1)
            for j in {0, mid, len(bounds) - 1}] + [
        (int(bounds[a:b, 0].min()), int(bounds[a:b, 1].max()) + 1)
        for a, b in ((0, mid + 1), (mid, len(bounds)),
                     (0, len(bounds)))]


def check_filter_and_bounds(seq, values: np.ndarray) -> None:
    """``filter_range`` equals the decoded comparison on the edge bands,
    on ranges a partition's band decides whole, and at the int64
    extremes; ``model_bounds()`` is ``None`` or contains every stored
    value."""
    decoded = seq.decode_all()
    assert np.array_equal(decoded, values)
    vmin, vmax = int(values.min()), int(values.max())
    mid = int(values[len(values) // 2])
    bands = [(mid, mid), (vmax, vmin),          # empty
             (vmin, vmax + 1),                  # all
             (mid, mid + 1),                    # single value
             (vmin, mid), (vmin, vmin + 1),     # lo == min
             (mid, vmax), (vmin, vmax),         # hi == max (exclusive)
             (INT64.min, INT64.max), (INT64.min, mid),
             (mid, INT64.max), (INT64.min, INT64.min + 1),
             (INT64.max, INT64.max), *partition_bands(seq)]
    for lo, hi in bands:
        expected = (decoded >= lo) & (decoded < hi)
        got = seq.filter_range(lo, hi)
        assert got.dtype == bool and np.array_equal(got, expected), (lo, hi)
    bounds = seq.model_bounds()
    if bounds is not None:
        assert bounds[0] <= vmin and vmax <= bounds[1]


class TestFilterRangeDecodesOnlyEdges:
    """A partition whose band lies inside ``[lo, hi)`` is set without a
    slot read: only the partitions straddling ``lo`` or ``hi`` decode."""

    @staticmethod
    def _spy(monkeypatch) -> list:
        from repro.core.encoding import format as leco_format

        reads = []
        real = leco_format.gather_bits

        def counting(image, bit_offsets, widths):
            reads.append(len(bit_offsets))
            return real(image, bit_offsets, widths)

        monkeypatch.setattr(leco_format, "gather_bits", counting)
        return reads

    @pytest.mark.parametrize("name", [
        n for n in INT_CODECS
        if codecs.info(n).wire_id == CompressedArray.wire_id])
    def test_only_straddling_partitions_read_slots(self, name,
                                                   monkeypatch):
        # eight 500-row regimes of different slopes, so every
        # partitioner cuts several partitions
        rng = np.random.default_rng(5)
        values = np.concatenate([
            np.cumsum(rng.integers(0, step, 500)) + 10**6 * i
            for i, step in enumerate((5, 500, 20, 2000, 50, 5, 300, 10))
        ]).astype(np.int64)
        seq = codecs.get(name, partitioner=256).encode(values)
        bounds = seq.partition_value_bounds()
        assert len(bounds) > 4
        reads = self._spy(monkeypatch)
        # a range covering every band: no slot is read at all
        lo, hi = int(bounds[:, 0].min()), int(bounds[:, 1].max()) + 1
        assert seq.filter_range(lo, hi).all()
        assert reads == []
        # a range inside the data: exactly the straddling partitions'
        # rows are read, and the answer is the decoded comparison's
        lo, hi = int(values[1000]), int(values[3000])
        got = seq.filter_range(lo, hi)
        assert np.array_equal(got, (values >= lo) & (values < hi))
        inside = (bounds[:, 0] >= lo) & (bounds[:, 1] < hi)
        edge = (bounds[:, 1] >= lo) & (bounds[:, 0] < hi) & ~inside
        assert inside.any() and edge.any()
        assert reads == [int(seq.lengths[edge].sum())]


class TestNonMonotoneBounds:
    @pytest.mark.parametrize("regressor", available_regressors())
    def test_values_beyond_2_62_are_never_pruned(self, regressor):
        """A non-monotone partition's bound is the whole int64 range (a
        +-2**62 sentinel excluded stored values) and such a sequence has
        no model bounds at all."""
        info = np.iinfo(np.int64)
        for values in (info.min + 3 * np.arange(4096, dtype=np.int64),
                       info.max - 3 * np.arange(4096, dtype=np.int64)):
            seq = codecs.get("leco", regressor=regressor,
                             partitioner=512).encode(values)
            check_filter_and_bounds(seq, values)
            bounds = seq.partition_value_bounds()
            monotone = [seq.regressor_names[k] in ("constant", "linear")
                        for k in seq.regressor_ids]
            for j in np.flatnonzero(~np.array(monotone)):
                assert tuple(bounds[j]) == (info.min, info.max)
            if not all(monotone):
                assert seq.model_bounds() is None


class TestStringConformance:
    @pytest.mark.parametrize("name", STR_CODECS)
    def test_envelope_roundtrip(self, name):
        strings = make_strings()
        seq = encode(name, strings)
        blob = seq.to_bytes()
        revived = codecs.from_bytes(blob)
        assert revived.decode_all() == strings
        assert revived.to_bytes() == blob

    @pytest.mark.parametrize("name", STR_CODECS)
    def test_gather_matches_decode_all(self, name):
        strings = make_strings()
        seq = encode(name, strings)
        idx = [0, len(strings) - 1, 5, 5, 17]
        assert list(seq.gather(idx)) == [strings[i] for i in idx]

    @pytest.mark.parametrize("name", STR_CODECS)
    def test_get_in_bounds(self, name):
        strings = make_strings()
        seq = encode(name, strings)
        assert seq.get(42) == strings[42]


class TestEnvelopeFormat:
    def test_unknown_codec_id_rejected(self):
        blob = codecs.envelope.pack("no-such-codec", b"\x00\x01")
        with pytest.raises(ValueError, match="no decoder"):
            codecs.from_bytes(blob)

    def test_future_version_rejected(self):
        blob = bytearray(codecs.envelope.pack("plain", b""))
        blob[4] = 99
        with pytest.raises(ValueError, match="version"):
            codecs.from_bytes(bytes(blob))

    def test_empty_blob_rejected(self):
        with pytest.raises(ValueError):
            codecs.from_bytes(b"")

    def test_registry_lookup_errors(self):
        with pytest.raises(ValueError, match="unknown codec"):
            codecs.get("no-such-codec")
        with pytest.raises(ValueError, match="unknown codec"):
            codecs.info("no-such-codec")

    def test_info_records_wire_ids(self):
        for name in codecs.available():
            assert codecs.info(name).wire_id is not None

    def test_sequences_carry_registered_wire_id(self):
        values = make_int_data("plain", n=200)
        for name in INT_CODECS:
            data = np.sort(np.abs(values)) \
                if codecs.info(name).requires_sorted else values
            seq = codecs.get(name).encode(data)
            assert seq.wire_id == codecs.info(name).wire_id, name


class TestLecoModeNames:
    def test_name_implied_mode_overrides_spec(self):
        """codecs.get("leco-var", spec=...) must run variable partitioning
        even when the spec carries the default mode."""
        values = np.cumsum(np.arange(4000) % 7).astype(np.int64)
        spec = codecs.CodecSpec(codec="leco-var")  # mode defaults to "fix"
        var_arr = codecs.get("leco-var", spec=spec).encode(values)
        fix_arr = codecs.get("leco-fix").encode(values)
        assert var_arr.fixed_size is None
        assert fix_arr.fixed_size is not None

    def test_generic_leco_defers_to_spec(self):
        values = np.cumsum(np.arange(4000) % 7).astype(np.int64)
        spec = codecs.CodecSpec(mode="var")
        arr = codecs.get("leco", spec=spec).encode(values)
        assert arr.fixed_size is None

    def test_old_plan_spellings_are_rejected(self):
        """``partitioner=`` is the one spelling of the partition plan."""
        with pytest.raises(TypeError):
            codecs.get("delta", partition_size=64)
        with pytest.raises(TypeError):
            codecs.get("for", frame_size=64)
        for name in INT_CODECS:
            assert codecs.info(name).partitioned == (
                name.startswith(("leco", "delta")) or name == "for")
        sizes = {p.length for p in codecs.get(
            "delta", spec=codecs.CodecSpec(codec="delta",
                                           max_partition_size=64)
        ).encode(np.arange(2048)).partitions}
        assert max(sizes) <= 64


# ---------------------------------------------------------------- golden
# sha256 of ``codecs.get(name, **kwargs).encode(v).to_bytes()`` computed at
# the commit BEFORE the constructors were unified (PR 21's parent), through
# that commit's per-class constructors and keyword names.  Only LAPACK-free
# encoders (linear/constant regressors) over RNG-free inputs are pinned,
# so the digests hold on any platform.  A change that moves one of them
# changed stored bytes: that is a format change, never a refactor.
_i = np.arange(3000)
GOLDEN_INPUTS = {
    "arith": 1000 + 37 * _i,
    "step": (_i // 250) * 100_000 + (_i % 250) * 3,
    "scramble": (np.arange(2500) * 2654435761) % 1_000_003 - 500_000,
    # 1237 is prime: no partition size divides it
    "ragged": np.cumsum(np.arange(1237) % 7) * 5 - 9000,
}
_PLANS = ("fixed", "variable", "auto", 64)
GOLDEN_FORMS = {
    **{name: (name, {}) for name in (
        "leco", "leco-fix", "leco-var", "leco-auto", "for", "delta",
        "delta-var", "dict", "plain", "rle", "rans", "elias-fano")},
    **{f"{name}/{plan}": (name, {"partitioner": plan})
       for name in ("leco", "for", "delta") for plan in _PLANS},
    "leco/constant/64": ("leco", {"regressor": "constant",
                                  "partitioner": 64}),
}
GOLDEN_DIGESTS = {
    "arith": {
        "leco":
            "d9a3246fad5cd052d800f6ee1d9c70fc4d06d1348f9166c5c41e1954550540fd",
        "leco/fixed":
            "d9a3246fad5cd052d800f6ee1d9c70fc4d06d1348f9166c5c41e1954550540fd",
        "leco/variable":
            "12a4eebb8cf38d8003629d9b1b26b5ef1051f0149f7cee24f53fdf5168326762",
        "leco/auto":
            "d9a3246fad5cd052d800f6ee1d9c70fc4d06d1348f9166c5c41e1954550540fd",
        "leco/64":
            "27522ae02a11ac7bcf8d5cbbed15fae70b574d120ef7467d74a55878fc0ac8f4",
        "leco/constant/64":
            "f53f0d7c4594c103c9dfee5c8d0adc0a983a1144d254bd2b92c96ea8b29c4b5f",
        "leco-fix":
            "d9a3246fad5cd052d800f6ee1d9c70fc4d06d1348f9166c5c41e1954550540fd",
        "leco-var":
            "12a4eebb8cf38d8003629d9b1b26b5ef1051f0149f7cee24f53fdf5168326762",
        "leco-auto":
            "d9a3246fad5cd052d800f6ee1d9c70fc4d06d1348f9166c5c41e1954550540fd",
        "for":
            "2adf944c87eea7f9d5b36af45465737bc5762e1c23a212dcc7e0d7e75466bcfb",
        "for/fixed":
            "2adf944c87eea7f9d5b36af45465737bc5762e1c23a212dcc7e0d7e75466bcfb",
        "for/variable":
            "2d8679e6c9108964d816b2b135666f6ccf90b17b7b8753bd5339ee7008c8a99c",
        "for/auto":
            "2adf944c87eea7f9d5b36af45465737bc5762e1c23a212dcc7e0d7e75466bcfb",
        "for/64":
            "f53f0d7c4594c103c9dfee5c8d0adc0a983a1144d254bd2b92c96ea8b29c4b5f",
        "delta":
            "061f4f5a61556c8032fa934ce0bc4fdadb694e712fe917f74e8d4e7e67c96a7f",
        "delta/fixed":
            "061f4f5a61556c8032fa934ce0bc4fdadb694e712fe917f74e8d4e7e67c96a7f",
        "delta/variable":
            "71e8513dc4de527d0f1af39ba51697546a5cb6d6be02e317fad6d6d960fe7454",
        "delta/auto":
            "061f4f5a61556c8032fa934ce0bc4fdadb694e712fe917f74e8d4e7e67c96a7f",
        "delta/64":
            "0adb074388562978d541332179a363b0810f0bc91fd738211342841c0738be6f",
        "delta-var":
            "71e8513dc4de527d0f1af39ba51697546a5cb6d6be02e317fad6d6d960fe7454",
        "dict":
            "8dbe63fc3f8e0637968d4c77f701a81d08328d319693e79ba464b7eed9b14584",
        "plain":
            "42c97303d9cf1014ddc222fb81e21c44b57288b4bf86be9a8a6a80c0ea2828e3",
        "rle":
            "04f177c4733c82fbe4fd5c550df54f88b2be772921564be0436e1d0b22fd4c77",
        "rans":
            "b726a30c94a5fefa32e94a38e3cf2961740aa2f1e88685a0111d14490b5edbd4",
        "elias-fano":
            "10c030c934aa634b66d606b1515a732cf7a3cb548f72705e71843e090a6c4054",
    },
    "step": {
        "leco":
            "a2cc955d155f5ec62c2d60e360cdf05b706dc426f836bd411dc8a98d195b39e7",
        "leco/fixed":
            "a2cc955d155f5ec62c2d60e360cdf05b706dc426f836bd411dc8a98d195b39e7",
        "leco/variable":
            "65fa6b3747a5cc369242da5ee9bf3736e2a7c79bf275c9a01a8ca1a65357ba0b",
        "leco/auto":
            "65fa6b3747a5cc369242da5ee9bf3736e2a7c79bf275c9a01a8ca1a65357ba0b",
        "leco/64":
            "79e571a7b58ff0fea6fe1df036e26324a7d0edfff453b1b6977ec392a13cce64",
        "leco/constant/64":
            "ca2fecd4abd611e83ba7f71881c0bd5e01508c9404c0b90b05c6934fbb9a5b14",
        "leco-fix":
            "a2cc955d155f5ec62c2d60e360cdf05b706dc426f836bd411dc8a98d195b39e7",
        "leco-var":
            "65fa6b3747a5cc369242da5ee9bf3736e2a7c79bf275c9a01a8ca1a65357ba0b",
        "leco-auto":
            "65fa6b3747a5cc369242da5ee9bf3736e2a7c79bf275c9a01a8ca1a65357ba0b",
        "for":
            "943b2b26ebc11d29e8f1534bd81167783eaec837c9cb1445ee99381bc83b18ba",
        "for/fixed":
            "943b2b26ebc11d29e8f1534bd81167783eaec837c9cb1445ee99381bc83b18ba",
        "for/variable":
            "d4e61f969025d3eaa7e7d84483e4771c3cd6ee0475545264aa52e5cd0b03ca43",
        "for/auto":
            "d4e61f969025d3eaa7e7d84483e4771c3cd6ee0475545264aa52e5cd0b03ca43",
        "for/64":
            "ca2fecd4abd611e83ba7f71881c0bd5e01508c9404c0b90b05c6934fbb9a5b14",
        "delta":
            "e5ce4c31d585432ddcdf7b47b9fe1fc51b677f55b8249ad0b69aaeeec8ea9d0f",
        "delta/fixed":
            "e5ce4c31d585432ddcdf7b47b9fe1fc51b677f55b8249ad0b69aaeeec8ea9d0f",
        "delta/variable":
            "658e7f1d1a822a9c686e334fc4a9450e999aa332bcbf40873c826b83560025b0",
        "delta/auto":
            "658e7f1d1a822a9c686e334fc4a9450e999aa332bcbf40873c826b83560025b0",
        "delta/64":
            "ebf32f31e32609efdb6c01b0d096b165e50dc5aee13b5d5ae90cbd0822d6bd70",
        "delta-var":
            "658e7f1d1a822a9c686e334fc4a9450e999aa332bcbf40873c826b83560025b0",
        "dict":
            "6f9c41c660a9c716561727977f35c23a679972c0cfa89ae7471c103f4e1f829b",
        "plain":
            "f0db0934ca97655566034a79a475fb14bd7477d389041ebac2e1a9b201be71b4",
        "rle":
            "1c87a35432e75036792c2a799d4e6589324d054290bb404d711c518403850992",
        "rans":
            "a450858af67ac6b3fe5fa86b0b0e85b819d4b8e4b0274cf819e4ecbfc031cda0",
        "elias-fano":
            "65076428d21c121b86497f438c4929bbcc95a9075f06a4feb7e33af1dee6b5a6",
    },
    "scramble": {
        "leco":
            "ffeacc18d823238c3b9cd6dba0f2b68b974c84be44210779329a3448e1de7fec",
        "leco/fixed":
            "ffeacc18d823238c3b9cd6dba0f2b68b974c84be44210779329a3448e1de7fec",
        "leco/variable":
            "3f7cde3772efafbfaf9871796e303062cb2364d70abeab0f477f433a03df6e25",
        "leco/auto":
            "ffeacc18d823238c3b9cd6dba0f2b68b974c84be44210779329a3448e1de7fec",
        "leco/64":
            "8567582bc32badcfa049d02ab3bc6388e12d0be2927d410ca89bce4569870ab6",
        "leco/constant/64":
            "db5d5995eeba6f100399f1412dd93036cc6901ddcc483620f284ce685486bc21",
        "leco-fix":
            "ffeacc18d823238c3b9cd6dba0f2b68b974c84be44210779329a3448e1de7fec",
        "leco-var":
            "3f7cde3772efafbfaf9871796e303062cb2364d70abeab0f477f433a03df6e25",
        "leco-auto":
            "ffeacc18d823238c3b9cd6dba0f2b68b974c84be44210779329a3448e1de7fec",
        "for":
            "068917596e941a4593dcbe8695a3c1c8897f1c6797a43c8e2027e4a89e766ec1",
        "for/fixed":
            "068917596e941a4593dcbe8695a3c1c8897f1c6797a43c8e2027e4a89e766ec1",
        "for/variable":
            "f34a9863411b702431f029f644e82bfb0b2653ecc902077180fe444af15179a7",
        "for/auto":
            "068917596e941a4593dcbe8695a3c1c8897f1c6797a43c8e2027e4a89e766ec1",
        "for/64":
            "db5d5995eeba6f100399f1412dd93036cc6901ddcc483620f284ce685486bc21",
        "delta":
            "9f44c38127f5acfe23ff52925465d548dcb5018a1919b9556f51e4ca42bd971e",
        "delta/fixed":
            "9f44c38127f5acfe23ff52925465d548dcb5018a1919b9556f51e4ca42bd971e",
        "delta/variable":
            "d166a0d3d61f91e212c2323184ab78a7c26cc771ee64c3ce01031566c70641a7",
        "delta/auto":
            "9f44c38127f5acfe23ff52925465d548dcb5018a1919b9556f51e4ca42bd971e",
        "delta/64":
            "5ebf4295dedf1bd69a201bb6e403e26e89d9f03e4270f15a8f499fa34d13c809",
        "delta-var":
            "d166a0d3d61f91e212c2323184ab78a7c26cc771ee64c3ce01031566c70641a7",
        "dict":
            "ee9a872135fb875164d1ca1b6f82fd1e14bed18f05c0f68330582732a0b3738d",
        "plain":
            "9eb8ec93206f361a5bd592d16ecfd89a0f962ef1c67966511d278af111bb6ae1",
        "rle":
            "3a739eb1dd5e2aca20662ecbaebfded941b052bdfd991cf9985c9fa0165da755",
        "rans":
            "0973020bfa993a1cef1d13637e356709a3eae7471ba128b1e3bf5337a0b29b01",
        "elias-fano":
            "0bfb4160788b318192f6c71294a7977e0184159d75ae39580a5adc63e502aece",
    },
    "ragged": {
        "leco":
            "6bdd320740046c2f226af6e75b6951c3def2c11c3df14e154be55c84c6daf5e0",
        "leco/fixed":
            "6bdd320740046c2f226af6e75b6951c3def2c11c3df14e154be55c84c6daf5e0",
        "leco/variable":
            "72b20d65d7a4bf8fe5699d2172abfcd02a2886206f7c6425ca235fc51f4ceeb1",
        "leco/auto":
            "6bdd320740046c2f226af6e75b6951c3def2c11c3df14e154be55c84c6daf5e0",
        "leco/64":
            "4714577a2b7a2bc99035b060b4af2b3a11e1541e70d32cc093ffb46c7bfbbae5",
        "leco/constant/64":
            "37d739c56d11f8b6b10dbcb12144efc96f6c313b4f06705fad635e0507284520",
        "leco-fix":
            "6bdd320740046c2f226af6e75b6951c3def2c11c3df14e154be55c84c6daf5e0",
        "leco-var":
            "72b20d65d7a4bf8fe5699d2172abfcd02a2886206f7c6425ca235fc51f4ceeb1",
        "leco-auto":
            "6bdd320740046c2f226af6e75b6951c3def2c11c3df14e154be55c84c6daf5e0",
        "for":
            "37d739c56d11f8b6b10dbcb12144efc96f6c313b4f06705fad635e0507284520",
        "for/fixed":
            "37d739c56d11f8b6b10dbcb12144efc96f6c313b4f06705fad635e0507284520",
        "for/variable":
            "f32933b4167aad0c790ca82a5da7498d2e721b7fca506fe845e82124befa4e98",
        "for/auto":
            "37d739c56d11f8b6b10dbcb12144efc96f6c313b4f06705fad635e0507284520",
        "for/64":
            "37d739c56d11f8b6b10dbcb12144efc96f6c313b4f06705fad635e0507284520",
        "delta":
            "25e2d50650987f9bd6f49f746e7894c2dd73deccfa28fda88d1ce96aad1712e6",
        "delta/fixed":
            "25e2d50650987f9bd6f49f746e7894c2dd73deccfa28fda88d1ce96aad1712e6",
        "delta/variable":
            "811ff9fe8330f93ce2e9ece99ef10d2dcfb389c7711dadba4a908f11d03ead04",
        "delta/auto":
            "25e2d50650987f9bd6f49f746e7894c2dd73deccfa28fda88d1ce96aad1712e6",
        "delta/64":
            "594db32d61e9ad5e6dc1e3fef9016ddabf2659119c35a7398134c09afa409cbc",
        "delta-var":
            "811ff9fe8330f93ce2e9ece99ef10d2dcfb389c7711dadba4a908f11d03ead04",
        "dict":
            "33401d4685df4f43802fffdb30c4b4a2be837067f7ca31293be0e9ded2a8e754",
        "plain":
            "539e9212ac5cde1b31101cf29b334903171aa554daf2e76dc32282fb63dc2b01",
        "rle":
            "f2d510dae5286549291b03accab89369c0b645dc0b7037927b2e670386fe4a87",
        "rans":
            "d6f1eff4c7474ec755807bc1bac17b40386962572220e20ff306a0f14083debf",
        "elias-fano":
            "7e1b812281a78477aff2be33c0c2d6e5bb872a74bcbad4faa84ee71034ac056a",
    },
}


class TestGoldenBytes:
    def test_table_covers_every_integer_codec(self):
        assert {name for name, _ in GOLDEN_FORMS.values()} == set(INT_CODECS)
        for forms in GOLDEN_DIGESTS.values():
            assert set(forms) == set(GOLDEN_FORMS)

    @pytest.mark.parametrize("dataset", sorted(GOLDEN_INPUTS))
    def test_envelope_bytes_are_pinned(self, dataset):
        values = GOLDEN_INPUTS[dataset].astype(np.int64)
        for form, (name, kwargs) in GOLDEN_FORMS.items():
            data = np.sort(np.abs(values)) \
                if codecs.info(name).requires_sorted else values
            blob = codecs.get(name, **kwargs).encode(data).to_bytes()
            assert hashlib.sha256(blob).hexdigest() == \
                GOLDEN_DIGESTS[dataset][form], (dataset, form)


#: the codecs whose sequence is a ``CompressedArray`` (the columnar decode)
LECO_CODECS = [n for n in INT_CODECS
               if isinstance(codecs.get(n).encode(np.arange(4)),
                             CompressedArray)]
#: ``(codec, constructor keywords)``: every LeCo-family codec under each
#: plan, and ``leco`` under every regressor (``"auto"``'s mixed names too)
BATCH_FORMS = [(n, {"partitioner": plan}) for n in LECO_CODECS
               for plan in ("fixed", "variable", "auto", 8)] + [
    ("leco", {"regressor": reg, "partitioner": plan})
    for reg in available_regressors() + ["auto"]
    for plan in ("fixed", "variable", "auto", 8)]


def index_sets(n: int, rng) -> list[np.ndarray]:
    """Sorted-dense, sorted-sparse, unsorted and duplicate positions."""
    lo = int(rng.integers(0, n))
    return [np.arange(lo, n), np.arange(0, n, 2), np.arange(0, n, 37),
            np.array([0, n - 1]), rng.permutation(n),
            np.sort(rng.integers(0, n, n)), rng.integers(0, n, 7)]




def reference_decode(seq: CompressedArray) -> np.ndarray:
    """Every value of ``seq`` one position at a time, by the per-partition
    arithmetic the columnar decode replaced: find the position's
    partition, predict the whole partition from its stored parameter row
    alone (the encoder's shape), read the slot from a
    ``BitPackedArray`` over the partition's bytes, add the bias."""
    image = seq.payload_bytes()
    out = []
    for i in range(len(seq)):
        j = int(np.searchsorted(seq.starts, i, side="right")) - 1
        local, length = i - int(seq.starts[j]), int(seq.lengths[j])
        name = seq.regressor_names[seq.regressor_ids[j]]
        regressor = get_regressor(name)
        pred = floor_to_int64(regressor.predict_many(
            seq.params[j:j + 1, :regressor.param_count], length))[0, local]
        slots = BitPackedArray(image[seq.offsets[j] // 8:],
                               int(seq.widths[j]), length)
        value = int(pred) + slots[local] + int(seq.biases[j])
        out.append((value + (1 << 63)) % (1 << 64) - (1 << 63))
    return np.array(out, dtype=np.int64)


def assert_partition_invariant(seq: CompressedArray, n: int) -> None:
    """SNIPPETS 2-3's partition invariant: the first partition starts at
    0, starts strictly increase, lengths sum to ``n``, and every position
    lies in exactly one partition."""
    assert len(seq) == n and len(seq.starts) == len(seq.lengths)
    if n:
        assert seq.starts[0] == 0 and (np.diff(seq.starts) > 0).all()
    assert int(seq.lengths.sum()) == n
    covered = np.zeros(n, dtype=np.int64)
    for start, length in zip(seq.starts, seq.lengths):
        covered[start: start + length] += 1
    assert (covered == 1).all()


def check_batched_decode(seq, values, rng) -> None:
    """The columnar decode's contract, on the encoder's sequence and on
    the one revived from its bytes: the partition invariant holds, the
    per-position reference decoder returns the input, and every access
    path equals it."""
    n = len(values)
    for s in (seq, codecs.from_bytes(seq.to_bytes())):
        assert_partition_invariant(s, n)
        ref = reference_decode(s)
        assert np.array_equal(ref, values)
        assert np.array_equal(s.decode_all(), ref)
        assert np.array_equal(s.decode_all_serial(), ref)
        lo = int(rng.integers(0, n + 1))
        hi = int(rng.integers(lo, n + 1))
        assert np.array_equal(s.decode_range(lo, hi), ref[lo:hi])
        for idx in index_sets(n, rng):
            assert np.array_equal(s.gather(idx), ref[idx]), idx
        for i in rng.integers(0, n, 5).tolist():
            assert s[i] == ref[i]
        bounds = s.partition_value_bounds()
        for j, (start, length) in enumerate(zip(s.starts, s.lengths)):
            part = ref[start: start + length]
            assert bounds[j, 0] <= part.min() and part.max() <= bounds[j, 1]
        for a, b in rng.choice(ref, (3, 2)).tolist():
            assert np.array_equal(s.filter_range(a, b),
                                  (ref >= a) & (ref < b)), (a, b)
        if (ref[1:] >= ref[:-1]).all():
            near = [*rng.choice(ref, 3).tolist(), int(ref[0]), int(ref[-1])]
            for probe in {v + d for v in near for d in (-1, 0, 1)}:
                if INT64.min <= probe <= INT64.max:
                    assert s.search_sorted(probe) == \
                        np.searchsorted(ref, probe), probe
        assert s.model_size_bytes() == sum(
            8 * get_regressor(s.regressor_names[k]).param_count
            for k in s.regressor_ids)


class TestBatchedDecode:
    """Every access path of a ``CompressedArray`` is one decode over its
    per-partition arrays; :func:`check_batched_decode` holds it to the
    per-position reference decoder under every plan and regressor."""

    def test_short_last_partition(self):
        values = np.cumsum(np.arange(1237) % 7) * 5 - 9000
        seq = codecs.get("leco", partitioner=64).encode(values)
        assert seq.lengths[-1] < 64
        check_batched_decode(seq, values, np.random.default_rng(1))

    def test_single_partition_chunk(self):
        values = np.arange(50, dtype=np.int64) * 3
        seq = codecs.get("leco", partitioner=64).encode(values)
        assert len(seq.starts) == 1
        check_batched_decode(seq, values, np.random.default_rng(2))

    def test_wide_partitions(self):
        """Partitions spanning more than 2**63: uint64 slots, decoded by
        int64 wraparound."""
        values = np.random.default_rng(3).integers(
            -(1 << 63), (1 << 63) - 1, 640)
        seq = codecs.get("for", partitioner=64).encode(values)
        assert (seq.widths == 64).all()
        check_batched_decode(seq, values, np.random.default_rng(4))

    def test_for_chunk_of_many_frames(self):
        from repro.datasets import sensor_fixture

        values = sensor_fixture(4096, seed=3)["ts"][:2048]
        seq = codecs.get("for").encode(values)
        assert len(seq.starts) >= 12
        check_batched_decode(seq, values, np.random.default_rng(5))

    if HAVE_HYPOTHESIS:
        # n from 1 to 300: serial-correlated runs with 40-bit jumps
        # (optionally sorted, so search_sorted is checked), or 64-bit
        # hashes, whose partitions span more than 2**63
        oracle_values = st.one_of(
            st.tuples(st.lists(
                st.one_of(st.integers(-50, 50),
                          st.integers(-(1 << 40), 1 << 40)),
                min_size=1, max_size=300), st.booleans()).map(
                    lambda v: (np.sort if v[1] else np.asarray)(
                        np.cumsum(np.array(v[0], dtype=np.int64)))),
            st.lists(st.integers(-(1 << 63), (1 << 63) - 1),
                     min_size=1, max_size=300).map(
                         lambda v: np.array(v, dtype=np.int64)))

        @pytest.mark.parametrize(
            "name,kwargs", BATCH_FORMS,
            ids=[f"{n}-{'-'.join(map(str, kw.values()))}"
                 for n, kw in BATCH_FORMS])
        @given(values=oracle_values, seed=st.integers(0, 2 ** 32 - 1))
        @settings(max_examples=5, deadline=None)
        def test_batched_equals_walk(self, name, kwargs, values, seed):
            seq = codecs.get(name, **kwargs).encode(values)
            check_batched_decode(seq, values, np.random.default_rng(seed))

        @pytest.mark.parametrize("regressor", ["linear", "constant", "auto"])
        @given(values=oracle_values, data=st.data())
        @settings(max_examples=15, deadline=None)
        def test_fixed_sizes_that_do_and_do_not_divide_n(self, regressor,
                                                         values, data):
            n = len(values)
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            size = data.draw(st.one_of(st.sampled_from(divisors),
                                       st.integers(1, n + 3)))
            seq = codecs.get("leco", regressor=regressor,
                             partitioner=size).encode(values)
            check_batched_decode(seq, values, np.random.default_rng(size))


def concatenated_reads(pairs) -> np.ndarray:
    """What ``gather_many(pairs)`` must equal: each sequence's own read."""
    return np.concatenate([np.empty(0, dtype=np.int64)] + [
        np.asarray(seq.decode_all() if positions is None
                   else seq.gather(positions), dtype=np.int64)
        for seq, positions in pairs])


def chunked(name: str, values: np.ndarray, sizes, **kwargs) -> list:
    """``values`` cut into consecutive chunks of ``sizes`` rows, each
    encoded alone, as a store column's chunks are."""
    cuts = np.cumsum(sizes)[:-1]
    return [(codecs.get(name, **kwargs).encode(chunk), chunk)
            for chunk in np.split(values, cuts)]


class TestGatherMany:
    """``gather_many([(sequence, positions | None), ...])`` — the
    executor's one read per column of a batch — equals the sequences'
    own ``gather`` / ``decode_all`` results end to end, for every integer
    codec, with empty and whole-chunk reads, across codecs, and (LeCo's
    override, which joins the directories) across regressors, partition
    plans and correction lists."""

    @staticmethod
    def reads(chunks, rng) -> list:
        pairs = []
        for seq, values in chunks:
            kind = rng.integers(0, 4)
            n = len(values)
            positions = (None if kind == 0 else
                         np.empty(0, dtype=np.int64) if kind == 1 else
                         np.flatnonzero(rng.random(n) < 0.6) if kind == 2
                         else rng.integers(-n, n, 9))
            pairs.append((seq, positions))
        return pairs

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_matches_per_sequence_reads(self, name):
        values = make_int_data(name, n=900)
        chunks = chunked(name, values, [300, 1, 257, 342])
        rng = np.random.default_rng(11)
        for _ in range(8):
            pairs = self.reads(chunks, rng)
            assert np.array_equal(gather_many(pairs),
                                  concatenated_reads(pairs))
        whole = [(seq, None) for seq, _ in chunks]
        assert np.array_equal(gather_many(whole), values)
        assert gather_many([]).size == 0
        assert gather_many([(seq, np.empty(0, dtype=np.int64))
                            for seq, _ in chunks]).size == 0

    def test_mixed_codecs(self):
        values = make_int_data("leco", n=800)
        chunks = [pair for i, name in enumerate(
            ["leco", "delta", "leco-var", "for", "plain", "dict"])
            for pair in chunked(name, values[i * 100:(i + 1) * 100],
                                [60, 40])]
        rng = np.random.default_rng(12)
        for _ in range(8):
            pairs = self.reads(chunks, rng)
            assert np.array_equal(gather_many(pairs),
                                  concatenated_reads(pairs))

    def test_out_of_range_positions_raise(self):
        chunks = chunked("leco", np.arange(200) * 3, [100, 100])
        with pytest.raises(IndexError):
            gather_many([(chunks[0][0], np.array([0])),
                          (chunks[1][0], np.array([100]))])
        # a negative position wraps once, in its own sequence
        got = gather_many([(chunks[0][0], np.array([-1])),
                           (chunks[1][0], np.array([-100]))])
        assert got.tolist() == [297, 300]

    def test_leco_directories_join(self):
        """Mixed regressors, variable partitions, fixed sizes that do and
        do not divide a chunk, and serial partitions whose correction
        lists must follow their positions."""
        from repro.datasets import sensor_fixture

        reading = sensor_fixture(6000, seed=3)["reading"]
        forms = [{"partitioner": 1024}, {"partitioner": "variable"},
                 {"regressor": "auto", "partitioner": 64},
                 {"partitioner": 700}, {"regressor": "constant",
                                        "partitioner": 8}]
        chunks = [pair for i, kwargs in enumerate(forms)
                  for pair in chunked("leco", reading[i * 1200:
                                                      (i + 1) * 1200],
                                      [1024, 176], **kwargs)]
        seqs = [seq for seq, _ in chunks]
        assert any(len(seq.corrections) for seq in seqs)
        assert any(len(seq.regressor_names) > 1 for seq in seqs)
        assert any(seq.fixed_size is None for seq in seqs)
        rng = np.random.default_rng(13)
        for _ in range(10):
            pairs = self.reads(chunks, rng)
            assert np.array_equal(gather_many(pairs),
                                  concatenated_reads(pairs))
        # alike fixed sizes over whole partitions share one directory
        same = chunked("leco", reading[:4096], [1024] * 4, partitioner=256)
        pairs = [(seq, np.arange(0, 1024, 3)) for seq, _ in same]
        assert np.array_equal(gather_many(pairs), concatenated_reads(pairs))

    if HAVE_HYPOTHESIS:
        @given(data=st.data())
        @settings(max_examples=25, deadline=None)
        def test_any_leco_batch(self, data):
            values = np.cumsum(np.array(data.draw(st.lists(
                st.one_of(st.integers(-50, 50),
                          st.integers(-(1 << 40), 1 << 40)),
                min_size=2, max_size=400)), dtype=np.int64))
            cuts = sorted(set(data.draw(st.lists(
                st.integers(1, len(values) - 1), max_size=5))))
            chunks = []
            for chunk in np.split(values, cuts):
                kwargs = data.draw(st.sampled_from([
                    {"partitioner": "variable"}, {"partitioner": 16},
                    {"partitioner": 5}, {"regressor": "auto",
                                         "partitioner": 8},
                    {"regressor": "constant", "partitioner": "fixed"}]))
                chunks.append((codecs.get("leco", **kwargs).encode(chunk),
                               chunk))
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
            pairs = self.reads(chunks, rng)
            assert np.array_equal(gather_many(pairs),
                                  concatenated_reads(pairs))


if HAVE_HYPOTHESIS:
    int_arrays = st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1,
                          max_size=200).map(
                              lambda v: np.array(v, dtype=np.int64))

    class TestPropertyRoundtrip:
        @pytest.mark.parametrize("name", INT_CODECS)
        @given(values=int_arrays)
        @settings(max_examples=10, deadline=None)
        def test_roundtrip_and_gather(self, name, values):
            if codecs.info(name).requires_sorted:
                values = np.sort(np.abs(values))
            seq = encode(name, values)
            revived = codecs.from_bytes(seq.to_bytes())
            assert np.array_equal(revived.decode_all(), values)
            idx = np.arange(len(values))[::3]
            assert np.array_equal(
                np.asarray(seq.gather(idx), dtype=np.int64), values[idx])

    # 2-200 values mixing small steps with 40-bit jumps: partitions of one
    # or two rows, residual widths from 0 to 41 bits, both signs
    jumpy_arrays = st.lists(
        st.one_of(st.integers(-50, 50),
                  st.integers(1 << 39, 1 << 40),
                  st.integers(-(1 << 40), -(1 << 39))),
        min_size=2, max_size=200).map(lambda v: np.array(v, dtype=np.int64))

    def check_random_band(seq, values, data):
        check_filter_and_bounds(seq, values)
        edge = st.integers(int(values.min()) - 2, int(values.max()) + 2)
        lo, hi = data.draw(edge), data.draw(edge)
        assert np.array_equal(seq.filter_range(lo, hi),
                              (values >= lo) & (values < hi)), (lo, hi)

    class TestPropertyFilterRange:
        @pytest.mark.parametrize("name", INT_CODECS)
        @given(values=jumpy_arrays, data=st.data())
        @settings(max_examples=10, deadline=None)
        def test_filter_range_matches_decode(self, name, values, data):
            if codecs.info(name).requires_sorted:
                values = np.sort(values)
            check_random_band(encode(name, values), values, data)

        @pytest.mark.parametrize("regressor", available_regressors())
        @given(values=jumpy_arrays, data=st.data(),
               plan=st.sampled_from([4, "fixed", "variable"]))
        @settings(max_examples=10, deadline=None)
        def test_every_regressor_on_leco(self, regressor, values, data,
                                         plan):
            seq = codecs.get("leco", regressor=regressor,
                             partitioner=plan).encode(values)
            check_random_band(seq, values, data)
