"""Built-in codec and wire-format registrations.

Importing :mod:`repro.codecs` loads this module, which registers every
scheme the paper evaluates — leco (fix/var/auto), delta, for, dict, rle,
plain, fsst, rans, elias-fano — plus the LeCo string extension.  Factories
import their implementation modules lazily so the registry itself stays
cheap to import and free of circular dependencies.
"""

from __future__ import annotations

import importlib

from repro.codecs.registry import register, register_wire
from repro.codecs.spec import CodecSpec


def _partitioned(module: str, cls_name: str, spec_fields=(), **preset):
    """Factory for a partitioned codec: one constructor, three sources.

    ``spec=`` (a :class:`CodecSpec`) supplies the plan plus ``spec_fields``,
    explicit keywords override it, and what the registered name itself
    implies (``leco-var``'s plan, ``for``'s constant regressor) wins over
    both.
    """
    def factory(spec: CodecSpec | None = None, **kwargs):
        cls = getattr(importlib.import_module(module), cls_name)
        if spec is not None:
            kwargs = {**{f: getattr(spec, f) for f in spec_fields},
                      **spec.plan(), **kwargs}
        return cls(**{**kwargs, **preset})
    return factory


def _leco(**preset):
    return _partitioned("repro.core.encoding", "LecoEncoder",
                        ("regressor", "selector"), **preset)


def _delta(**preset):
    return _partitioned("repro.baselines.delta", "DeltaCodec", **preset)


_LECO_CAPS = dict(supports_model_bounds=True, partitioned=True,
                  wire_id="leco")
_DELTA_CAPS = dict(sequential_access=True, partitioned=True, wire_id="delta")

register("leco", summary="learned compression, fixed partitions (§3)",
         **_LECO_CAPS)(_leco())
register("leco-fix", summary="LeCo with sampled fixed-length partitions",
         **_LECO_CAPS)(_leco(partitioner="fixed"))
register("leco-var", summary="LeCo with split-merge variable partitions",
         **_LECO_CAPS)(_leco(partitioner="variable"))
register("leco-auto", summary="LeCo with hardness-advised partitioning",
         **_LECO_CAPS)(_leco(partitioner="auto"))
register("for", summary="frame-of-reference (constant-model LeCo, §2)",
         **_LECO_CAPS)(_leco(regressor="constant", name="for"))
register("delta", summary="delta encoding, fixed partitions (§2)",
         **_DELTA_CAPS)(_delta())
register("delta-var", summary="delta with split-merge partitions (§3.2.2)",
         **_DELTA_CAPS)(_delta(partitioner="variable"))


@register("dict", summary="sorted dictionary + bit-packed codes (§5.1)",
          wire_id="dict")
def _dict(**kwargs):
    from repro.codecs.simple import DictCodec

    return DictCodec(**kwargs)


@register("plain", summary="uncompressed natural-width column",
          wire_id="plain")
def _plain(**kwargs):
    from repro.codecs.simple import PlainCodec

    return PlainCodec(**kwargs)


@register("rle", summary="run-length encoding (§2)", wire_id="rle")
def _rle(**kwargs):
    from repro.baselines.rle import RLECodec

    return RLECodec(**kwargs)


@register("rans", summary="static byte-wise rANS entropy coder (§4.1)",
          sequential_access=True, wire_id="rans")
def _rans(**kwargs):
    from repro.baselines.rans import RansCodec

    return RansCodec(**kwargs)


@register("elias-fano", summary="quasi-succinct monotone sequences (§4.1)",
          requires_sorted=True, wire_id="elias-fano")
def _elias_fano(**kwargs):
    from repro.baselines.elias_fano import EliasFanoCodec

    return EliasFanoCodec(**kwargs)


@register("fsst", summary="FSST string compression (§4.7)",
          supports_integers=False, supports_strings=True, wire_id="fsst")
def _fsst(**kwargs):
    from repro.baselines.fsst import FSSTCodec

    return FSSTCodec(**kwargs)


@register("leco-str", summary="LeCo string extension (§3.4)",
          supports_integers=False, supports_strings=True,
          wire_id="leco-str")
def _leco_str(**kwargs):
    from repro.core.strings import StringCompressor

    return StringCompressor(**kwargs)


# ------------------------------------------------------------ wire formats
def _wire(module: str, cls_name: str):
    revive = None  # the class's from_payload, resolved on first use

    def decode(payload: bytes):
        nonlocal revive
        if revive is None:
            revive = getattr(importlib.import_module(module),
                             cls_name).from_payload
        return revive(payload)
    return decode


register_wire("leco", _wire("repro.core.encoding", "CompressedArray"))
register_wire("delta", _wire("repro.baselines.delta",
                             "DeltaEncodedSequence"))
register_wire("rle", _wire("repro.baselines.rle", "RLEEncodedSequence"))
register_wire("rans", _wire("repro.baselines.rans", "RansEncodedSequence"))
register_wire("elias-fano", _wire("repro.baselines.elias_fano",
                                  "EliasFanoSequence"))
register_wire("plain", _wire("repro.codecs.simple", "PlainSequence"))
register_wire("dict", _wire("repro.codecs.simple", "DictEncodedSequence"))
register_wire("fsst", _wire("repro.baselines.fsst",
                            "FSSTCompressedStrings"))
register_wire("leco-str", _wire("repro.core.strings", "CompressedStrings"))
