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

#: the LecoEncoder partitioner spec each CodecSpec mode names
_MODE_PARTITIONER = {"fix": "fixed", "var": "variable", "auto": "auto"}


def _make_leco(mode: str | None, spec: CodecSpec | None = None, *,
               regressor: str = "linear", tau: float = 0.05,
               max_partition_size: int = 10_000, partitioner=None,
               selector=None):
    """LeCo factory: a CodecSpec, a raw partitioner spec, or knobs.

    ``mode`` is the name-implied mode (``leco-var`` etc.); when both a
    name-implied mode and a spec are given, the more specific name wins.
    ``None`` (the generic ``leco`` entry) defers to the spec.
    """
    from repro.baselines.leco import LecoCodec

    if partitioner is not None:
        return LecoCodec(regressor, partitioner=partitioner, tau=tau,
                         max_partition_size=max_partition_size)
    if spec is None:
        spec = CodecSpec(codec="leco", mode=mode or "fix",
                         regressor=regressor, tau=tau,
                         max_partition_size=max_partition_size,
                         selector=selector)
    mode = mode or spec.mode
    return LecoCodec(spec.regressor,
                     partitioner=_MODE_PARTITIONER[mode], tau=spec.tau,
                     max_partition_size=spec.max_partition_size,
                     name=f"leco-{mode}", selector=spec.selector)


@register("leco", summary="learned compression, fixed partitions (§3)",
          supports_range_pruning=True, supports_model_bounds=True,
          wire_id="leco")
def _leco(spec=None, *, mode=None, **kwargs):
    return _make_leco(mode, spec, **kwargs)


@register("leco-fix", summary="LeCo with sampled fixed-length partitions",
          supports_range_pruning=True, supports_model_bounds=True,
          wire_id="leco")
def _leco_fix(spec=None, **kwargs):
    return _make_leco("fix", spec, **kwargs)


@register("leco-var", summary="LeCo with split-merge variable partitions",
          supports_range_pruning=True, supports_model_bounds=True,
          wire_id="leco")
def _leco_var(spec=None, **kwargs):
    return _make_leco("var", spec, **kwargs)


@register("leco-auto", summary="LeCo with hardness-advised partitioning",
          supports_range_pruning=True, supports_model_bounds=True,
          wire_id="leco")
def _leco_auto(spec=None, **kwargs):
    return _make_leco("auto", spec, **kwargs)


@register("for", summary="frame-of-reference (constant-model LeCo, §2)",
          supports_range_pruning=True, supports_model_bounds=True,
          wire_id="leco")
def _for(**kwargs):
    from repro.baselines.leco import FORCodec

    return FORCodec(**kwargs)


@register("delta", summary="delta encoding, fixed partitions (§2)",
          sequential_access=True, wire_id="delta")
def _delta(**kwargs):
    from repro.baselines.delta import DeltaCodec

    return DeltaCodec(kwargs.pop("variant", "fix"), **kwargs)


@register("delta-var", summary="delta with split-merge partitions (§3.2.2)",
          sequential_access=True, wire_id="delta")
def _delta_var(**kwargs):
    from repro.baselines.delta import DeltaCodec

    return DeltaCodec("var", **kwargs)


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
    def decode(payload: bytes):
        cls = getattr(importlib.import_module(module), cls_name)
        return cls.from_payload(payload)
    return decode


register_wire("leco", _wire("repro.baselines.leco", "LecoEncodedSequence"))
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
