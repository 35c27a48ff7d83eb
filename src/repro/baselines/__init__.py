"""Baseline compression schemes evaluated against LeCo (paper §4.1).

FOR is not here: it is LeCo with the constant regressor
(``codecs.get("for")``), as the paper describes it (§2).
"""

from repro.baselines.base import Codec, EncodedSequence, as_int64
from repro.baselines.delta import DeltaCodec, DeltaCostAdapter
from repro.baselines.elias_fano import EliasFanoCodec, EliasFanoSequence
from repro.baselines.fsst import FSSTCodec, build_symbol_table
from repro.baselines.rans import RansCodec, infer_value_width
from repro.baselines.rle import RLECodec

__all__ = [
    "Codec",
    "EncodedSequence",
    "as_int64",
    "DeltaCodec",
    "DeltaCostAdapter",
    "EliasFanoCodec",
    "EliasFanoSequence",
    "FSSTCodec",
    "build_symbol_table",
    "RansCodec",
    "infer_value_width",
    "RLECodec",
]
