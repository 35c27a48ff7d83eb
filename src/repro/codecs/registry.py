"""The codec registry: one lookup table for every compression scheme.

Each entry maps a public name (``"leco"``, ``"delta"``, ``"fsst"``, ...) to
a factory plus capability flags, so consumers — the table store, the KV
store, the benchmark harness, the conformance suite — discover and
construct codecs uniformly instead of hard-coding per-scheme imports:

* :func:`register` — decorator adding a factory under a name;
* :func:`get` — construct a codec (``get("leco", partitioner="variable")``);
* :func:`available` — all registered names;
* :func:`info` — the :class:`CodecInfo` capability record;
* :func:`from_bytes` — revive any sequence from its envelope image.

Wire formats are registered separately (:func:`register_wire`): several
codec names may share one payload layout (``for`` writes LeCo partitions),
and the envelope's codec id names the *format*, not the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.codecs import envelope


@dataclass(frozen=True)
class CodecInfo:
    """Capability record for one registered codec name."""

    name: str
    factory: Callable[..., Any]
    summary: str = ""
    #: random access requires sequential (prefix) decoding
    sequential_access: bool = False
    #: encodes integer numpy arrays
    supports_integers: bool = True
    #: encodes lists of bytes/str
    supports_strings: bool = False
    #: ``model_bounds()`` returns conservative value bounds without
    #: decoding (LeCo family: model band + residual width).  The store
    #: writer and the exec planner both read this flag — codecs without
    #: it get computed zone maps from the writer and no model-derived
    #: pruning bounds from in-memory sources.
    supports_model_bounds: bool = False
    #: encodes in partitions planned by a ``partitioner=`` keyword, and
    #: takes ``spec=`` (a :class:`CodecSpec`) in its place — what the store
    #: writer reads to pin its plan on a bare codec name
    partitioned: bool = False
    #: input must be non-decreasing (e.g. Elias-Fano)
    requires_sorted: bool = False
    #: envelope codec id its sequences serialise under
    wire_id: str | None = None


_CODECS: dict[str, CodecInfo] = {}
_WIRE_DECODERS: dict[str, Callable[[bytes], Any]] = {}


def register(name: str, **caps) -> Callable:
    """Decorator registering ``factory`` under ``name`` with capabilities.

    The factory is any callable returning a codec object with ``encode``;
    keyword arguments given to :func:`get` pass through to it.
    """
    def deco(factory: Callable) -> Callable:
        if name in _CODECS:
            raise ValueError(f"codec {name!r} is already registered")
        _CODECS[name] = CodecInfo(name=name, factory=factory, **caps)
        return factory
    return deco


def register_wire(wire_id: str,
                  decoder: Callable[[bytes], Any]) -> None:
    """Register the payload decoder for one envelope codec id."""
    if wire_id in _WIRE_DECODERS:
        raise ValueError(f"wire format {wire_id!r} is already registered")
    _WIRE_DECODERS[wire_id] = decoder


def available() -> list[str]:
    """Sorted names of every registered codec."""
    return sorted(_CODECS)


def info(name: str) -> CodecInfo:
    """Capability record for ``name``; :class:`ValueError` when unknown."""
    try:
        return _CODECS[name]
    except KeyError:
        raise ValueError(
            f"unknown codec {name!r}; available: {', '.join(available())}"
        ) from None


def get(name: str, **kwargs):
    """Construct the codec registered under ``name``."""
    return info(name).factory(**kwargs)


def from_bytes(blob: bytes):
    """Revive an encoded sequence from any registered codec's envelope.

    The inverse of every sequence's ``to_bytes``: the envelope names the
    wire format, the registry supplies the payload decoder.
    """
    codec_id, _version, payload = envelope.unpack(blob)
    decoder = _WIRE_DECODERS.get(codec_id)
    if decoder is None:
        raise ValueError(
            f"no decoder registered for codec id {codec_id!r}; known: "
            f"{', '.join(sorted(_WIRE_DECODERS))}")
    return decoder(payload)
