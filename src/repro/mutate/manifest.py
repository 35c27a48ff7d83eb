"""Generation-chain commits of the mutation layer.

A table's catalog is a chain of immutable manifests —
``_table.<gen>.json`` — plus one ``CURRENT`` pointer file
(:mod:`repro.store.format`).  A commit

1. stages everything the new generation needs (shards via
   :class:`~repro.store.TableWriter`, deletion-vector sidecars here),
2. writes the new generation's manifest (atomic rename),
3. swaps ``CURRENT`` (atomic rename) — **this is the commit point**,
4. rotates the WAL to the new generation and reaps the old one.

A reader (:class:`repro.store.Table`) resolves ``CURRENT`` exactly once
at open, so it either sees the old chain tip or the new one, never a
mix; every file a published manifest references is never rewritten in
place, which is what makes time-travel opens of older generations free.
A crash between any two steps is recoverable: before step 3 the old
generation plus its WAL replay the full state (the orphaned staging
files are cleaned at next open), after step 3 the new generation is
simply current.
"""

from __future__ import annotations

import os
import re

import numpy as np

from repro.store import format as store_format
from repro.store.format import (
    Manifest,
    dv_file_name,
    manifest_generation,
    pack_deletion_vector,
    read_manifest,
    write_current,
    write_manifest,
)
from repro.mutate.wal import wal_file_name
from repro.obs import metrics as obs_metrics

_M_GENERATIONS = obs_metrics.counter(
    "repro_mutate_generations_total",
    "manifest generations committed (flushes + compactions)")

_WAL_RE = re.compile(r"wal-(\d{6})\.log$")
_WAL_SIDE_RE = re.compile(r"wal-(\d{6})\.log(\.corrupt)?$")
_DV_RE = re.compile(r".*\.(\d{6})\.dv$")


def base_shard_entries(base_table, pending_deleted: np.ndarray,
                       generation: int, directory: str) -> list[dict]:
    """Fold pending deletions into the base snapshot's shard entries.

    Per shard: no deletions → the entry (and any existing sidecar and
    its ``live_rows``) carries over untouched; new deletions → a fresh
    sidecar is written for ``generation`` and the entry counts its
    ``live_rows``; every row deleted → the shard leaves the chain
    entirely (its file stays on disk for older generations).
    ``row_start`` fields are left stale — :func:`commit` renumbers.
    """
    entries: list[dict] = []
    for shard, entry in zip(base_table.shards, base_table.manifest.shards):
        n = entry["n_rows"]
        pending = pending_deleted[shard.row_start: shard.row_start + n]
        base_del = shard.deleted if shard.deleted is not None \
            else np.zeros(n, dtype=bool)
        combined = base_del | pending
        if not pending.any():
            entries.append(dict(entry))
            continue
        if combined.all():
            continue  # fully dead: fold the shard away right now
        dv_name = dv_file_name(entry["file"], generation)
        store_format.write_atomic(os.path.join(directory, dv_name),
                                   pack_deletion_vector(combined),
                                   point="dv")
        new_entry = dict(entry)
        new_entry["dv"] = dv_name
        new_entry["live_rows"] = n - int(combined.sum())
        entries.append(new_entry)
    return entries


def finalize_entries(entries: list[dict]) -> list[dict]:
    """Renumber ``row_start`` cumulatively.  ``live_rows`` is already
    right: a carried-over sidecar keeps its count and a new one arrives
    counted (:func:`base_shard_entries`), so no sidecar is re-read; an
    entry without a sidecar drops the field."""
    row_start = 0
    out = []
    for entry in entries:
        entry = dict(entry)
        entry["row_start"] = row_start
        row_start += entry["n_rows"]
        if not entry.get("dv"):
            entry.pop("live_rows", None)
        out.append(entry)
    return out


def commit(directory: str, base: Manifest, entries: list[dict],
           generation: int) -> Manifest:
    """Publish ``entries`` as generation ``generation`` (steps 2-4)."""
    entries = finalize_entries(entries)
    manifest = Manifest(
        columns=base.columns,
        n_rows=sum(e["n_rows"] for e in entries),
        shard_rows=base.shard_rows,
        chunk_rows=base.chunk_rows,
        codecs=dict(base.codecs),
        shards=tuple(entries),
        generation=generation,
    )
    write_manifest(directory, manifest, generation=generation)
    write_current(directory, generation)
    rotate_wal(directory, generation)
    _M_GENERATIONS.inc()
    return manifest


def rotate_wal(directory: str, generation: int) -> str:
    """Create the new generation's (empty) WAL and reap older ones.

    Forensics sidecars (``wal-*.log.corrupt``, preserved by recovery)
    of superseded generations are reaped with their logs: the commit
    that rotates past them proves their records were either replayed
    into the new generation or never acknowledged.
    """
    from repro.mutate.wal import WAL_MAGIC, WAL_VERSION

    name = wal_file_name(generation)
    store_format.write_atomic(os.path.join(directory, name),
                               WAL_MAGIC + bytes([WAL_VERSION]),
                               point="wal.rotate")
    for stale in os.listdir(directory):
        match = _WAL_SIDE_RE.fullmatch(stale)
        if match and int(match.group(1)) != generation:
            os.remove(os.path.join(directory, stale))
    return name


def adopt(directory: str) -> int:
    """The generation ``CURRENT`` names — after publishing the chain
    files of a directory written before the chain existed, which reads
    as generation 0 (its shard files are referenced as-is)."""
    current = store_format.read_current(directory)
    if current is not None:
        return current
    write_manifest(directory, read_manifest(directory), generation=0)
    write_current(directory, 0)
    return 0


def clean_orphans(directory: str, current: int) -> None:
    """Remove staging leftovers of a commit that never reached the
    ``CURRENT`` swap: manifests and sidecars of generations newer than
    the pointer, and temp files of any interrupted atomic write (staged
    shards, manifest/CURRENT/DV ``.tmp`` images).  (Orphaned shard
    files are left for the next commit's namer to step over — they are
    unreferenced data, never wrong data.)"""
    for name in os.listdir(directory):
        gen = manifest_generation(name)
        if gen is None:
            match = _DV_RE.fullmatch(name)
            if match:
                gen = int(match.group(1))
        if (gen is not None and gen > current) or name.endswith(".tmp"):
            os.remove(os.path.join(directory, name))
