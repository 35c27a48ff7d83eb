"""Ingest fixtures for the persistent store (tests, CLI, benchmarks).

Two sources behind one name-based entry point:

* ``"sensors"`` — a synthetic telemetry stream shaped like the store's
  target workload: a sorted serial-correlated timestamp (the predicate
  column zone maps love), a low-cardinality device id, a noisy reading,
  and a tiny status enum;
* any table name from :func:`repro.datasets.load_table` (``lineitem``,
  ``orders``, ...) — the paper's multi-column extracts.

Every fixture returns a plain ``dict[str, np.ndarray]`` of equal-length
int64 columns, ready for :class:`repro.store.TableWriter.append`.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.tabular import TABLE_NAMES, load_table


def sensor_fixture(n: int = 100_000, n_sensors: int = 64,
                   seed: int = 0) -> dict[str, np.ndarray]:
    """Sorted-timestamp telemetry: (ts, sensor_id, reading, status)."""
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(1, 20, n)).astype(np.int64)
    sensor_id = rng.integers(0, n_sensors, n).astype(np.int64)
    drift = np.cumsum(rng.normal(0, 3, n))
    reading = (1000 + drift + rng.normal(0, 40, n)).astype(np.int64)
    status = rng.choice(np.array([0, 0, 0, 0, 1, 2], dtype=np.int64), n)
    return {"ts": ts, "sensor_id": sensor_id, "reading": reading,
            "status": status}


def ingest_fixture(name: str = "sensors", n: int | None = None,
                   seed: int = 0) -> dict[str, np.ndarray]:
    """Columns for the named fixture (``sensors`` or a datasets table)."""
    if name == "sensors":
        return sensor_fixture(n or 100_000, seed=seed)
    if name in TABLE_NAMES:
        return dict(load_table(name, n=n, seed=seed).columns)
    raise KeyError(
        f"unknown fixture {name!r}; known: sensors, {', '.join(TABLE_NAMES)}")
