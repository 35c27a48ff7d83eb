"""Fig. 19's clustered selection bitmaps.

The filter / group-by / bitmap-sum operators themselves live in
:mod:`repro.exec` (``exec/run.py``); :mod:`repro.engine.queries` builds
their plans.
"""

from __future__ import annotations

import numpy as np


def zipf_cluster_bitmap(n: int, selectivity: float, clusters: int = 10,
                        seed: int = 0) -> np.ndarray:
    """Fig. 19's bitmaps: ``clusters`` set-bit runs with Zipf-like sizes."""
    rng = np.random.default_rng(seed)
    target = max(int(n * selectivity), 1)
    weights = 1.0 / np.arange(1, clusters + 1)
    weights /= weights.sum()
    sizes = np.maximum((weights * target).astype(np.int64), 1)
    bitmap = np.zeros(n, dtype=bool)
    starts = np.sort(rng.integers(0, max(n - int(sizes.max()) - 1, 1),
                                  clusters))
    for start, size in zip(starts, sizes):
        bitmap[start: start + int(size)] = True
    return bitmap
