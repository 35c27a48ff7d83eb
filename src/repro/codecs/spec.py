"""Structured compression configuration replacing loose string/kwarg soup.

A :class:`CodecSpec` names a codec plus its tuning knobs in one hashable
value, so call sites pass a single object instead of threading ``mode`` /
``regressor`` / ``tau`` keywords through every layer.  The spec also owns
the Regressor-Selector used by ``regressor="auto"``: it is *injectable*
(tests and services supply their own) and the shared default is built
lazily behind a lock, so concurrent first calls never race on construction
— previously a module-global singleton in ``core/api.py``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

#: the ``partitioner=`` plan each :attr:`CodecSpec.mode` names
_PLANS = {"fix": "fixed", "var": "variable", "auto": "auto"}

_default_selector_lock = threading.Lock()
_default_selector: Any = None


def default_selector():
    """The shared, lazily-built Regressor Selector (thread-safe)."""
    global _default_selector
    if _default_selector is None:
        with _default_selector_lock:
            if _default_selector is None:
                from repro.core.advisor import RegressorSelector

                _default_selector = RegressorSelector()
    return _default_selector


@dataclass(frozen=True)
class CodecSpec:
    """Declarative description of one compression configuration.

    Parameters
    ----------
    codec:
        Registry name (``"leco"``, ``"delta"``, ...).
    mode:
        Partitioning strategy for partitioned codecs (LeCo family,
        ``for``, ``delta``): ``"fix"`` (sampled fixed-length), ``"var"``
        (split-merge), or ``"auto"`` (hardness-advised, paper §3.2.3).
    regressor:
        Registered regressor name, or ``"auto"`` for the per-partition
        Regressor Selector (§3.1).
    tau:
        Split aggressiveness for variable partitioning.
    max_partition_size:
        Upper bound for the fixed-length partition search.
    selector:
        Optional Regressor-Selector instance used when
        ``regressor="auto"``; ``None`` means the shared lazy default.
    """

    codec: str = "leco"
    mode: str = "fix"
    regressor: str = "linear"
    tau: float = 0.05
    max_partition_size: int = 10_000
    selector: Any = None

    def __post_init__(self):
        if self.mode not in _PLANS:
            raise ValueError(
                f"mode must be one of {tuple(_PLANS)}, got {self.mode!r}")

    def plan(self) -> dict:
        """The partition-plan keywords every partitioned codec takes."""
        return {"partitioner": _PLANS[self.mode], "tau": self.tau,
                "max_partition_size": self.max_partition_size}
