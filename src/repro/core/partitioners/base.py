"""Partitioner interface (paper §3.2)."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.regressors.base import Regressor

Bounds = list[tuple[int, int]]


class Partitioner(ABC):
    """Splits a value sequence into contiguous partitions for regression."""

    name: str = "abstract"
    #: whether the produced partitions have uniform length (fast random access)
    fixed_length: bool = False

    @abstractmethod
    def partition(self, values: np.ndarray, regressor: Regressor) -> Bounds:
        """Return contiguous, complete ``[(start, end), ...]`` bounds."""

    def choose(self, values: np.ndarray) -> "Partitioner":
        """The concrete partitioner that plans ``values`` (normally self)."""
        return self
