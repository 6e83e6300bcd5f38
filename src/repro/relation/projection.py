"""The projection index (O'Neil & Quass; paper Section 9.1 footnote).

A projection index on attribute ``A`` is simply the projection of ``A``
with duplicates preserved, stored in RID order.  The paper notes that an
Index-level-Storage bitmap index whose components all have base 2 *is* a
projection index (each row stores the binary representation of its
value); :meth:`ProjectionIndex.matches_is_layout` verifies that identity
and the test suite asserts it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.evaluation import COMPARE
from repro.errors import ValueOutOfRangeError


class ProjectionIndex:
    """RID-ordered copy of one column, with byte-accurate sizing."""

    def __init__(self, values: np.ndarray, cardinality: int | None = None):
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueOutOfRangeError("values must be a 1-D array")
        self.values = values.copy()
        if cardinality is None:
            cardinality = int(values.max()) + 1 if len(values) else 1
        self.cardinality = max(int(cardinality), 1)

    @property
    def num_rows(self) -> int:
        return len(self.values)

    @property
    def bits_per_value(self) -> int:
        """Bits to store one value: ``ceil(log2 C)`` (1 minimum)."""
        return max(1, math.ceil(math.log2(self.cardinality))) if self.cardinality > 1 else 1

    @property
    def size_bytes(self) -> int:
        """Packed size of the index."""
        return (self.num_rows * self.bits_per_value + 7) // 8

    def lookup(self, op: str, value) -> np.ndarray:
        """Scan the projection for matching RIDs."""
        if op not in COMPARE:
            raise ValueOutOfRangeError(f"unknown operator {op!r}")
        return np.nonzero(COMPARE[op](self.values, value))[0]

    def binary_rows(self) -> np.ndarray:
        """Row-wise binary encoding — the IS layout of a base-2 index.

        Column ``j`` holds bit ``j`` (least significant first) of each
        value, which equals the Index-level Storage column order of a
        range-encoded base-2 index only up to per-bit complement; the
        equality-encoded base-2 IS index stores the bits directly.
        """
        width = self.bits_per_value
        return ((self.values[:, None] >> np.arange(width)) & 1).astype(bool)
