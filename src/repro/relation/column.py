"""Typed columns with optional value dictionaries.

A :class:`Column` holds one attribute of a relation in RID order.  Values
of any orderable dtype are supported; internally the column keeps integer
*codes* plus a sorted dictionary of distinct values, which is exactly the
rank mapping the paper prescribes for indexing non-consecutive attribute
domains ("by mapping each actual attribute value to its rank via a lookup
table", Section 2).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.index import rank_values
from repro.errors import ValueOutOfRangeError


class Column:
    """One attribute of a relation, stored column-wise.

    Parameters
    ----------
    name:
        Attribute name.
    values:
        The attribute values in RID order (any orderable numpy dtype).
        The column keeps a read-only view of them, not a copy: writing
        through :attr:`values` raises, and mutating the caller's original
        array afterwards leaves the column (and every index built from
        it) undefined.
    value_size_bytes:
        Logical width of one value on disk, used by the plan-cost model
        (defaults to the dtype's item size).
    """

    def __init__(
        self,
        name: str,
        values: np.ndarray,
        value_size_bytes: int | None = None,
    ):
        values = np.asarray(values).view()
        if values.ndim != 1:
            raise ValueOutOfRangeError("column values must be 1-D")
        values.flags.writeable = False
        self.name = name
        self.values = values
        self.value_size_bytes = (
            value_size_bytes if value_size_bytes is not None else values.dtype.itemsize
        )

    @functools.cached_property
    def _ranked(self) -> tuple[np.ndarray, np.ndarray]:
        # On first use: the index build pays (and times) the ranking, and
        # a column that is only ever scanned never does.
        return rank_values(self.values)

    dictionary = property(lambda self: self._ranked[0], doc="Sorted distinct values.")
    codes = property(lambda self: self._ranked[1], doc="Each row's rank (read-only).")

    @property
    def num_rows(self) -> int:
        return len(self.values)

    @property
    def cardinality(self) -> int:
        """Number of distinct actual values (the paper's ``C``)."""
        return len(self.dictionary)

    def code_of(self, value) -> int | None:
        """Rank of ``value`` in the dictionary, or ``None`` if absent."""
        pos = int(np.searchsorted(self.dictionary, value))
        if pos < len(self.dictionary) and self.dictionary[pos] == value:
            return pos
        return None

    def code_bounds(self, op: str, value) -> tuple[str, int]:
        """Translate ``A op value`` on actual values to a code predicate.

        Returns an equivalent ``(op, code)`` pair on the rank domain; the
        translation is exact for any value because the dictionary is
        sorted (e.g. ``A < v`` becomes ``code < searchsorted(v)``).
        """
        left = int(np.searchsorted(self.dictionary, value, side="left"))
        if op in ("=", "!="):
            code = self.code_of(value)
            if code is None:
                # No row matches; map to an out-of-range code, which the
                # evaluators short-circuit.
                return op, self.cardinality
            return op, code
        if op in ("<", ">="):
            # values < v  <=>  codes < left
            return op, left
        if op in ("<=", ">"):
            right = int(np.searchsorted(self.dictionary, value, side="right"))
            # values <= v  <=>  codes < right  <=>  codes <= right - 1
            return ("<=", right - 1) if op == "<=" else (">", right - 1)
        raise ValueOutOfRangeError(f"unknown operator {op!r}")

    def __repr__(self) -> str:
        return (
            f"Column({self.name!r}, rows={self.num_rows}, "
            f"cardinality={self.cardinality}, dtype={self.values.dtype})"
        )
