"""Relations: named collections of equal-length columns.

The relation is deliberately minimal — enough to ground the paper's plan
cost analysis (full scans read ``N * row_bytes`` bytes), to serve as
the source of truth every index-answered query is verified against, and
to hand out its attributes' bitmap sources (:meth:`Relation.bitmap_source`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.encoding import EncodingScheme
from repro.core.evaluation import COMPARE
from repro.core.index import BitmapIndex, IndexSpec
from repro.errors import ValueOutOfRangeError
from repro.relation.column import Column

if TYPE_CHECKING:
    from repro.storage.store import IndexStore


class Relation:
    """A named relation of columns in RID order."""

    #: The index store a relation's image was read from
    #: (:class:`~repro.storage.store.StoreRelation`); ``None`` in memory.
    store: IndexStore | None = None

    def __init__(self, name: str, columns: list[Column]):
        if not columns:
            raise ValueOutOfRangeError("a relation needs at least one column")
        rows = columns[0].num_rows
        for col in columns:
            if col.num_rows != rows:
                raise ValueOutOfRangeError(
                    f"column {col.name!r} has {col.num_rows} rows; "
                    f"expected {rows}"
                )
        self.name = name
        self.columns = {col.name: col for col in columns}
        if len(self.columns) != len(columns):
            raise ValueOutOfRangeError("duplicate column names")
        self._rows = rows

    @classmethod
    def from_dict(cls, name: str, data: dict[str, np.ndarray]) -> "Relation":
        """Build a relation from ``{column_name: values}``."""
        return cls(name, [Column(cname, values) for cname, values in data.items()])

    @property
    def num_rows(self) -> int:
        """Relation cardinality (the paper's ``N``)."""
        return self._rows

    @property
    def row_bytes(self) -> int:
        """Logical bytes per tuple (sum of column value widths)."""
        return sum(col.value_size_bytes for col in self.columns.values())

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            known = ", ".join(sorted(self.columns))
            raise KeyError(
                f"relation {self.name!r} has no column {name!r}; "
                f"columns: {known}"
            ) from None

    def bitmap_source(self, attribute: str, spec: IndexSpec) -> BitmapIndex:
        """The paper's index of one attribute in ``spec``'s design, built
        over the column codes (the ranks of its lookup table, Section 2)."""
        column, encoding = self.column(attribute), spec.encoding or EncodingScheme.RANGE
        base = spec.resolve_base(column.cardinality)
        return BitmapIndex(column.codes, column.cardinality, base, encoding, keep_values=False)

    def check_spec(self, attribute: str, spec: IndexSpec) -> None:
        """Raise where this relation cannot serve ``attribute`` in ``spec``'s
        design: never in memory, where the index is built to it."""

    def latest(self) -> "Relation":
        """This relation as its source now holds it: itself, in memory."""
        return self

    def scan(self, attribute: str, op: str, value) -> np.ndarray:
        """Full-scan evaluation of ``attribute op value``: matching RIDs."""
        if op not in COMPARE:
            raise ValueOutOfRangeError(f"unknown operator {op!r}")
        return np.nonzero(COMPARE[op](self.column(attribute).values, value))[0]

    def __repr__(self) -> str:
        cols = ", ".join(sorted(self.columns))
        return f"Relation({self.name!r}, rows={self.num_rows}, columns=[{cols}])"
