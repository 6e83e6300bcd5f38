"""The user-facing table: columns + indexes + statistics + queries.

:class:`Table` is the adoption surface of the library — the object a
downstream user works with, wrapping the substrates the reproduction is
built from:

- columns live in a :class:`~repro.relation.relation.Relation`;
- bitmap indexes are designed by the paper's machinery (knee by default,
  or any Section 6–8 objective) and built per attribute;
- equi-depth histograms and RID-list indexes feed the cost-based plan
  optimizer;
- ``select`` accepts full boolean expressions (AND/OR/NOT/IN/BETWEEN) and
  routes them through the best machinery available: conjunctions of
  comparisons go through the P1/P2/P3 optimizer, general expressions
  through bitmap algebra;
- ``aggregate`` computes SUM/COUNT/AVG/MIN/MAX through bit slices;
- ``save``/``load`` persist columns and index designs as one checksummed,
  crash-atomically written file.

Example
-------
>>> import numpy as np
>>> from repro.table import Table
>>> table = Table("sales", {
...     "region": np.array([0, 1, 2, 1, 0, 2, 1, 1]),
...     "amount": np.array([10, 40, 25, 5, 70, 30, 55, 15]),
... })
>>> _ = table.create_index("region")
>>> table.select("region = 1").tolist()
[1, 3, 6, 7]
>>> table.aggregate("amount", "sum", where="region = 1")
115
"""

from __future__ import annotations

import json
import os
from io import BytesIO

import numpy as np

from repro.core.aggregation import BitSlicedAggregator
from repro.core.advisor import recommend
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.index import BitmapIndex
from repro.core.multi import AttributeSpec, allocate_budget
from repro.errors import FileMissingError, ReproError
from repro.query.expression import (
    And,
    Comparison,
    Expression,
    parse_expression,
)
from repro.query.optimizer import Catalog, choose_plan, execute_plan
from repro.query.options import QueryOptions
from repro.relation.histogram import EquiDepthHistogram
from repro.relation.relation import Relation
from repro.relation.rid_index import RIDListIndex
from repro.stats import ExecutionStats
from repro.storage.fsdisk import atomic_write, frame, unframe


#: Magic of a saved table file's frame.
_MAGIC = b"\x89RBT"


class TableError(ReproError):
    """A table-level operation failed."""


class Table:
    """A queryable table with paper-designed bitmap indexes."""

    def __init__(self, name: str, data: dict[str, np.ndarray]):
        self.relation = Relation.from_dict(name, data)
        self.catalog = Catalog()
        self._aggregators: dict[str, BitSlicedAggregator] = {}

    @property
    def name(self) -> str:
        return self.relation.name

    @property
    def num_rows(self) -> int:
        return self.relation.num_rows

    def column_names(self) -> list[str]:
        return sorted(self.relation.columns)

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------

    def create_index(
        self,
        attribute: str,
        base: Base | None = None,
        encoding: EncodingScheme = EncodingScheme.RANGE,
        objective: str = "knee",
        space_budget: int | None = None,
    ) -> BitmapIndex:
        """Build (and register) a bitmap index over one attribute.

        Without an explicit ``base`` the advisor designs one from the
        column's cardinality: the knee by default, or any
        :func:`repro.core.advisor.recommend` objective, optionally under a
        per-attribute ``space_budget``.
        """
        column = self.relation.column(attribute)
        if base is None:
            design = recommend(
                column.cardinality,
                space_budget=space_budget,
                objective=objective,
            )
            base = design.base
        index = BitmapIndex(
            column.codes,
            cardinality=column.cardinality,
            base=base,
            encoding=encoding,
        )
        self.catalog.bitmap_indexes[attribute] = index
        return index

    def create_rid_index(self, attribute: str) -> RIDListIndex:
        """Build (and register) the conventional RID-list index."""
        index = RIDListIndex(self.relation.column(attribute).values)
        self.catalog.rid_indexes[attribute] = index
        return index

    def analyze(self, attribute: str, buckets: int = 16) -> EquiDepthHistogram:
        """Build (and register) an equi-depth histogram for the optimizer."""
        histogram = EquiDepthHistogram(
            self.relation.column(attribute).values, buckets
        )
        self.catalog.histograms[attribute] = histogram
        return histogram

    def design_indexes(
        self,
        total_bitmaps: int,
        weights: dict[str, float] | None = None,
        attributes: list[str] | None = None,
    ) -> dict[str, Base]:
        """Design and build indexes for several attributes under one budget.

        Uses the multi-attribute allocator
        (:func:`repro.core.multi.allocate_budget`); returns the chosen
        base per attribute.
        """
        names = attributes if attributes is not None else self.column_names()
        weights = weights or {}
        specs = [
            AttributeSpec(
                name,
                self.relation.column(name).cardinality,
                weights.get(name, 1.0),
            )
            for name in names
        ]
        design = allocate_budget(specs, total_bitmaps)
        for name, base in design.indexes.items():
            self.create_index(name, base=base)
        return dict(design.indexes)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def select(
        self,
        expression: Expression | str,
        stats: ExecutionStats | None = None,
        verify: bool = True,
    ) -> np.ndarray:
        """RIDs satisfying a boolean expression, via the best available path.

        Conjunctions of simple comparisons go through the cost-based
        P1/P2/P3 optimizer; other expressions evaluate through bitmap
        algebra when every referenced attribute has a bitmap index, and
        fall back to a verified full scan otherwise.
        """
        if isinstance(expression, str):
            expression = parse_expression(expression)

        predicates = _flatten_conjunction(expression)
        if predicates is not None:
            result, _ = execute_plan(
                self.relation,
                predicates,
                self.catalog,
                options=QueryOptions(verify=verify),
            )
            if stats is not None:
                stats.merge(result.stats)
            return result.rids

        covered = all(
            attr in self.catalog.bitmap_indexes
            for attr in expression.attributes()
        )
        if covered:
            from repro.query.expression import select as expression_select

            return expression_select(
                self.relation,
                expression,
                self.catalog.bitmap_indexes,
                stats=stats,
                options=QueryOptions(verify=verify),
            )
        return np.nonzero(expression.mask(self.relation))[0]

    def explain(self, expression: Expression | str) -> str:
        """A one-line description of how ``select`` would run."""
        if isinstance(expression, str):
            expression = parse_expression(expression)
        predicates = _flatten_conjunction(expression)
        if predicates is not None:
            return str(choose_plan(self.relation, predicates, self.catalog))
        covered = all(
            attr in self.catalog.bitmap_indexes
            for attr in expression.attributes()
        )
        if covered:
            return "bitmap expression evaluation"
        return "full scan (missing bitmap indexes)"

    def aggregate(
        self,
        measure: str,
        func: str,
        where: Expression | str | None = None,
    ):
        """SUM/COUNT/AVG/MIN/MAX of a column through its bit slices."""
        aggregator = self._aggregators.get(measure)
        if aggregator is None:
            values = self.relation.column(measure).values
            if not np.issubdtype(np.asarray(values).dtype, np.integer):
                raise TableError(
                    f"bit-sliced aggregation needs an integer column; "
                    f"{measure!r} is {np.asarray(values).dtype}"
                )
            aggregator = BitSlicedAggregator.from_values(values)
            self._aggregators[measure] = aggregator

        foundset = None
        if where is not None:
            from repro.bitmaps.bitvector import BitVector

            rids = self.select(where)
            foundset = BitVector.from_indices(self.num_rows, rids)

        functions = {
            "sum": aggregator.sum,
            "count": aggregator.count,
            "avg": aggregator.average,
            "min": aggregator.minimum,
            "max": aggregator.maximum,
        }
        try:
            compute = functions[func.lower()]
        except KeyError:
            known = ", ".join(sorted(functions))
            raise TableError(
                f"unknown aggregate {func!r}; expected one of {known}"
            ) from None
        return compute(foundset)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist columns and index designs to the one file ``path``.

        The file is one CRC frame (:func:`~repro.storage.fsdisk.frame`,
        magic ``\\x89RBT``) written crash-atomically: a JSON manifest line
        (name, column names, each index's base and encoding), then every
        column as ``.npy`` bytes in manifest order.  Of an index only its
        design is written: :meth:`load` rebuilds the bitmaps from the
        columns.  Missing parent directories are created.
        """
        columns = sorted(self.relation.columns)
        manifest = {
            "name": self.name,
            "columns": columns,
            "indexed": {
                attribute: {
                    "base": list(index.base.bases),
                    "encoding": index.encoding.value,
                }
                for attribute, index in self.catalog.bitmap_indexes.items()
            },
        }
        stream = BytesIO()
        stream.write(json.dumps(manifest, sort_keys=True).encode() + b"\n")
        for cname in columns:
            np.save(stream, self.relation.column(cname).values, allow_pickle=False)
        target = os.path.abspath(path)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        atomic_write(target, [frame(_MAGIC, stream.getvalue())], None, path)

    @classmethod
    def load(cls, path: str) -> "Table":
        """Inverse of :meth:`save`.

        Bitmap indexes are rebuilt from the persisted columns against the
        persisted design (base + encoding).  A missing file raises
        :class:`~repro.errors.FileMissingError`, a torn or bit-flipped one
        :class:`~repro.errors.CorruptFileError`, and an intact frame
        around a malformed manifest or column :class:`TableError`.
        """
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            raise FileMissingError(f"no such table file: {path}") from None
        head, _, body = unframe(_MAGIC, raw, path).partition(b"\n")
        try:
            manifest = json.loads(head)
            stream = BytesIO(body)
            data = {
                cname: np.load(stream, allow_pickle=False)
                for cname in manifest["columns"]
            }
            if stream.tell() != len(body):
                raise ValueError(f"{len(body) - stream.tell()} bytes after the last column")
            table = cls(manifest["name"], data)
            for attribute, design in manifest["indexed"].items():
                table.create_index(
                    attribute,
                    base=Base(tuple(design["base"])),
                    encoding=EncodingScheme(design["encoding"]),
                )
        except (AttributeError, EOFError, KeyError, TypeError, ValueError) as exc:
            raise TableError(f"{path}: malformed table file: {exc!r}") from exc
        return table

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.num_rows}, "
            f"columns={self.column_names()}, "
            f"indexed={sorted(self.catalog.bitmap_indexes)})"
        )


def _flatten_conjunction(expression: Expression) -> list[Comparison] | None:
    """The comparisons of a pure AND tree, or ``None`` if it is not one."""
    if isinstance(expression, Comparison):
        return [expression]
    if isinstance(expression, And):
        left = _flatten_conjunction(expression.left)
        right = _flatten_conjunction(expression.right)
        if left is not None and right is not None:
            return left + right
    return None
