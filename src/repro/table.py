"""The user-facing table: columns + indexes + queries.

:class:`Table` is the adoption surface of the library — the object a
downstream user works with, and a client of the one query pipeline,
:class:`~repro.engine.engine.QueryEngine`:

- columns live in a :class:`~repro.relation.relation.Relation`;
- bitmap indexes are designed by the paper's machinery (knee by default,
  or any Section 6–8 objective); each design is registered with the
  table's own engine, which builds the index on its first query;
- ``select`` and ``explain`` accept full boolean expressions
  (AND/OR/XOR/NOT/IN/BETWEEN/ATLEAST): the engine answers one whose
  attributes are all indexed, a full scan the rest;
- ``aggregate`` computes SUM/COUNT/AVG/MIN/MAX: the engine answers one
  whose measure and WHERE attributes are all indexed, numpy over the raw
  column the rest and any SUM/AVG over a gapped dictionary;
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

from repro.core.advisor import recommend
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.index import BitmapIndex, IndexSpec
from repro.core.multi import AttributeSpec, allocate_budget
from repro.engine.engine import QueryEngine, affine
from repro.errors import EmptyFoundsetError, FileMissingError, InvalidBaseError, ReproError
from repro.query.expression import AGGREGATES, Comparison, Expression, parse_expression
from repro.query.options import QueryOptions
from repro.relation.relation import Relation
from repro.stats import ExecutionStats
from repro.storage.fsdisk import atomic_write, frame, unframe


#: Magic of a saved table file's frame.
_MAGIC = b"\x89RBT"
#: How ``aggregate`` reduces a raw column, per name in ``AGGREGATES``.
_REDUCE = {"count": np.size, "sum": np.sum, "avg": np.mean, "min": np.min, "max": np.max}


class TableError(ReproError):
    """A table-level operation failed."""


class Table:
    """A queryable table with paper-designed bitmap indexes.

    ``engine`` is the table's own :class:`~repro.engine.engine.QueryEngine`
    (engine defaults), serving the indexed attributes of ``relation``.
    """

    def __init__(self, name: str, data: dict[str, np.ndarray]):
        self.relation = Relation.from_dict(name, data)
        self.engine = QueryEngine()
        self._designs: dict[str, IndexSpec] = {}

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
        """Register a bitmap index over one attribute and build it.

        Without an explicit ``base`` the advisor designs one from the
        column's cardinality: the knee by default, or any
        :func:`repro.core.advisor.recommend` objective, optionally under a
        per-attribute ``space_budget``.  The design replaces any earlier
        one of the attribute; the engine builds and serves the index.
        """
        if base is None:
            base = recommend(
                self.relation.column(attribute).cardinality,
                space_budget=space_budget,
                objective=objective,
            ).base
        self._register(attribute, IndexSpec(base=base, encoding=encoding))
        return self.engine._source_for(self.engine.registration(self.name), attribute).source

    def _register(self, attribute: str, spec: IndexSpec) -> None:
        """Serve ``attribute`` through the engine with design ``spec``.

        Nothing is built here: the engine builds the index on the first
        query that reads the attribute.  A design the column cannot take
        is refused now, not at that query.
        """
        cardinality = self.relation.column(attribute).cardinality
        if cardinality < 2 or not spec.base.covers(cardinality):
            raise InvalidBaseError(
                f"base {spec.base} cannot index {attribute!r} "
                f"(cardinality {cardinality})"
            )
        self._designs[attribute] = spec
        self.engine.register(
            self.relation, attributes=sorted(self._designs), overrides=self._designs
        )

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
        """RIDs satisfying a boolean expression.

        The table's engine answers an expression whose attributes are all
        indexed (verified against a scan unless ``verify=False``); any
        other expression is answered by a full scan.
        """
        if isinstance(expression, str):
            expression = parse_expression(expression)
        if not self._covers(expression):
            return np.nonzero(expression.mask(self.relation))[0]
        result = self.engine.query(expression, options=QueryOptions(verify=verify))
        if stats is not None:
            stats.merge(result.stats)
        return result.rids

    def explain(self, expression: Expression | str) -> str:
        """How ``select`` runs: the engine's EXPLAIN report, or the scan note."""
        if isinstance(expression, str):
            expression = parse_expression(expression)
        if not self._covers(expression):
            return "full scan (missing bitmap indexes)"
        return str(self.engine.explain(expression))

    def _covers(self, expression: Expression) -> bool:
        return expression.attributes() <= self._designs.keys()

    def aggregate(
        self,
        measure: str,
        func: str,
        where: Expression | str | None = None,
    ):
        """SUM/COUNT/AVG/MIN/MAX of an integer column over ``where``'s rows.

        The engine answers (verified against a scan) when ``measure`` and
        ``where`` are indexed, but for a SUM/AVG over a gapped dictionary
        (one engine evaluation per value); numpy reduces the raw column,
        masked by a scan of ``where``, otherwise.  MIN, MAX or AVG over no
        rows raise :class:`~repro.errors.EmptyFoundsetError`.
        """
        fn = func.lower()
        if fn not in AGGREGATES:
            raise TableError(f"unknown aggregate {func!r}; expected one of {AGGREGATES}")
        column = self.relation.column(measure)
        if not np.issubdtype(column.values.dtype, np.integer):
            raise TableError(
                f"aggregation needs an integer column; {measure!r} is {column.values.dtype}"
            )
        if isinstance(where, str):
            where = parse_expression(where)
        gapped = fn in ("sum", "avg") and affine(column.dictionary) is None
        if measure in self._designs and not gapped and (where is None or self._covers(where)):
            # No WHERE: ``measure >= its least value`` reads no bitmap.
            query = where if where is not None else Comparison(measure, ">=", column.dictionary[0])
            options = QueryOptions(verify=True)
            return self.engine.aggregate(query, measure, fn, options=options).value
        values = column.values if where is None else column.values[where.mask(self.relation)]
        if not len(values) and fn in ("avg", "min", "max"):
            raise EmptyFoundsetError(f"{fn.upper()} over an empty selection")
        return np.asarray(_REDUCE[fn](values)).item()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist columns and index designs to the one file ``path``.

        The file is one CRC frame (:func:`~repro.storage.fsdisk.frame`,
        magic ``\\x89RBT``) written crash-atomically: a JSON manifest line
        (name, column names, each index's base and encoding), then every
        column as ``.npy`` bytes in manifest order.  Of an index only its
        design is written: the loaded table's engine builds the bitmaps
        from the columns on first use.  Missing parent directories are
        created.
        """
        columns = sorted(self.relation.columns)
        manifest = {
            "name": self.name,
            "columns": columns,
            "indexed": {
                attribute: {
                    "base": list(spec.base.bases),
                    "encoding": spec.encoding.value,
                }
                for attribute, spec in self._designs.items()
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

        The persisted designs (base + encoding) are registered with the
        loaded table's engine, and no bitmap is built: each index is built
        from the columns on the first query that reads it.  A missing file
        raises
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
                table._register(
                    attribute,
                    IndexSpec(
                        base=Base(tuple(design["base"])),
                        encoding=EncodingScheme(design["encoding"]),
                    ),
                )
        except (AttributeError, EOFError, KeyError, TypeError, ValueError) as exc:
            raise TableError(f"{path}: malformed table file: {exc!r}") from exc
        return table

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.num_rows}, "
            f"columns={self.column_names()}, "
            f"indexed={sorted(self._designs)})"
        )

