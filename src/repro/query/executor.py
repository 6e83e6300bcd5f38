"""A verifying query executor over the access paths of the library.

``execute`` evaluates one :class:`~repro.query.predicate.AttributePredicate`
against a relation through a chosen access path — full scan, bitmap index,
RID-list index, or projection index — and (by default) cross-checks the
result against the ground-truth scan.  Bitmap access translates actual
values to the rank domain through the column dictionary first, so
predicates on non-consecutive domains (dates, floats, strings) work
unmodified.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core.evaluation import Predicate, evaluate
from repro.core.index import BitmapIndex, BitmapSource
from repro.errors import InvalidPredicateError, VerificationError
from repro.query.options import VERIFYING_OPTIONS, QueryOptions
from repro.query.predicate import AttributePredicate
from repro.relation.projection import ProjectionIndex
from repro.relation.relation import Relation
from repro.relation.rid_index import RIDListIndex
from repro.stats import ExecutionStats
from repro.trace import QueryTrace


class AccessPath(enum.Enum):
    """The ways a selection predicate can be evaluated."""

    SCAN = "scan"
    BITMAP = "bitmap"
    RID_LIST = "rid_list"
    PROJECTION = "projection"


@dataclass
class QueryResult:
    """RIDs satisfying a predicate plus the execution statistics.

    ``trace`` is populated when the query ran with tracing enabled
    (``QueryOptions(trace=True)``); otherwise ``None``.
    """

    rids: np.ndarray
    access_path: AccessPath
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    trace: QueryTrace | None = None

    @property
    def count(self) -> int:
        return len(self.rids)


def execute(
    relation: Relation,
    predicate: AttributePredicate,
    access_path: AccessPath = AccessPath.SCAN,
    index: BitmapSource | RIDListIndex | ProjectionIndex | None = None,
    *,
    options: QueryOptions | None = None,
) -> QueryResult:
    """Evaluate ``predicate`` on ``relation`` via the chosen access path.

    ``index`` must match the access path: a bitmap source (built over the
    column *codes* — see :func:`bitmap_index_for`), a
    :class:`RIDListIndex`, or a :class:`ProjectionIndex`.

    Tuning flags live in ``options`` (a
    :class:`~repro.query.options.QueryOptions`); when omitted the
    standalone executor verifies by default.  With verification on the
    result is checked against a full scan and a :class:`VerificationError`
    raised on any disagreement.  With ``options.trace`` a fresh
    :class:`~repro.trace.QueryTrace` is recorded and attached to the
    returned :class:`QueryResult`; with ``options.deadline_ms`` the
    evaluator and storage seams raise
    :class:`~repro.errors.QueryTimeoutError` once the budget is gone.
    """
    options = options if options is not None else VERIFYING_OPTIONS
    stats = options.new_stats(predicate)
    trace = stats.trace
    column = relation.column(predicate.attribute)

    if access_path is AccessPath.SCAN:
        rids = relation.scan(predicate.attribute, predicate.op, predicate.value)
        stats.bytes_read += relation.num_rows * relation.row_bytes
    elif access_path is AccessPath.BITMAP:
        if index is None:
            raise InvalidPredicateError("bitmap access path needs an index")
        with stats.span("translate", kind="phase", attribute=predicate.attribute):
            op, code = column.code_bounds(predicate.op, predicate.value)
        result = evaluate(
            index, Predicate(op, code), algorithm=options.algorithm, stats=stats
        )
        with stats.span("materialize", kind="phase"):
            rids = result.indices()
    elif access_path is AccessPath.RID_LIST:
        if not isinstance(index, RIDListIndex):
            raise InvalidPredicateError("rid_list access path needs a RIDListIndex")
        rids = index.lookup(predicate.op, predicate.value)
        stats.bytes_read += index.bytes_for(predicate.op, predicate.value)
    elif access_path is AccessPath.PROJECTION:
        if not isinstance(index, ProjectionIndex):
            raise InvalidPredicateError(
                "projection access path needs a ProjectionIndex"
            )
        code_op, code = column.code_bounds(predicate.op, predicate.value)
        rids = index.lookup(code_op, code)
        stats.bytes_read += index.size_bytes
    else:  # pragma: no cover - exhaustive enum
        raise InvalidPredicateError(f"unknown access path {access_path!r}")

    # Every access path above yields ascending RIDs (np.nonzero order;
    # RIDListIndex.lookup sorts internally), so no re-sort is needed here —
    # at 1M rows a redundant np.sort costs more than the evaluation itself.
    if options.verify:
        with stats.span("verify", kind="phase"):
            truth = relation.scan(predicate.attribute, predicate.op, predicate.value)
        if not np.array_equal(rids, truth):
            raise VerificationError(
                f"{access_path.value} path returned {len(rids)} RIDs for "
                f"'{predicate}'; the scan found {len(truth)}"
            )
    if trace is not None:
        trace.finish()
    return QueryResult(rids=rids, access_path=access_path, stats=stats, trace=trace)


def bitmap_index_for(relation: Relation, attribute: str, **kwargs) -> BitmapIndex:
    """Build a bitmap index over a relation column's code domain.

    Keyword arguments are forwarded to :class:`BitmapIndex` (``base``,
    ``encoding``, …).  The index is built on the column's integer codes,
    matching the dictionary translation in :func:`execute`; serve it in
    another codec with :meth:`BitmapIndex.with_codec`.
    """
    column = relation.column(attribute)
    return BitmapIndex(column.codes, cardinality=column.cardinality, **kwargs)

