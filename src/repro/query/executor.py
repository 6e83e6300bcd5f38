"""The engine-free door of the query layer.

``execute`` runs a query — a predicate, an expression tree, or its text —
through caller-supplied bitmap sources, along the one pipeline the engine
and its shard workers also run (:func:`~repro.query.expression.run_query`),
and (by default) cross-checks the answer against a scan of the relation.
Leaves translate actual values to the rank domain through the column
dictionary first, so predicates on non-consecutive domains (dates,
floats, strings) work unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.index import BitmapIndex, BitmapSource
from repro.errors import EngineConfigError
from repro.query.expression import run_query
from repro.query.options import VERIFYING_OPTIONS, QueryOptions, normalize_query
from repro.relation.relation import Relation
from repro.stats import ExecutionStats
from repro.trace import QueryTrace


@dataclass
class QueryResult:
    """RIDs satisfying a query plus the execution statistics.

    ``trace`` is populated when the query ran with tracing enabled
    (``QueryOptions(trace=True)``); otherwise ``None``.
    """

    rids: np.ndarray
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    trace: QueryTrace | None = None

    @property
    def count(self) -> int:
        return len(self.rids)


def execute(
    relation: Relation,
    query,
    indexes: dict[str, BitmapSource],
    *,
    options: QueryOptions | None = None,
) -> QueryResult:
    """Evaluate ``query`` on ``relation`` through ``indexes``.

    ``query`` is any form :func:`~repro.query.options.normalize_query`
    accepts; ``indexes`` maps each attribute it reads to a bitmap source
    built over the column *codes* (see :func:`bitmap_index_for`).

    Tuning flags live in ``options``; when omitted the door verifies by
    default, raising :class:`~repro.errors.VerificationError` when the
    answer disagrees with a scan.  Sources in more than one codec raise
    :class:`~repro.errors.EngineConfigError` (:func:`one_codec`).  With
    ``options.trace`` a fresh :class:`~repro.trace.QueryTrace` is
    recorded and attached to the returned :class:`QueryResult`; with
    ``options.deadline_ms`` the evaluator and storage seams raise
    :class:`~repro.errors.QueryTimeoutError` once the budget is gone.
    """
    options = options if options is not None else VERIFYING_OPTIONS
    expression = normalize_query(query)
    served = [indexes[a] for a in expression.attributes() if a in indexes]
    if served:  # a leaf without a source fails in the walk, with its own error
        one_codec({source.bitmap_codec for source in served}, expression)
    stats = options.new_stats(expression)
    rids = run_query(
        relation,
        expression,
        indexes,
        stats,
        algorithm=options.algorithm,
        verify=options.verify,
    )
    if stats.trace is not None:
        stats.trace.finish()
    return QueryResult(rids=rids, stats=stats, trace=stats.trace)


def one_codec(codecs: set[str], query: object) -> str:
    """The single codec ``query`` runs over, given its sources' ``codecs``.

    Bitmaps of different representations cannot be combined: both doors
    fail here with :class:`~repro.errors.EngineConfigError` instead of a
    downstream algebra ``TypeError``.
    """
    if len(codecs) > 1:
        raise EngineConfigError(
            f"'{query}' mixes bitmap codecs {sorted(codecs)}; give its attributes one codec"
        )
    (codec,) = codecs
    return codec


def bitmap_index_for(relation: Relation, attribute: str, **kwargs) -> BitmapIndex:
    """Build a bitmap index over a relation column's code domain.

    Keyword arguments are forwarded to :class:`BitmapIndex` (``base``,
    ``encoding``, …).  The index is built on the column's integer codes,
    matching the dictionary translation every query leaf makes; serve it
    in another codec with :meth:`BitmapIndex.with_codec`.
    """
    column = relation.column(attribute)
    return BitmapIndex(column.codes, cardinality=column.cardinality, **kwargs)
