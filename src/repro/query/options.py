"""The unified tuning surface of the query layer.

:class:`QueryOptions` is the one dataclass every query entry point
accepts — the engine-free door (:func:`~repro.query.executor.execute`)
and the serving engine — in place of per-call keywords.  It carries only
what changes a query's answer, its accounting or its time budget; how a
query runs (codec, backend, shard count) is the engine's, fixed where the
engine and its indexes are built.

:func:`normalize_query` is the companion piece of the unified surface: it
turns any of the accepted query forms — an
:class:`~repro.query.predicate.AttributePredicate`, an
:class:`~repro.query.expression.Expression` tree, or a textual expression
string — into the one canonical form every execution path runs: an
:class:`~repro.query.expression.Expression` tree (a predicate is a
one-leaf tree).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import InvalidPredicateError
from repro.faults import Deadline
from repro.stats import ExecutionStats
from repro.trace import QueryTrace


@dataclass(frozen=True)
class QueryOptions:
    """Tuning flags shared by the engine-free door and the engine.

    Attributes
    ----------
    verify:
        Cross-check the result against a ground-truth scan (default off —
        the serving default; the engine-free door verifies when it is
        given no ``options``, see :data:`VERIFYING_OPTIONS`).
    algorithm:
        Evaluation algorithm every leaf of the query is evaluated with
        by :func:`repro.core.evaluation.evaluate` (``'auto'``,
        ``'range_eval'``, ``'range_eval_opt'``, ``'equality_eval'``,
        ``'interval_eval'``) — the same one whether the leaf arrives as
        a predicate, inside a connective, under ``count``/``group_count``,
        or on any backend.  A leaf whose index encoding the algorithm
        cannot serve raises :class:`~repro.errors.InvalidPredicateError`.
    trace:
        Record a :class:`~repro.trace.QueryTrace` of timed spans on the
        result (adds per-operation overhead; leave off on the hot path).
    deadline_ms:
        Cooperative wall-clock budget in milliseconds (``None`` = no
        deadline).  The budget is checked at the evaluator, storage, and
        shard seams; a query that outlives it raises
        :class:`~repro.errors.QueryTimeoutError` (with the partial trace
        attached when tracing was on) instead of serving late.  On the
        inline and thread backends each query gets its own budget; the
        process backend treats it as a per-dispatch budget since shards
        of a batch evaluate together.
    """

    verify: bool = False
    algorithm: str = "auto"
    trace: bool = False
    deadline_ms: float | None = None

    def with_(self, **overrides) -> "QueryOptions":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    def new_stats(self, label: object) -> ExecutionStats:
        """The per-query record these options ask for.

        Counters, plus a :class:`~repro.trace.QueryTrace` labelled
        ``label`` when ``trace`` is set and a running
        :class:`~repro.faults.Deadline` when ``deadline_ms`` is — built
        here so no entry point can forget one.
        """
        return ExecutionStats(
            trace=QueryTrace(label=str(label)) if self.trace else None,
            deadline=Deadline(self.deadline_ms) if self.deadline_ms is not None else None,
        )


#: Shared default instance (options are immutable, so one is enough).
DEFAULT_OPTIONS = QueryOptions()

#: Default for the engine-free door (:func:`~repro.query.executor.execute`),
#: which cross-checks against a scan unless told otherwise.
VERIFYING_OPTIONS = QueryOptions(verify=True)


def normalize_query(query):
    """Canonicalize any accepted query form into an ``Expression``.

    Strings are parsed with the recursive-descent expression parser;
    expression trees — an
    :class:`~repro.query.predicate.AttributePredicate` is the one-leaf
    tree, a :class:`~repro.query.expression.Comparison` — pass through
    unchanged.
    """
    # Imported here: expression.py itself imports this module, so a
    # module-level import would be circular.
    from repro.query.expression import Expression, parse_expression

    if isinstance(query, str):
        return parse_expression(query)
    if isinstance(query, Expression):
        return query
    raise InvalidPredicateError(
        f"cannot interpret {query!r} as a query; expected an "
        f"AttributePredicate, an Expression, or a textual expression"
    )
