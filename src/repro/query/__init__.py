"""Query layer: selection predicates, plan costs, and the engine-free door.

Grounds the paper's introduction: the three conventional plans for a
high-selectivity conjunctive selection — (P1) full relation scan,
(P2) one index scan plus a partial relation scan, (P3) per-predicate index
scans merged — priced in bytes read (:mod:`repro.query.plans`), so the
bitmap-vs-RID-list crossover analysis (``N <= 32 n``) is executable.
Queries themselves run one pipeline, P3 over bitmaps
(:func:`repro.query.expression.run_query`).  It has two doors:
:func:`~repro.query.executor.execute` runs a query over bitmap sources
the caller holds, verifying by default, and
:class:`~repro.engine.engine.QueryEngine` (with the
:class:`~repro.table.Table` that queries through it) serves registered
relations.
"""

from repro.query.predicate import AttributePredicate
from repro.query.plans import (
    PlanCost,
    plan_p1_cost,
    plan_p2_cost,
    plan_p3_bitmap_cost,
    plan_p3_ridlist_cost,
    ridlist_crossover_selectivity,
)
from repro.query.executor import QueryResult, execute
from repro.query.expression import (
    Expression,
    Threshold,
    Xor,
    parse_expression,
)
from repro.query.options import DEFAULT_OPTIONS, QueryOptions, normalize_query

__all__ = [
    "AttributePredicate",
    "DEFAULT_OPTIONS",
    "Expression",
    "Threshold",
    "Xor",
    "PlanCost",
    "QueryOptions",
    "QueryResult",
    "execute",
    "normalize_query",
    "parse_expression",
    "plan_p1_cost",
    "plan_p2_cost",
    "plan_p3_bitmap_cost",
    "plan_p3_ridlist_cost",
    "ridlist_crossover_selectivity",
]
