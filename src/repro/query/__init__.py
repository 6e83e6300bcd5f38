"""Query layer: selection predicates, plan costs, and a verifying executor.

Grounds the paper's introduction: the three conventional plans for a
high-selectivity conjunctive selection — (P1) full relation scan,
(P2) one index scan plus a partial relation scan, (P3) per-predicate index
scans merged — priced in bytes read (:mod:`repro.query.plans`), so the
bitmap-vs-RID-list crossover analysis (``N <= 32 n``) is executable.
Queries themselves run one pipeline, P3 over bitmaps
(:func:`repro.query.expression.run_query`), which
:class:`~repro.engine.engine.QueryEngine` and the
:class:`~repro.table.Table` that queries through it serve.
"""

from repro.query.predicate import AttributePredicate, parse_predicate
from repro.query.plans import (
    PlanCost,
    plan_p1_cost,
    plan_p2_cost,
    plan_p3_bitmap_cost,
    plan_p3_ridlist_cost,
    ridlist_crossover_selectivity,
)
from repro.query.executor import AccessPath, QueryResult, execute
from repro.query.expression import (
    Expression,
    Threshold,
    Xor,
    parse_expression,
    select,
)
from repro.query.options import DEFAULT_OPTIONS, QueryOptions, normalize_query

__all__ = [
    "AccessPath",
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
    "parse_predicate",
    "select",
    "plan_p1_cost",
    "plan_p2_cost",
    "plan_p3_bitmap_cost",
    "plan_p3_ridlist_cost",
    "ridlist_crossover_selectivity",
]
