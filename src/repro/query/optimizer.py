"""A cost-based selection-plan optimizer over the paper's three plans.

The introduction describes the conventional optimizer's options for a
conjunctive selection — (P1) full scan, (P2) one index scan plus a
partial relation scan, (P3) per-predicate index scans merged — and argues
that P3 over bitmap indexes wins for high-selectivity-factor queries.
This module makes that argument executable: it *estimates* each plan's
byte cost from catalog statistics (no peeking at the data), picks the
cheapest, runs it, and verifies the result.

Selectivity estimation uses the classic uniform assumption: the fraction
of the column's distinct values that qualify, read off the sorted value
dictionary.  Bitmap scan counts per predicate come from the paper's own
cost model (:func:`repro.core.costmodel.scans_for_predicate`), so the
optimizer's view of a bitmap index is exactly the paper's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.core import costmodel
from repro.core.index import BitmapSource
from repro.errors import InvalidPredicateError
from repro.query.executor import AccessPath, QueryResult, VerificationError
from repro.query.expression import (
    And,
    Between,
    Comparison,
    In,
    Not,
    Or,
    Threshold,
    Xor,
    run_query,
)
from repro.query.options import VERIFYING_OPTIONS, QueryOptions, normalize_query
from repro.query.predicate import AttributePredicate
from repro.relation.histogram import EquiDepthHistogram
from repro.relation.relation import Relation
from repro.relation.rid_index import RID_BYTES, RIDListIndex
from repro.stats import ExecutionStats

#: Plan names, matching the paper's numbering.
PLAN_FULL_SCAN = "P1"
PLAN_INDEX_PLUS_SCAN = "P2"
PLAN_BITMAP_MERGE = "P3/bitmap"
PLAN_RIDLIST_MERGE = "P3/rid-list"


@dataclass(frozen=True)
class PlanChoice:
    """The optimizer's decision with its cost estimates."""

    plan: str
    estimated_bytes: int
    alternatives: dict[str, int]
    driving_attribute: str | None = None

    def __str__(self) -> str:
        ranked = ", ".join(
            f"{name}={cost}" for name, cost in sorted(
                self.alternatives.items(), key=lambda item: item[1]
            )
        )
        return f"{self.plan} (estimates: {ranked})"


@dataclass
class Catalog:
    """The indexes and statistics the optimizer may use, per attribute.

    ``histograms`` (see :mod:`repro.relation.histogram`) refine the
    default uniform-rows selectivity estimates on skewed columns.
    """

    bitmap_indexes: dict[str, BitmapSource] = field(default_factory=dict)
    rid_indexes: dict[str, RIDListIndex] = field(default_factory=dict)
    histograms: dict[str, "EquiDepthHistogram"] = field(default_factory=dict)


def estimate_selectivity(
    relation: Relation,
    predicate: AttributePredicate,
    catalog: "Catalog | None" = None,
) -> float:
    """Estimated qualifying fraction of one predicate.

    Uses the catalog's equi-depth histogram for the attribute when one
    exists; otherwise falls back to the uniform-rows-per-distinct-value
    assumption over the column dictionary.
    """
    if catalog is not None:
        histogram = catalog.histograms.get(predicate.attribute)
        if histogram is not None:
            return histogram.estimate(predicate.op, predicate.value)
    column = relation.column(predicate.attribute)
    c = column.cardinality
    op, code = column.code_bounds(predicate.op, predicate.value)
    if op == "=":
        return 1.0 / c if 0 <= code < c else 0.0
    if op == "!=":
        return 1.0 - (1.0 / c if 0 <= code < c else 0.0)
    if op == "<":
        qualifying = min(max(code, 0), c)
    elif op == "<=":
        qualifying = min(max(code + 1, 0), c)
    elif op == ">=":
        qualifying = c - min(max(code, 0), c)
    else:  # ">"
        qualifying = c - min(max(code + 1, 0), c)
    return qualifying / c


def estimate_expression_selectivity(
    relation: Relation,
    expression,
    catalog: "Catalog | None" = None,
) -> float:
    """Estimated qualifying fraction of a boolean expression tree.

    Recurses with the textbook independence assumptions: AND multiplies,
    OR is inclusion–exclusion (``s1 + s2 - s1*s2``), NOT complements,
    XOR is ``s1 + s2 - 2*s1*s2``.  A :class:`~repro.query.expression.Threshold`
    node is the tail of a Poisson-binomial: with independent operand
    selectivities ``p_i``, the chance at least ``k`` of ``N`` hold is
    computed exactly by the standard O(N^2) dynamic program over the
    count distribution.  Leaves defer to :func:`estimate_selectivity`
    (histogram-refined when the catalog has one).
    """

    def walk(node) -> float:
        if isinstance(node, Comparison):
            return estimate_selectivity(relation, node, catalog)
        if isinstance(node, In):
            # The values are distinct points of one column: their union adds.
            return min(sum(walk(leaf) for leaf in node.leaves()), 1.0)
        if isinstance(node, Between):
            # Both bounds cut the same column: |A and B| = |A| + |B| - |A or B|.
            lower, upper = node.leaves()
            return min(max(walk(lower) + walk(upper) - 1.0, 0.0), 1.0)
        if isinstance(node, And):
            return walk(node.left) * walk(node.right)
        if isinstance(node, Or):
            s1, s2 = walk(node.left), walk(node.right)
            return s1 + s2 - s1 * s2
        if isinstance(node, Xor):
            s1, s2 = walk(node.left), walk(node.right)
            return s1 + s2 - 2.0 * s1 * s2
        if isinstance(node, Not):
            return 1.0 - walk(node.inner)
        if isinstance(node, Threshold):
            probs = [walk(operand) for operand in node.operands]
            if node.k <= 0:
                return 1.0
            if node.k > len(probs):
                return 0.0
            # Poisson-binomial DP: dist[j] = P(exactly j operands hold).
            dist = np.zeros(len(probs) + 1)
            dist[0] = 1.0
            for p in probs:
                dist[1:] = dist[1:] * (1.0 - p) + dist[:-1] * p
                dist[0] *= 1.0 - p
            return float(dist[node.k :].sum())
        raise InvalidPredicateError(
            f"cannot estimate selectivity of {type(node).__name__}"
        )

    return min(max(walk(expression), 0.0), 1.0)


def _bitmap_predicate_bytes(
    relation: Relation, predicate: AttributePredicate, index: BitmapSource
) -> int:
    """Bytes to evaluate one predicate through its bitmap index."""
    column = relation.column(predicate.attribute)
    op, code = column.code_bounds(predicate.op, predicate.value)
    scans = costmodel.scans_for_predicate(
        index.base, index.cardinality, op, code, index.encoding
    )
    return scans * ((relation.num_rows + 7) // 8)


def _ridlist_predicate_bytes(
    relation: Relation,
    predicate: AttributePredicate,
    catalog: "Catalog | None" = None,
) -> int:
    """Bytes to evaluate one predicate through a RID-list index (estimate)."""
    selectivity = estimate_selectivity(relation, predicate, catalog)
    return int(RID_BYTES * selectivity * relation.num_rows)


def choose_plan(
    relation: Relation,
    predicates: list[AttributePredicate],
    catalog: Catalog,
) -> PlanChoice:
    """Estimate every applicable plan's bytes and return the cheapest."""
    if not predicates:
        raise InvalidPredicateError("need at least one predicate")
    estimates: dict[str, int] = {
        PLAN_FULL_SCAN: relation.num_rows * relation.row_bytes
    }
    driving: str | None = None

    indexed = [
        p
        for p in predicates
        if p.attribute in catalog.bitmap_indexes
        or p.attribute in catalog.rid_indexes
    ]
    if indexed:
        # P2: drive with the most selective indexed predicate, then
        # rescan the qualifying tuples for the remaining predicates.
        best = min(
            indexed,
            key=lambda p: estimate_selectivity(relation, p, catalog),
        )
        driving = best.attribute
        selectivity = estimate_selectivity(relation, best, catalog)
        if best.attribute in catalog.bitmap_indexes:
            index_bytes = _bitmap_predicate_bytes(
                relation, best, catalog.bitmap_indexes[best.attribute]
            )
        else:
            index_bytes = _ridlist_predicate_bytes(relation, best, catalog)
        partial = int(selectivity * relation.num_rows) * relation.row_bytes
        estimates[PLAN_INDEX_PLUS_SCAN] = index_bytes + partial

    if all(p.attribute in catalog.bitmap_indexes for p in predicates):
        estimates[PLAN_BITMAP_MERGE] = sum(
            _bitmap_predicate_bytes(
                relation, p, catalog.bitmap_indexes[p.attribute]
            )
            for p in predicates
        )
    if all(p.attribute in catalog.rid_indexes for p in predicates):
        estimates[PLAN_RIDLIST_MERGE] = sum(
            _ridlist_predicate_bytes(relation, p, catalog) for p in predicates
        )

    plan = min(estimates, key=lambda name: estimates[name])
    return PlanChoice(plan, estimates[plan], estimates, driving)


def execute_plan(
    relation: Relation,
    predicates: list[AttributePredicate],
    catalog: Catalog,
    choice: PlanChoice | None = None,
    *,
    options: QueryOptions | None = None,
) -> tuple[QueryResult, PlanChoice]:
    """Optimize (unless a choice is given), execute, and verify.

    Tuning flags live in ``options``; when omitted the plan executor
    verifies against a scan by default.  With ``options.trace`` the plan
    decision is recorded as a ``plan.choose`` span (with every
    alternative's cost estimate) and the trace rides on the result; with
    ``options.deadline_ms`` a plan that evaluates through a bitmap index
    raises :class:`~repro.errors.QueryTimeoutError` once the budget is gone.
    """
    options = options if options is not None else VERIFYING_OPTIONS
    stats = options.new_stats(" and ".join(str(p) for p in predicates))
    trace = stats.trace
    if choice is None:
        with stats.span("plan.choose", kind="plan"):
            choice = choose_plan(relation, predicates, catalog)
    if trace is not None:
        trace.event(
            "plan.selected",
            kind="plan",
            plan=choice.plan,
            estimated_bytes=choice.estimated_bytes,
            alternatives=dict(choice.alternatives),
            driving_attribute=choice.driving_attribute,
        )

    if choice.plan == PLAN_FULL_SCAN:
        access_path = AccessPath.SCAN
        rids = _scan_all(relation, predicates)
        stats.bytes_read += relation.num_rows * relation.row_bytes
    elif choice.plan == PLAN_INDEX_PLUS_SCAN:
        assert choice.driving_attribute is not None
        best = next(
            p for p in predicates if p.attribute == choice.driving_attribute
        )
        if best.attribute in catalog.bitmap_indexes:
            access_path = AccessPath.BITMAP
            rids = _bitmap_rids(
                relation, [best], catalog, stats, options.algorithm
            )
        else:
            access_path = AccessPath.RID_LIST
            index = catalog.rid_indexes[best.attribute]
            stats.bytes_read += index.bytes_for(best.op, best.value)
            rids = index.lookup(best.op, best.value)
        rest = [p for p in predicates if p is not best]
        for predicate in rest:
            column_values = relation.column(predicate.attribute).values[rids]
            rids = rids[predicate.matches(column_values)]
        stats.bytes_read += len(rids) * relation.row_bytes
    elif choice.plan == PLAN_BITMAP_MERGE:
        access_path = AccessPath.BITMAP
        rids = _bitmap_rids(
            relation, predicates, catalog, stats, options.algorithm
        )
    elif choice.plan == PLAN_RIDLIST_MERGE:
        access_path = AccessPath.RID_LIST
        rids = None
        for predicate in predicates:
            index = catalog.rid_indexes[predicate.attribute]
            found = index.lookup(predicate.op, predicate.value)
            stats.bytes_read += index.bytes_for(predicate.op, predicate.value)
            rids = found if rids is None else np.intersect1d(rids, found)
        assert rids is not None
    else:  # pragma: no cover - choose_plan only emits the four names
        raise InvalidPredicateError(f"unknown plan {choice.plan!r}")

    rids = np.sort(np.asarray(rids))
    if options.verify:
        with stats.span("verify", kind="phase"):
            truth = _scan_all(relation, predicates)
        if not np.array_equal(rids, truth):
            raise VerificationError(
                f"plan {choice.plan} returned {len(rids)} RIDs; the scan "
                f"found {len(truth)}"
            )
    if trace is not None:
        trace.finish()
    return (
        QueryResult(rids=rids, access_path=access_path, stats=stats, trace=trace),
        choice,
    )


def _scan_all(
    relation: Relation, predicates: list[AttributePredicate]
) -> np.ndarray:
    mask = np.ones(relation.num_rows, dtype=bool)
    for predicate in predicates:
        mask &= predicate.matches(relation.column(predicate.attribute).values)
    return np.nonzero(mask)[0]


def _bitmap_rids(
    relation: Relation,
    predicates: list[AttributePredicate],
    catalog: Catalog,
    stats: ExecutionStats,
    algorithm: str,
) -> np.ndarray:
    """The predicates folded with ``And`` (as
    :func:`~repro.query.executor.conjunctive_select` folds them) and run
    through the one query pipeline, so merge ANDs are charged and
    ``algorithm`` reaches every leaf."""
    conjunction = functools.reduce(And, map(normalize_query, predicates))
    return run_query(
        relation, conjunction, catalog.bitmap_indexes, stats, algorithm=algorithm
    )
