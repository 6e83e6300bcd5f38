"""Tests for the cost-based plan optimizer."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.decomposition import Base
from repro.errors import InvalidPredicateError
from repro.query.executor import AccessPath, bitmap_index_for, conjunctive_select
from repro.query.expression import And, Comparison, Expression, parse_expression, run_query
from repro.query.optimizer import (
    PLAN_BITMAP_MERGE,
    PLAN_FULL_SCAN,
    PLAN_INDEX_PLUS_SCAN,
    PLAN_RIDLIST_MERGE,
    Catalog,
    PlanChoice,
    choose_plan,
    estimate_expression_selectivity,
    estimate_selectivity,
    execute_plan,
)
from repro.query.options import QueryOptions
from repro.query.predicate import parse_predicate
from repro.relation.relation import Relation
from repro.relation.rid_index import RIDListIndex
from repro.stats import ExecutionStats


@pytest.fixture
def relation(rng) -> Relation:
    return Relation.from_dict(
        "facts",
        {
            "region": rng.integers(0, 20, 4000),
            "status": rng.integers(0, 5, 4000),
        },
    )


@pytest.fixture
def full_catalog(relation) -> Catalog:
    return Catalog(
        bitmap_indexes={
            "region": bitmap_index_for(relation, "region", base=Base((5, 4))),
            "status": bitmap_index_for(relation, "status"),
        },
        rid_indexes={
            "region": RIDListIndex(relation.column("region").values),
            "status": RIDListIndex(relation.column("status").values),
        },
    )


class TestSelectivityEstimation:
    def test_equality(self, relation):
        sel = estimate_selectivity(relation, parse_predicate("region = 3"))
        assert sel == pytest.approx(1 / 20)

    def test_equality_absent_value(self, relation):
        sel = estimate_selectivity(relation, parse_predicate("region = 99"))
        assert sel == 0.0

    def test_range(self, relation):
        sel = estimate_selectivity(relation, parse_predicate("region <= 9"))
        assert sel == pytest.approx(0.5)
        sel = estimate_selectivity(relation, parse_predicate("region > 9"))
        assert sel == pytest.approx(0.5)

    def test_not_equal(self, relation):
        sel = estimate_selectivity(relation, parse_predicate("region != 3"))
        assert sel == pytest.approx(19 / 20)

    def test_extremes(self, relation):
        assert estimate_selectivity(relation, parse_predicate("region < 0")) == 0.0
        assert estimate_selectivity(relation, parse_predicate("region >= 0")) == 1.0


class TestExpressionSelectivity:
    """``estimate_expression_selectivity`` over all eight node types.

    The columns are independent and uniform, which is exactly what the
    estimator assumes, so every estimate must land near the measured
    fraction; the algebraic identities must hold exactly.
    """

    QUERIES = (
        "region <= 11",  # Comparison
        "region in (2, 5, 7, 19)",  # In
        "region between 4 and 13",  # Between
        "region <= 11 and status >= 2",  # And
        "region <= 5 or status = 1",  # Or
        "region <= 11 xor status <= 1",  # Xor
        "not (region > 7 and status != 3)",  # Not
        "atleast(2, region <= 9, status <= 1, tier >= 6, flag = 1)",  # Threshold
    )

    @pytest.fixture
    def relation(self, rng) -> Relation:
        cardinalities = {"region": 20, "status": 5, "tier": 10, "flag": 4}
        columns = {name: rng.integers(0, c, 40_000) for name, c in cardinalities.items()}
        return Relation.from_dict("facts", columns)

    @staticmethod
    def estimate(relation, text: str) -> float:
        return estimate_expression_selectivity(relation, parse_expression(text))

    @pytest.mark.parametrize("text", QUERIES)
    def test_estimate_is_near_the_measured_fraction(self, relation, text):
        measured = parse_expression(text).mask(relation).mean()
        assert self.estimate(relation, text) == pytest.approx(measured, abs=0.05)

    def test_every_node_type_is_covered(self):
        nodes = {type(parse_expression(text)).__name__ for text in self.QUERIES}
        assert len(nodes) == 8

    def test_exact_identities(self, relation):
        a, b, c = "region <= 6", "status = 2", "region >= 12"
        est = functools.partial(self.estimate, relation)
        s = {text: est(text) for text in (a, b, c)}
        assert est(f"not {a}") == pytest.approx(1.0 - s[a])
        assert est(f"atleast(1, {a}, {b})") == pytest.approx(est(f"{a} or {b}"))
        assert est(f"atleast(3, {a}, {b}, {c})") == pytest.approx(s[a] * s[b] * s[c])
        assert est(f"atleast(3, {a}, {b}, {c})") == pytest.approx(est(f"{a} and {b} and {c}"))
        assert est(f"atleast(4, {a}, {b}, {c})") == 0.0
        assert est(f"atleast(0, {a}, {b}, {c})") == 1.0
        assert est(f"atleast(-2, {a})") == 1.0

    def test_unknown_node_is_a_typed_error(self, relation):
        class Mystery(Expression):
            pass

        with pytest.raises(InvalidPredicateError, match="Mystery"):
            estimate_expression_selectivity(relation, Mystery())
        with pytest.raises(InvalidPredicateError, match="Mystery"):
            estimate_expression_selectivity(
                relation, And(Comparison("region", "=", 1), Mystery())
            )


class TestPlanChoice:
    def test_wide_query_picks_bitmap_merge(self, relation, full_catalog):
        """The paper's headline: P3/bitmap wins for large foundsets."""
        predicates = [
            parse_predicate("region <= 15"),
            parse_predicate("status <= 3"),
        ]
        choice = choose_plan(relation, predicates, full_catalog)
        assert choice.plan == PLAN_BITMAP_MERGE
        assert choice.alternatives[PLAN_BITMAP_MERGE] < choice.alternatives[
            PLAN_RIDLIST_MERGE
        ]

    def test_needle_query_avoids_bitmap_merge(self, relation, full_catalog):
        """A tiny foundset favours the RID-list path (below 1/32)."""
        predicates = [parse_predicate("region = 3")]
        choice = choose_plan(relation, predicates, full_catalog)
        assert choice.plan in (PLAN_RIDLIST_MERGE, PLAN_INDEX_PLUS_SCAN)

    def test_no_indexes_forces_full_scan(self, relation):
        choice = choose_plan(
            relation, [parse_predicate("region <= 5")], Catalog()
        )
        assert choice.plan == PLAN_FULL_SCAN

    def test_partial_index_coverage_enables_p2(self, relation, full_catalog):
        catalog = Catalog(
            bitmap_indexes={"region": full_catalog.bitmap_indexes["region"]}
        )
        predicates = [
            parse_predicate("region = 3"),
            parse_predicate("status <= 3"),
        ]
        choice = choose_plan(relation, predicates, catalog)
        assert choice.plan == PLAN_INDEX_PLUS_SCAN
        assert choice.driving_attribute == "region"

    def test_p2_drives_with_most_selective(self, relation, full_catalog):
        predicates = [
            parse_predicate("region <= 18"),  # ~95%
            parse_predicate("status = 0"),  # 20%
        ]
        choice = choose_plan(relation, predicates, full_catalog)
        if choice.plan == PLAN_INDEX_PLUS_SCAN:
            assert choice.driving_attribute == "status"
        # Either way P2's estimate must have used the selective predicate.
        assert choice.alternatives[PLAN_INDEX_PLUS_SCAN] < relation.num_rows * (
            relation.row_bytes
        )

    def test_empty_predicates_rejected(self, relation, full_catalog):
        with pytest.raises(InvalidPredicateError):
            choose_plan(relation, [], full_catalog)

    def test_str_rendering(self, relation, full_catalog):
        choice = choose_plan(
            relation, [parse_predicate("region <= 5")], full_catalog
        )
        assert choice.plan in str(choice)


class TestExecution:
    @pytest.mark.parametrize(
        "texts",
        [
            ["region <= 15", "status <= 3"],
            ["region = 3"],
            ["region = 3", "status = 1"],
            ["region != 0"],
            ["region > 25"],  # empty result
        ],
    )
    def test_optimized_execution_correct(self, relation, full_catalog, texts):
        predicates = [parse_predicate(t) for t in texts]
        result, choice = execute_plan(relation, predicates, full_catalog)
        mask = np.ones(relation.num_rows, dtype=bool)
        for predicate in predicates:
            mask &= predicate.matches(relation.column(predicate.attribute).values)
        assert result.count == int(mask.sum())

    def test_every_plan_executes_correctly(self, relation, full_catalog):
        """Force each plan and check they all return the same rows."""
        from repro.query.optimizer import PlanChoice

        predicates = [
            parse_predicate("region <= 10"),
            parse_predicate("status <= 2"),
        ]
        baseline = None
        rid_only = Catalog(rid_indexes=full_catalog.rid_indexes)
        for plan, catalog, path in (
            (PLAN_FULL_SCAN, full_catalog, AccessPath.SCAN),
            (PLAN_INDEX_PLUS_SCAN, full_catalog, AccessPath.BITMAP),
            (PLAN_INDEX_PLUS_SCAN, rid_only, AccessPath.RID_LIST),
            (PLAN_BITMAP_MERGE, full_catalog, AccessPath.BITMAP),
            (PLAN_RIDLIST_MERGE, full_catalog, AccessPath.RID_LIST),
        ):
            forced = PlanChoice(plan, 0, {plan: 0}, driving_attribute="status")
            result, _ = execute_plan(relation, predicates, catalog, choice=forced)
            # The result is labelled with the path the plan took (for P2,
            # the driving index's), not with a fixed one.
            assert result.access_path is path, plan
            if baseline is None:
                baseline = result.rids
            else:
                assert np.array_equal(result.rids, baseline)

    def test_stats_reflect_plan(self, relation, full_catalog):
        predicates = [parse_predicate("region <= 15")]
        result, choice = execute_plan(relation, predicates, full_catalog)
        if choice.plan == PLAN_BITMAP_MERGE:
            assert result.stats.scans >= 1
        else:
            assert result.stats.bytes_read > 0


class TestBitmapPlansUseTheQueryPipeline:
    """P3/bitmap and P2's driving index run through ``run_query``: the
    merge ANDs are charged and ``QueryOptions.algorithm`` reaches every
    leaf, exactly as for ``conjunctive_select`` (the other P3)."""

    @pytest.fixture
    def setup(self, rng):
        relation = Relation.from_dict(
            "facts",
            {"a": rng.integers(0, 50, 2000), "b": rng.integers(0, 8, 2000)},
        )
        indexes = {
            "a": bitmap_index_for(relation, "a", base=Base((8, 7))),
            "b": bitmap_index_for(relation, "b"),
        }
        predicates = [parse_predicate("a <= 20"), parse_predicate("b > 3")]
        return relation, indexes, predicates

    @pytest.mark.parametrize("algorithm", ["auto", "range_eval"])
    def test_forced_bitmap_merge_counts_like_run_query(self, setup, algorithm):
        relation, indexes, predicates = setup
        expected = ExecutionStats()
        conjunction = And(*(Comparison(p.attribute, p.op, p.value) for p in predicates))
        rids = run_query(relation, conjunction, indexes, expected, algorithm=algorithm)
        forced = PlanChoice(PLAN_BITMAP_MERGE, 0, {PLAN_BITMAP_MERGE: 0})
        result, _ = execute_plan(
            relation,
            predicates,
            Catalog(bitmap_indexes=indexes),
            choice=forced,
            options=QueryOptions(algorithm=algorithm, verify=True),
        )
        assert np.array_equal(result.rids, rids)
        assert result.stats.scans == expected.scans
        assert result.stats.ands == expected.ands
        assert result.stats.ops == expected.ops

    def test_the_two_p3_plans_agree_and_algorithm_matters(self, setup):
        relation, indexes, predicates = setup
        catalog = Catalog(bitmap_indexes=indexes)
        forced = PlanChoice(PLAN_BITMAP_MERGE, 0, {PLAN_BITMAP_MERGE: 0})
        auto, _ = execute_plan(relation, predicates, catalog, choice=forced)
        other_p3 = conjunctive_select(relation, predicates, indexes)
        assert (auto.stats.scans, auto.stats.ands) == (3, 2)
        assert (other_p3.stats.scans, other_p3.stats.ands) == (3, 2)
        plain, _ = execute_plan(
            relation,
            predicates,
            catalog,
            choice=forced,
            options=QueryOptions(algorithm="range_eval", verify=True),
        )
        assert (plain.stats.scans, plain.stats.ands) == (5, 7)

    def test_driving_index_of_p2_honours_algorithm(self, setup):
        relation, indexes, predicates = setup
        forced = PlanChoice(
            PLAN_INDEX_PLUS_SCAN, 0, {PLAN_INDEX_PLUS_SCAN: 0}, driving_attribute="a"
        )
        scans = {}
        for algorithm in ("auto", "range_eval"):
            result, _ = execute_plan(
                relation,
                predicates,
                Catalog(bitmap_indexes={"a": indexes["a"]}),
                choice=forced,
                options=QueryOptions(algorithm=algorithm, verify=True),
            )
            scans[algorithm] = result.stats.scans
        assert scans == {"auto": 2, "range_eval": 3}
