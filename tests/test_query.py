"""Tests for the query layer: predicates, plans, the verifying executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decomposition import Base
from repro.errors import InvalidPredicateError
from repro.query.executor import (
    AccessPath,
    VerificationError,
    bitmap_index_for,
    execute,
)
from repro.query.expression import And, Comparison, run_query, select
from repro.query.options import QueryOptions
from repro.query.plans import (
    plan_p1_cost,
    plan_p2_cost,
    plan_p3_bitmap_cost,
    plan_p3_ridlist_cost,
    ridlist_crossover_selectivity,
)
from repro.query.predicate import AttributePredicate, parse_predicate
from repro.relation.projection import ProjectionIndex
from repro.relation.relation import Relation
from repro.relation.rid_index import RIDListIndex
from repro.stats import ExecutionStats


@pytest.fixture
def relation(rng) -> Relation:
    return Relation.from_dict(
        "sales",
        {
            "quantity": rng.integers(1, 51, 500),
            "price": np.round(rng.uniform(1.0, 100.0, 500), 2),
        },
    )


class TestParsePredicate:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("quantity <= 25", AttributePredicate("quantity", "<=", 25)),
            ("quantity < 25", AttributePredicate("quantity", "<", 25)),
            ("price >= 9.5", AttributePredicate("price", ">=", 9.5)),
            ("name = alice", AttributePredicate("name", "=", "alice")),
            ("x != 0", AttributePredicate("x", "!=", 0)),
        ],
    )
    def test_parses(self, text, expected):
        assert parse_predicate(text) == expected

    def test_longest_operator_wins(self):
        assert parse_predicate("a <= 1").op == "<="

    def test_unparseable(self):
        with pytest.raises(InvalidPredicateError):
            parse_predicate("quantity")
        with pytest.raises(InvalidPredicateError):
            parse_predicate("<= 25")

    def test_invalid_operator_in_constructor(self):
        with pytest.raises(InvalidPredicateError):
            AttributePredicate("a", "==", 1)

    def test_str(self):
        assert str(parse_predicate("a > 2")) == "a > 2"


class TestExecutor:
    @pytest.mark.parametrize(
        "text",
        ["quantity <= 25", "quantity = 13", "quantity > 48",
         "quantity != 1", "quantity < 1", "quantity >= 50",
         "quantity <= 200", "quantity = 0"],
    )
    def test_all_paths_agree(self, relation, text):
        predicate = parse_predicate(text)
        column = relation.column("quantity")
        bitmap = bitmap_index_for(relation, "quantity", base=Base((8, 7)))
        rid = RIDListIndex(column.values)
        projection = ProjectionIndex(column.codes, column.cardinality)
        results = [
            execute(relation, predicate, AccessPath.SCAN),
            execute(relation, predicate, AccessPath.BITMAP, bitmap),
            execute(relation, predicate, AccessPath.RID_LIST, rid),
            execute(relation, predicate, AccessPath.PROJECTION, projection),
        ]
        counts = {r.count for r in results}
        assert len(counts) == 1
        for r in results[1:]:
            assert np.array_equal(r.rids, results[0].rids)

    def test_float_column_through_bitmap(self, relation):
        predicate = parse_predicate("price <= 50.0")
        bitmap = bitmap_index_for(relation, "price")
        result = execute(relation, predicate, AccessPath.BITMAP, bitmap)
        assert result.count == len(relation.scan("price", "<=", 50.0))

    def test_missing_index_rejected(self, relation):
        with pytest.raises(InvalidPredicateError):
            execute(relation, parse_predicate("quantity = 1"), AccessPath.BITMAP)

    def test_wrong_index_type_rejected(self, relation):
        bitmap = bitmap_index_for(relation, "quantity")
        with pytest.raises(InvalidPredicateError):
            execute(
                relation, parse_predicate("quantity = 1"),
                AccessPath.RID_LIST, bitmap,
            )

    def test_verification_catches_wrong_index(self, relation):
        """An index built on the wrong column fails verification."""
        wrong = bitmap_index_for(relation, "price")
        with pytest.raises(VerificationError):
            execute(
                relation, parse_predicate("quantity <= 10"),
                AccessPath.BITMAP, wrong,
            )

    def test_stats_populated(self, relation):
        bitmap = bitmap_index_for(relation, "quantity")
        result = execute(
            relation, parse_predicate("quantity <= 10"), AccessPath.BITMAP, bitmap
        )
        assert result.stats.scans >= 1

    def test_scan_bytes_accounting(self, relation):
        result = execute(relation, parse_predicate("quantity <= 10"))
        assert result.stats.bytes_read == relation.num_rows * relation.row_bytes


class TestConjunctiveSelect:
    """Plan P3 over bitmaps: one index scan per predicate, AND-merged."""

    def test_two_predicates(self, relation):
        indexes = {
            "quantity": bitmap_index_for(relation, "quantity"),
            "price": bitmap_index_for(relation, "price"),
        }
        rids = select(relation, "quantity <= 25 and price <= 50.0", indexes)
        mask = (relation.column("quantity").values <= 25) & (
            relation.column("price").values <= 50.0
        )
        assert np.array_equal(rids, np.nonzero(mask)[0])

    def test_single_predicate(self, relation):
        indexes = {"quantity": bitmap_index_for(relation, "quantity")}
        rids = select(relation, "quantity = 7", indexes)
        assert np.array_equal(rids, relation.scan("quantity", "=", 7))

    def test_empty_predicates_rejected(self, relation):
        with pytest.raises(InvalidPredicateError):
            select(relation, "", {})

    def test_missing_index_rejected(self, relation):
        with pytest.raises(InvalidPredicateError):
            select(relation, "quantity = 7", {})

    def test_merge_is_charged_and_algorithm_reaches_every_leaf(self, rng):
        relation = Relation.from_dict(
            "facts", {"a": rng.integers(0, 50, 2000), "b": rng.integers(0, 8, 2000)}
        )
        indexes = {
            "a": bitmap_index_for(relation, "a", base=Base((8, 7))),
            "b": bitmap_index_for(relation, "b"),
        }
        charged = {}
        for algorithm in ("auto", "range_eval"):
            stats = ExecutionStats()
            options = QueryOptions(algorithm=algorithm, verify=True)
            select(relation, "a <= 20 and b > 3", indexes, stats, options=options)
            charged[algorithm] = (stats.scans, stats.ands)
        assert charged == {"auto": (3, 2), "range_eval": (5, 7)}

    def test_parsed_select_counts_like_a_built_conjunction(self, rng):
        relation = Relation.from_dict(
            "facts", {"a": rng.integers(0, 50, 2000), "b": rng.integers(0, 8, 2000)}
        )
        indexes = {
            "a": bitmap_index_for(relation, "a", base=Base((8, 7))),
            "b": bitmap_index_for(relation, "b"),
        }
        conjunction = And(Comparison("a", "<=", 20), Comparison("b", ">", 3))
        for algorithm in ("auto", "range_eval"):
            expected = ExecutionStats()
            rids = run_query(relation, conjunction, indexes, expected, algorithm=algorithm)
            stats = ExecutionStats()
            options = QueryOptions(algorithm=algorithm, verify=True)
            selected = select(relation, "a <= 20 and b > 3", indexes, stats, options=options)
            assert np.array_equal(selected, rids)
            assert (stats.scans, stats.ands, stats.ops) == (
                expected.scans,
                expected.ands,
                expected.ops,
            )


class TestPlanCosts:
    def test_p1(self, relation):
        cost = plan_p1_cost(relation)
        assert cost.bytes_read == relation.num_rows * relation.row_bytes

    def test_p2(self, relation):
        cost = plan_p2_cost(relation, index_bytes=1000, qualifying_rows=50)
        assert cost.bytes_read == 1000 + 50 * relation.row_bytes

    def test_p3_bitmap(self):
        cost = plan_p3_bitmap_cost(num_rows=800, bitmaps_scanned_per_predicate=1)
        assert cost.bytes_read == 2 * 100

    def test_p3_ridlist(self, rng):
        values = rng.integers(0, 10, 100)
        idx = RIDListIndex(values)
        cost = plan_p3_ridlist_cost([idx, idx], [("=", 3), ("<=", 5)])
        expected = idx.bytes_for("=", 3) + idx.bytes_for("<=", 5)
        assert cost.bytes_read == expected

    def test_p3_ridlist_arity_checked(self, rng):
        idx = RIDListIndex(rng.integers(0, 10, 10))
        with pytest.raises(ValueError):
            plan_p3_ridlist_cost([idx], [("=", 3), ("=", 4)])

    def test_crossover_is_one_thirty_second(self):
        assert ridlist_crossover_selectivity() == pytest.approx(1 / 32)
        assert ridlist_crossover_selectivity(2) == pytest.approx(1 / 16)

    def test_plan_cost_str(self, relation):
        assert "P1" in str(plan_p1_cost(relation))
