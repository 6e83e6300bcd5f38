"""Tests for the query layer: predicates, plans, the engine-free door."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decomposition import Base
from repro.engine.engine import IndexSpec, QueryEngine
from repro.errors import EngineConfigError, InvalidPredicateError, VerificationError
from repro.query.executor import bitmap_index_for, execute
from repro.query.expression import And, Comparison, parse_expression, run_query
from repro.query.options import QueryOptions
from repro.query.plans import (
    plan_p1_cost,
    plan_p2_cost,
    plan_p3_bitmap_cost,
    plan_p3_ridlist_cost,
    ridlist_crossover_selectivity,
)
from repro.query.predicate import AttributePredicate
from repro.relation.relation import Relation
from repro.relation.rid_index import RIDListIndex
from repro.stats import ExecutionStats

from conftest import backend_engines


def sales(rng: np.random.Generator) -> Relation:
    return Relation.from_dict(
        "sales",
        {
            "quantity": rng.integers(1, 51, 500),
            "price": np.round(rng.uniform(1.0, 100.0, 500), 2),
        },
    )


@pytest.fixture
def relation(rng) -> Relation:
    return sales(rng)


class TestParsePredicate:
    """A predicate's text parses to the one-leaf expression tree."""

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
        assert parse_expression(text) == expected

    def test_longest_operator_wins(self):
        assert parse_expression("a <= 1").op == "<="

    def test_unparseable(self):
        with pytest.raises(InvalidPredicateError):
            parse_expression("quantity")
        with pytest.raises(InvalidPredicateError):
            parse_expression("<= 25")

    def test_invalid_operator_in_constructor(self):
        with pytest.raises(InvalidPredicateError):
            AttributePredicate("a", "==", 1)

    def test_str(self):
        assert str(parse_expression("a > 2")) == "a > 2"


class TestExecutor:
    @pytest.mark.parametrize(
        "text",
        ["quantity <= 25", "quantity = 13", "quantity > 48",
         "quantity != 1", "quantity < 1", "quantity >= 50",
         "quantity <= 200", "quantity = 0"],
    )
    def test_all_paths_agree(self, relation, text):
        """The bitmap door, the RID-list baseline and a scan agree."""
        predicate = parse_expression(text)
        column = relation.column("quantity")
        bitmap = bitmap_index_for(relation, "quantity", base=Base((8, 7)))
        unverified = QueryOptions(verify=False)
        answers = [
            execute(relation, predicate, {"quantity": bitmap}, options=unverified).rids,
            RIDListIndex(column.values).lookup(predicate.op, predicate.value),
            relation.scan(predicate.attribute, predicate.op, predicate.value),
        ]
        for rids in answers[1:]:
            assert np.array_equal(rids, answers[0])

    def test_float_column_through_bitmap(self, relation):
        bitmap = bitmap_index_for(relation, "price")
        result = execute(relation, "price <= 50.0", {"price": bitmap})
        assert result.count == len(relation.scan("price", "<=", 50.0))

    def test_missing_index_rejected(self, relation):
        with pytest.raises(InvalidPredicateError):
            execute(relation, "quantity = 1", {})

    def test_verification_catches_wrong_index(self, relation):
        """An index built on the wrong column fails verification."""
        wrong = bitmap_index_for(relation, "price")
        with pytest.raises(VerificationError):
            execute(relation, "quantity <= 10", {"quantity": wrong})

    def test_stats_populated(self, relation):
        bitmap = bitmap_index_for(relation, "quantity")
        result = execute(relation, "quantity <= 10", {"quantity": bitmap})
        assert result.stats.scans >= 1
        assert result.trace is None

    def test_scan_bytes_accounting(self, relation):
        """Every bitmap scan charges its N/8 bytes, as plan P3 prices it."""
        bitmap = bitmap_index_for(relation, "quantity", base=Base((8, 7)))
        stats = execute(relation, "quantity <= 10", {"quantity": bitmap}).stats
        priced = plan_p3_bitmap_cost(relation.num_rows, stats.scans, num_predicates=1)
        assert stats.bytes_read == priced.bytes_read > 0


class TestMixedCodecs:
    """Sources in two codecs are one typed error at both doors, under
    every connective: no algebra ``TypeError``, no answer."""

    @pytest.fixture
    def relation(self, rng) -> Relation:
        return Relation.from_dict(
            "r", {"a": rng.integers(0, 8, 100), "b": rng.integers(0, 3, 100)}
        )

    @pytest.mark.parametrize(
        "text",
        [
            "a <= 3 and b = 1",
            "a <= 3 or b = 1",
            "a <= 3 xor b = 1",
            "not (a <= 3 and b = 1)",
            "atleast(1, a <= 3, b = 1)",
        ],
    )
    def test_both_doors_refuse(self, relation, text):
        indexes = {
            "a": bitmap_index_for(relation, "a").with_codec("wah"),
            "b": bitmap_index_for(relation, "b"),
        }
        with pytest.raises(EngineConfigError, match="mixes bitmap codecs"):
            execute(relation, text, indexes)
        engine = QueryEngine()
        engine.register(relation, overrides={"a": IndexSpec(codec="wah"), "b": IndexSpec()})
        with pytest.raises(EngineConfigError, match="mixes bitmap codecs"):
            engine.query(text)


class TestConjunctiveSelect:
    """Plan P3 over bitmaps: one index scan per predicate, AND-merged."""

    def test_two_predicates(self, relation):
        indexes = {
            "quantity": bitmap_index_for(relation, "quantity"),
            "price": bitmap_index_for(relation, "price"),
        }
        rids = execute(relation, "quantity <= 25 and price <= 50.0", indexes).rids
        mask = (relation.column("quantity").values <= 25) & (
            relation.column("price").values <= 50.0
        )
        assert np.array_equal(rids, np.nonzero(mask)[0])

    def test_single_predicate(self, relation):
        indexes = {"quantity": bitmap_index_for(relation, "quantity")}
        rids = execute(relation, "quantity = 7", indexes).rids
        assert np.array_equal(rids, relation.scan("quantity", "=", 7))

    def test_empty_predicates_rejected(self, relation):
        with pytest.raises(InvalidPredicateError):
            execute(relation, "", {})

    def test_missing_index_rejected(self, relation):
        with pytest.raises(InvalidPredicateError):
            execute(relation, "quantity = 7 and price <= 50.0", {})

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
            options = QueryOptions(algorithm=algorithm, verify=True)
            stats = execute(relation, "a <= 20 and b > 3", indexes, options=options).stats
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
            options = QueryOptions(algorithm=algorithm, verify=True)
            result = execute(relation, "a <= 20 and b > 3", indexes, options=options)
            assert np.array_equal(result.rids, rids)
            stats = result.stats
            assert (stats.scans, stats.ands, stats.ops) == (
                expected.scans,
                expected.ands,
                expected.ops,
            )


class TestReRegistration:
    """Registering a name again serves the new relation, never the old index."""

    @pytest.mark.parametrize("codec", ["dense", "wah", "roaring"])
    @pytest.mark.parametrize("backend", ["inline", "threads", "processes"])
    def test_reregistered_relation_answers_from_its_own_columns(self, backend, codec):
        first = Relation.from_dict("r", {"x": np.array([0, 1, 2, 3, 0, 1, 2, 3])})
        with backend_engines(first, (backend,), codec=codec, max_workers=2) as (engine,):
            assert engine.query("x <= 1").rids.tolist() == [0, 1, 4, 5]
            before = dict(engine._dispatch.exports)
            assert bool(before) == (backend == "processes")
            engine.register(Relation.from_dict("r", {"x": np.array([3, 3, 3, 3, 0, 0, 0, 0])}))
            assert engine.query("x <= 1").rids.tolist() == [4, 5, 6, 7]
            assert engine.count("x <= 1").count == 4
            # The shard exports are cut again, from the new record's index.
            entries = engine.registration("r").entries
            for key, export in engine._dispatch.exports.items():
                assert export is not before.get(key)
                assert export.serves(entries[key[1]].source)


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
