"""Tests for the boolean expression layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import Base
from repro.core.index import BitmapIndex
from repro.engine.sharding import (
    ShardExport,
    _AttachedShard,
    merge_shard_rids,
    shard_bounds,
    translate_expression,
)
from repro.errors import InvalidPredicateError, VerificationError
from repro.query.executor import bitmap_index_for, execute
from repro.query.expression import (
    And,
    Between,
    Comparison,
    In,
    Not,
    Or,
    parse_expression,
)
from repro.query.options import QueryOptions
from repro.relation.relation import Relation
from repro.storage import IndexStore

from conftest import backend_engines, kleene


@pytest.fixture
def relation(rng) -> Relation:
    return Relation.from_dict(
        "t",
        {
            "a": rng.integers(0, 30, 1000),
            "b": rng.integers(0, 8, 1000),
        },
    )


@pytest.fixture
def indexes(relation):
    return {
        "a": bitmap_index_for(relation, "a", base=Base((6, 5))),
        "b": bitmap_index_for(relation, "b"),
    }


class TestParser:
    def test_simple_comparison(self):
        expr = parse_expression("a <= 5")
        assert expr == Comparison("a", "<=", 5)

    def test_precedence_and_binds_tighter_than_or(self):
        expr = parse_expression("a = 1 or a = 2 and b = 3")
        assert isinstance(expr, Or)
        assert isinstance(expr.right, And)

    def test_parentheses_override(self):
        expr = parse_expression("(a = 1 or a = 2) and b = 3")
        assert isinstance(expr, And)
        assert isinstance(expr.left, Or)

    def test_not(self):
        expr = parse_expression("not a = 1")
        assert expr == Not(Comparison("a", "=", 1))

    def test_double_not(self):
        expr = parse_expression("not not a = 1")
        assert expr == Not(Not(Comparison("a", "=", 1)))

    def test_in_list(self):
        expr = parse_expression("a in (1, 2, 3)")
        assert expr == In("a", (1, 2, 3))

    def test_between(self):
        expr = parse_expression("a between 3 and 9")
        assert expr == Between("a", 3, 9)

    def test_between_inside_conjunction(self):
        expr = parse_expression("a between 3 and 9 and b = 1")
        assert isinstance(expr, And)
        assert expr.left == Between("a", 3, 9)

    def test_float_and_string_values(self):
        assert parse_expression("x >= 2.5") == Comparison("x", ">=", 2.5)
        assert parse_expression("name = alice") == Comparison(
            "name", "=", "alice"
        )

    def test_case_insensitive_keywords(self):
        expr = parse_expression("a = 1 AND NOT b = 2")
        assert isinstance(expr, And)
        assert isinstance(expr.right, Not)

    @pytest.mark.parametrize(
        "bad",
        ["", "a <", "a = 1 or", "(a = 1", "a = 1)", "a in ()", "a in (1",
         "a between 1", "and a = 1", "a ~ 1", "a = 1 b = 2"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(InvalidPredicateError):
            parse_expression(bad)

    def test_str_round_trips_semantics(self, relation, indexes):
        expr = parse_expression("a <= 5 and (b = 1 or b = 2)")
        again = parse_expression(str(expr))
        assert np.array_equal(again.mask(relation), expr.mask(relation))


class TestParserCorners:
    """Error paths and precedence corners of the recursive-descent parser."""

    @pytest.mark.parametrize(
        "bad",
        [
            "((a = 1)",            # unbalanced open
            "(a = 1))",            # unbalanced close (trailing input)
            "(a = 1 or (b = 2)",   # nested, one close short
            "a = 1 and (b = 2 or", # dangling connective inside parens
            "()",                  # empty group
        ],
    )
    def test_unbalanced_parens_rejected(self, bad):
        with pytest.raises(InvalidPredicateError):
            parse_expression(bad)

    def test_not_binds_tighter_than_and(self):
        expr = parse_expression("not a = 1 and b = 2")
        # (not (a=1)) and (b=2), NOT not(a=1 and b=2)
        assert isinstance(expr, And)
        assert isinstance(expr.left, Not)
        assert isinstance(expr.left.inner, Comparison)
        assert isinstance(expr.right, Comparison)

    def test_not_of_group_spans_whole_disjunction(self):
        expr = parse_expression("not (a = 1 or b = 2)")
        assert isinstance(expr, Not)
        assert isinstance(expr.inner, Or)

    def test_not_chain_parses_inward(self):
        expr = parse_expression("not not not a = 1")
        assert isinstance(expr, Not)
        assert isinstance(expr.inner, Not)
        assert isinstance(expr.inner.inner, Not)
        assert isinstance(expr.inner.inner.inner, Comparison)

    def test_between_binds_its_own_and(self):
        # The "and" inside BETWEEN must not be parsed as a conjunction.
        expr = parse_expression("a between 1 and 5 and b = 2")
        assert isinstance(expr, And)
        assert isinstance(expr.left, Between)
        assert expr.left.low == 1 and expr.left.high == 5
        assert isinstance(expr.right, Comparison)

    def test_between_inside_not_and_or(self, relation, indexes):
        expr = parse_expression("not a between 5 and 25 or b = 3")
        assert isinstance(expr, Or)
        assert isinstance(expr.left, Not)
        assert isinstance(expr.left.inner, Between)
        a = relation.column("a").values
        b = relation.column("b").values
        truth = ~((a >= 5) & (a <= 25)) | (b == 3)
        assert np.array_equal(expr.mask(relation), truth)

    def test_in_nested_in_parenthesized_disjunction(self, relation, indexes):
        expr = parse_expression("(b in (1, 2) or b in (5)) and a < 10")
        assert isinstance(expr, And)
        rids = execute(relation, expr, indexes, options=QueryOptions(verify=False)).rids
        truth = np.nonzero(expr.mask(relation))[0]
        assert np.array_equal(rids, truth)

    @pytest.mark.parametrize(
        "bad",
        [
            "a between 1 and",       # missing upper bound
            "a between and 5",       # missing lower bound
            "a between 1 or 5",      # wrong connective
            "a in 1, 2",             # IN without parens
            "a in (1 2)",            # missing comma
            "a in (1,,2)",           # double comma
            "not",                   # bare NOT
            "not and a = 1",         # NOT of a connective
        ],
    )
    def test_between_in_malformed_rejected(self, bad):
        with pytest.raises(InvalidPredicateError):
            parse_expression(bad)

    def test_unknown_attribute_surfaces_on_evaluation(self, relation, indexes):
        # Parsing is catalog-free; the unknown name fails at evaluation,
        # naming the relation's real columns.
        expr = parse_expression("nonexistent = 1")
        with pytest.raises(KeyError, match="has no column 'nonexistent'"):
            expr.mask(relation)
        with pytest.raises(KeyError, match="columns: a, b"):
            expr.bitmap(relation, indexes)

    def test_unknown_attribute_in_one_branch(self, relation, indexes):
        expr = parse_expression("a <= 5 and typo_column = 1")
        with pytest.raises(KeyError, match="typo_column"):
            execute(relation, expr, indexes, options=QueryOptions(verify=False))


class TestEvaluation:
    @pytest.mark.parametrize(
        "text",
        [
            "a <= 12",
            "a <= 12 and b = 3",
            "a = 1 or a = 7 or a = 29",
            "not a <= 12",
            "a in (0, 5, 29)",
            "a between 10 and 20",
            "(a <= 5 or a >= 25) and not b in (0, 1)",
            "a between 10 and 20 and (b = 2 or not b <= 5)",
            "a > 29",
            "a != 15 and b != 0",
        ],
    )
    def test_matches_ground_truth(self, relation, indexes, text):
        rids = execute(relation, text, indexes).rids
        expr = parse_expression(text)
        truth = np.nonzero(expr.mask(relation))[0]
        assert np.array_equal(rids, truth)

    def test_stats_counted(self, relation, indexes):
        stats = execute(relation, "a <= 12 and b = 3", indexes).stats
        assert stats.scans >= 2
        assert stats.ands >= 1

    def test_python_combinators(self, relation, indexes):
        expr = (Comparison("a", "<=", 12) & Comparison("b", "=", 3)) | ~Comparison(
            "a", ">", 5
        )
        rids = execute(relation, expr, indexes).rids
        truth = np.nonzero(expr.mask(relation))[0]
        assert np.array_equal(rids, truth)

    def test_attributes_collected(self):
        expr = parse_expression("a <= 1 and (b = 2 or c = 3)")
        assert expr.attributes() == {"a", "b", "c"}

    def test_missing_index_rejected(self, relation, indexes):
        with pytest.raises(InvalidPredicateError):
            execute(relation, "a = 1", {})

    def test_in_empty_rejected(self):
        with pytest.raises(InvalidPredicateError):
            In("a", ())

    def test_verification_catches_wrong_index(self, relation, indexes):
        wrong = {"a": indexes["b"], "b": indexes["b"]}
        with pytest.raises((VerificationError, Exception)):
            execute(relation, "a <= 12", wrong)

    def test_values_absent_from_domain(self, relation, indexes):
        rids = execute(relation, "a between 28 and 99", indexes).rids
        truth = np.nonzero(relation.column("a").values >= 28)[0]
        assert np.array_equal(rids, truth)


_leaf = st.sampled_from([
    ("a", op, v)
    for op in ("<", "<=", "=", "!=", ">=", ">")
    for v in (-1, 0, 7, 15, 29, 30)
] + [
    ("b", op, v)
    for op in ("<=", "=", ">")
    for v in (0, 3, 7)
])


def _expr_strategy():
    leaves = _leaf.map(lambda t: Comparison(*t))
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda p: And(*p)),
            st.tuples(children, children).map(lambda p: Or(*p)),
            children.map(Not),
        ),
        max_leaves=8,
    )


@settings(max_examples=60, deadline=None)
@given(expr=_expr_strategy())
def test_random_expressions_match_ground_truth(expr):
    rng = np.random.default_rng(42)
    relation = Relation.from_dict(
        "t", {"a": rng.integers(0, 30, 300), "b": rng.integers(0, 8, 300)}
    )
    indexes = {
        "a": bitmap_index_for(relation, "a", base=Base((6, 5))),
        "b": bitmap_index_for(relation, "b"),
    }
    rids = execute(relation, expr, indexes, options=QueryOptions(verify=False)).rids
    truth = np.nonzero(expr.mask(relation))[0]
    assert np.array_equal(rids, truth)


# ----------------------------------------------------------------------
# NOT over NULLs: a NULL satisfies no predicate, negated or not
# ----------------------------------------------------------------------

CODECS = ("dense", "wah", "roaring")

#: ``not`` trees beside their hand-written De Morgan duals.
NOT_DUALS = [
    ("not (a > 4 and b != 1)", "a <= 4 or b = 1"),
    ("not (a <= 4 or b = 1)", "a > 4 and b != 1"),
    ("not a in (1, 2, 3)", "a != 1 and a != 2 and a != 3"),
    ("not a between 2 and 5", "a < 2 or a > 5"),
    (
        "not atleast(2, a <= 4, b = 1, a = 9)",
        "atleast(2, a > 4, b != 1, a != 9)",
    ),
    ("not not a <= 4", "a <= 4"),
]


def nullable_relation():
    """``t(a, b)`` with NULLs in both attributes: the relation, its known-row
    masks, and NULL-tracking indexes over it."""
    rng = np.random.default_rng(5)
    relation = Relation.from_dict(
        "t", {"a": rng.integers(0, 10, 400), "b": rng.integers(0, 4, 400)}
    )
    known = {"a": rng.random(400) >= 0.15, "b": rng.random(400) >= 0.15}
    indexes = {
        name: BitmapIndex(
            relation.column(name).codes,
            relation.column(name).cardinality,
            nulls=~known[name],
        )
        for name in known
    }
    return relation, known, indexes


class TestNotOverNulls:
    @pytest.fixture
    def nullable(self):
        return nullable_relation()

    @staticmethod
    def rids(text, relation, indexes, codec):
        sources = {name: index.with_codec(codec) for name, index in indexes.items()}
        # The scan knows no NULLs, so the verifying default would object.
        return execute(relation, text, sources, options=QueryOptions()).rids.tolist()

    def test_the_rows_a_leaf_masked_out_stay_out(self):
        nulls = np.zeros(10, dtype=bool)
        nulls[[2, 7]] = True
        relation = Relation.from_dict("t", {"a": np.arange(10)})
        indexes = {"a": BitmapIndex(np.arange(10), 10, nulls=nulls)}
        for codec in CODECS:
            assert self.rids("a > 4", relation, indexes, codec) == [5, 6, 8, 9]
            assert self.rids("not a <= 4", relation, indexes, codec) == [5, 6, 8, 9]
            assert self.rids("not a = 3", relation, indexes, codec) == self.rids(
                "a != 3", relation, indexes, codec
            )

    @pytest.mark.parametrize("codec", CODECS)
    def test_not_of_a_comparison_is_the_complementary_operator(self, nullable, codec):
        relation, _, indexes = nullable
        pairs = {"<": ">=", "<=": ">", "=": "!=", "!=": "=", ">=": "<", ">": "<="}
        for attribute, value in (("a", 4), ("a", 0), ("a", 11), ("b", 1)):
            for op, complement in pairs.items():
                assert self.rids(
                    f"not {attribute} {op} {value}", relation, indexes, codec
                ) == self.rids(
                    f"{attribute} {complement} {value}", relation, indexes, codec
                ), (attribute, op, value)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("text,dual", NOT_DUALS)
    def test_not_equals_its_dual_and_the_oracle(self, nullable, codec, text, dual):
        relation, known, indexes = nullable
        true, _ = kleene(parse_expression(text), relation, known)
        answer = self.rids(text, relation, indexes, codec)
        assert answer == np.nonzero(true)[0].tolist()
        assert answer == self.rids(dual, relation, indexes, codec)

    def test_xor_of_two_nullable_attributes_follows_kleene_logic(self, nullable):
        relation, known, indexes = nullable
        text = "a <= 4 xor b = 1"
        true, _ = kleene(parse_expression(text), relation, known)
        assert self.rids(text, relation, indexes, "dense") == np.nonzero(true)[0].tolist()

    def test_not_charges_what_its_dual_charges(self, nullable):
        relation, _, indexes = nullable
        for text, dual in NOT_DUALS[:2]:
            charged = []
            for query in (text, dual):
                stats = execute(relation, query, indexes, options=QueryOptions()).stats
                charged.append(stats.as_dict())
            assert charged[0] == charged[1]

    def test_without_nulls_not_is_one_counted_complement(self, relation, indexes):
        stats = execute(relation, "not a <= 12", indexes).stats
        inner = execute(relation, "a <= 12", indexes).stats
        assert stats.nots == inner.nots + 1
        assert (stats.scans, stats.ands) == (inner.scans, inner.ands)

    @pytest.mark.parametrize("codec", CODECS)
    def test_translated_not_over_the_shards_of_a_nullable_index(self, nullable, codec):
        relation, known, indexes = nullable
        bounds = shard_bounds(relation.num_rows, 3)
        exports = {name: ShardExport(index, bounds, codec) for name, index in indexes.items()}
        shards = [
            {name: _AttachedShard(export.manifests[shard]) for name, export in exports.items()}
            for shard in range(3)
        ]
        try:
            for text, _ in NOT_DUALS:
                expr = parse_expression(text)
                translated = translate_expression(expr, relation)
                rid_lists = [translated.bitmap(None, sources).indices() for sources in shards]
                true, _ = kleene(expr, relation, known)
                assert np.array_equal(
                    merge_shard_rids(rid_lists, [start for start, _ in bounds]),
                    np.nonzero(true)[0],
                ), text
        finally:
            for sources in shards:
                for shard in sources.values():
                    shard.release()
            for export in exports.values():
                export.close()


class TestXorOverNullsOnEveryBackend:
    """``xor`` and its ``not`` follow Kleene logic on every backend and codec,
    over in-memory NULL-tracking indexes and over a store whose append put
    a NULL in each attribute."""

    TEXTS = ("a <= 4 xor b = 1", "not (a <= 4 xor b = 1)")

    @classmethod
    def check(cls, engine, relation, known):
        truths = [
            np.nonzero(kleene(parse_expression(text), relation, known)[0])[0]
            for text in cls.TEXTS
        ]
        for result, truth in zip(engine.query_batch(list(cls.TEXTS)), truths):
            assert np.array_equal(result.rids, truth)
        for text, truth in zip(cls.TEXTS, truths):
            assert engine.count(text).count == len(truth), text

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("backend", ("inline", "threads", "processes"))
    def test_in_memory(self, backend, codec):
        relation, known, indexes = nullable_relation()
        with backend_engines(relation, (backend,), codec=codec, max_workers=2) as (engine,):
            record = engine.registration("t")
            for name, index in indexes.items():
                record.entry(name, lambda: engine._serve(record, name, index))
            self.check(engine, relation, known)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("backend", ("inline", "threads", "processes"))
    def test_store_backed(self, tmp_path, backend, codec):
        relation, _, _ = nullable_relation()
        tail = {"a": np.array([2, 7, 1, 4]), "b": np.array([1, 1, 0, 3])}
        nulls = {
            "a": np.array([True, False, False, True]),
            "b": np.array([False, True, False, True]),
        }
        with IndexStore(str(tmp_path)) as store:
            store.build(relation, codec=codec)
            store.append("t", tail, nulls=nulls)
        grown = {name: np.append(relation.column(name).values, tail[name]) for name in tail}
        known = {name: np.append(np.ones(relation.num_rows, bool), ~nulls[name]) for name in tail}
        with backend_engines(
            backends=(backend,), storage=IndexStore(str(tmp_path)), max_workers=2
        ) as (engine,):
            self.check(engine, Relation.from_dict("t", grown), known)
