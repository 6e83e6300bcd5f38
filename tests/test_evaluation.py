"""Tests for the three evaluation algorithms.

The central property: for every base, encoding, operator, and constant —
including out-of-range constants — each algorithm returns exactly the
rows a naive scan returns, and its physical scan count equals the
scan rule in :mod:`repro.core.costmodel`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import costmodel
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.evaluation import (
    OPERATORS,
    Predicate,
    equality_eval,
    evaluate,
    range_eval,
    range_eval_opt,
)
from repro.core.index import BitmapIndex
from repro.errors import InvalidPredicateError
from repro.stats import ExecutionStats

from conftest import make_index

CARDINALITY = 36
BASES = [
    Base((36,)),
    Base((6, 6)),
    Base((4, 3, 3)),
    Base((2, 2, 3, 3)),
    Base.binary(36),
    Base((5, 8)),  # capacity 40 > C: non-tight coverage
]
ALGORITHMS = {
    "range_eval": EncodingScheme.RANGE,
    "range_eval_opt": EncodingScheme.RANGE,
    "equality_eval": EncodingScheme.EQUALITY,
}


def _index_for(base: Base, encoding: EncodingScheme, seed: int = 3) -> BitmapIndex:
    rng = np.random.default_rng(seed)
    values = rng.integers(0, CARDINALITY, 250)
    return BitmapIndex(values, CARDINALITY, base, encoding)


class TestPredicate:
    def test_valid_operators(self):
        for op in OPERATORS:
            Predicate(op, 3)

    def test_invalid_operator(self):
        with pytest.raises(InvalidPredicateError):
            Predicate("==", 3)

    def test_is_range(self):
        assert Predicate("<", 1).is_range
        assert not Predicate("=", 1).is_range

    def test_matches(self):
        values = np.array([1, 5, 3])
        assert Predicate(">", 2).matches(values).tolist() == [False, True, True]

    def test_str(self):
        assert str(Predicate("<=", 7)) == "A <= 7"


@pytest.mark.parametrize("base", BASES, ids=str)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
class TestCorrectnessExhaustive:
    def test_all_operators_and_values(self, base, algorithm):
        index = _index_for(base, ALGORITHMS[algorithm])
        for op in OPERATORS:
            for v in range(-2, CARDINALITY + 2):
                got = evaluate(index, Predicate(op, v), algorithm=algorithm)
                assert got == index.naive_eval(op, v), (op, v)

    def test_scan_counts_match_cost_model(self, base, algorithm):
        index = _index_for(base, ALGORITHMS[algorithm])
        for op in OPERATORS:
            for v in range(-2, CARDINALITY + 2):
                stats = ExecutionStats()
                evaluate(index, Predicate(op, v), algorithm=algorithm, stats=stats)
                expected = costmodel.scans_for_predicate(
                    base, CARDINALITY, op, v, ALGORITHMS[algorithm], algorithm
                )
                assert stats.scans == expected, (op, v)


class TestNulls:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_nulls_masked_out(self, algorithm):
        index = make_index(
            cardinality=20,
            base=Base((5, 4)),
            encoding=ALGORITHMS[algorithm],
            nulls=True,
            seed=9,
        )
        for op in OPERATORS:
            for v in (-1, 0, 7, 19, 20):
                got = evaluate(index, Predicate(op, v), algorithm=algorithm)
                assert got == index.naive_eval(op, v), (op, v)

    def test_not_equal_excludes_nulls(self):
        values = np.array([1, 2, 3, 2])
        nulls = np.array([False, True, False, False])
        index = BitmapIndex(values, 4, nulls=nulls)
        got = evaluate(index, Predicate("!=", 2))
        assert got.indices().tolist() == [0, 2]


class TestAlgorithmEquivalence:
    def test_both_range_algorithms_agree(self):
        index = _index_for(Base((4, 3, 3)), EncodingScheme.RANGE)
        for op in OPERATORS:
            for v in range(CARDINALITY):
                a = range_eval(index, Predicate(op, v))
                b = range_eval_opt(index, Predicate(op, v))
                assert a == b, (op, v)

    def test_opt_never_scans_more(self):
        index = _index_for(Base((4, 3, 3)), EncodingScheme.RANGE)
        for op in OPERATORS:
            for v in range(CARDINALITY):
                s_old, s_new = ExecutionStats(), ExecutionStats()
                range_eval(index, Predicate(op, v), s_old)
                range_eval_opt(index, Predicate(op, v), s_new)
                assert s_new.scans <= s_old.scans, (op, v)
                assert s_new.ops <= s_old.ops, (op, v)

    def test_opt_saves_one_scan_on_worst_case_range_predicate(self):
        base = Base((10, 10))
        rng = np.random.default_rng(3)
        index = BitmapIndex(rng.integers(0, 100, 250), 100, base)
        v = base.compose((5, 5))
        s_old, s_new = ExecutionStats(), ExecutionStats()
        range_eval(index, Predicate("<=", v), s_old)
        range_eval_opt(index, Predicate("<=", v), s_new)
        assert s_old.scans == 4  # 2n
        assert s_new.scans == 3  # 2n - 1


class TestDispatch:
    def test_auto_picks_by_encoding(self):
        range_index = _index_for(Base((6, 6)), EncodingScheme.RANGE)
        eq_index = _index_for(Base((6, 6)), EncodingScheme.EQUALITY)
        assert evaluate(range_index, Predicate("=", 3)) == range_index.naive_eval("=", 3)
        assert evaluate(eq_index, Predicate("=", 3)) == eq_index.naive_eval("=", 3)

    def test_unknown_algorithm(self):
        index = _index_for(Base((6, 6)), EncodingScheme.RANGE)
        with pytest.raises(InvalidPredicateError):
            evaluate(index, Predicate("=", 3), algorithm="magic")

    def test_encoding_mismatch_rejected(self):
        range_index = _index_for(Base((6, 6)), EncodingScheme.RANGE)
        eq_index = _index_for(Base((6, 6)), EncodingScheme.EQUALITY)
        with pytest.raises(InvalidPredicateError):
            equality_eval(range_index, Predicate("=", 3))
        with pytest.raises(InvalidPredicateError):
            range_eval_opt(eq_index, Predicate("=", 3))
        with pytest.raises(InvalidPredicateError):
            range_eval(eq_index, Predicate("=", 3))


#: ``scans ands ors xors nots`` of ``A op v`` for v = -1 .. 12 on a
#: base-<3,4> index (C = 12) that tracks NULLs, per encoding and operator,
#: as charged before the three evaluators shared one Figure 6 reduction.
PINNED_COUNTS = {
    "equality": {
        "<": "00000 00000 22000 32100 22001 12000 32100 42200 32101 22100 22101 32201 22102 00000",
        "<=": "00000 22000 32100 22001 12000 32100 42200 32101 22100 22101 32201 22102 00000 00000",
        "=": "00000 22000 22000 22000 22000 22000 22000 22000 22000 22000 22000 22000 22000 00000",
        "!=": "00000 22001 22001 22001 22001 22001 22001 22001 22001 22001 22001 22001 22001 00000",
        ">=": "00000 00000 22001 32101 22002 12001 32101 42201 32102 22101 22102 32202 22103 00000",
        ">": "00000 22001 32101 22002 12001 32101 42201 32102 22101 22102 32202 22103 00000 00000",
    },
    "range": {
        "<": "00000 00000 22000 22000 22000 12000 32100 32100 32100 22100 21100 21100 21100 00000",
        "<=": "00000 22000 22000 22000 12000 32100 32100 32100 22100 21100 21100 21100 00000 00000",
        "=": "00000 22000 32010 32010 22001 32010 42020 42020 32011 22001 32011 32011 22002 00000",
        "!=": "00000 22001 32011 32011 22002 32011 42021 42021 32012 22002 32012 32012 22003 00000",
        ">=": "00000 00000 22001 22001 22001 12001 32101 32101 32101 22101 21101 21101 21101 00000",
        ">": "00000 22001 22001 22001 12001 32101 32101 32101 22101 21101 21101 21101 00000 00000",
    },
    "interval": {
        "<": "00000 00000 44002 33001 43101 23001 45102 34101 44201 24101 44102 33101 43201 00000",
        "<=": "00000 44002 33001 43101 23001 45102 34101 44201 24101 44102 33101 43201 00000 00000",
        "=": "00000 44002 44001 44002 43102 44001 44000 44001 43101 44002 44001 44002 43102 00000",
        "!=": "00000 44003 44002 44003 43103 44002 44001 44002 43102 44003 44002 44003 43103 00000",
        ">=": "00000 00000 44003 33002 43102 23002 45103 34102 44202 24102 44103 33102 43202 00000",
        ">": "00000 44003 33002 43102 23002 45103 34102 44202 24102 44103 33102 43202 00000 00000",
    },
}  # fmt: skip


class TestPinnedCounts:
    @pytest.mark.parametrize("encoding", list(EncodingScheme), ids=lambda e: e.value)
    def test_every_operator_charges_what_it_always_has(self, encoding):
        nulls = np.zeros(60, dtype=bool)
        nulls[[2, 7]] = True
        values = np.random.default_rng(3).integers(0, 12, 60)
        index = BitmapIndex(values, 12, Base((3, 4)), encoding, nulls=nulls)
        for op in OPERATORS:
            pinned = PINNED_COUNTS[encoding.value][op].split()
            for v, expected in zip(range(-1, 13), pinned, strict=True):
                stats = ExecutionStats()
                got = evaluate(index, Predicate(op, v), stats=stats)
                assert got == index.naive_eval(op, v), (op, v)
                charged = (stats.scans, stats.ands, stats.ors, stats.xors, stats.nots)
                assert "".join(map(str, charged)) == expected, (op, v)


class TestTrivialConstants:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_no_scans_for_out_of_range_constants(self, algorithm):
        index = _index_for(Base((6, 6)), ALGORITHMS[algorithm])
        for op in OPERATORS:
            for v in (-100, -1, CARDINALITY, CARDINALITY + 100):
                stats = ExecutionStats()
                evaluate(index, Predicate(op, v), algorithm=algorithm, stats=stats)
                assert stats.scans == 0, (op, v)

    def test_boundary_constants_trivial_for_le(self):
        index = _index_for(Base((6, 6)), EncodingScheme.RANGE)
        stats = ExecutionStats()
        # A <= C-1 is everything; A < 0 is nothing: no scans either way.
        range_eval_opt(index, Predicate("<=", CARDINALITY - 1), stats)
        range_eval_opt(index, Predicate("<", 0), stats)
        range_eval_opt(index, Predicate(">=", 0), stats)
        range_eval_opt(index, Predicate(">", CARDINALITY - 1), stats)
        assert stats.scans == 0


@settings(max_examples=60, deadline=None)
@given(
    bases=st.lists(st.integers(2, 9), min_size=1, max_size=4),
    op=st.sampled_from(OPERATORS),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_random_index_matches_naive(bases, op, seed, data):
    """Property: any base, any encoding, any predicate — matches the scan."""
    base = Base(tuple(bases))
    cardinality = data.draw(st.integers(2, base.capacity))
    v = data.draw(st.integers(-2, cardinality + 1))
    rng = np.random.default_rng(seed)
    values = rng.integers(0, cardinality, 80)
    for encoding, algorithm in (
        (EncodingScheme.RANGE, "range_eval"),
        (EncodingScheme.RANGE, "range_eval_opt"),
        (EncodingScheme.EQUALITY, "equality_eval"),
    ):
        index = BitmapIndex(values, cardinality, base, encoding)
        got = evaluate(index, Predicate(op, v), algorithm=algorithm)
        assert got == index.naive_eval(op, v)
