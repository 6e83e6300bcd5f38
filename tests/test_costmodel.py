"""Tests for the analytical cost model (Theorem 5.1, Eq. 4/5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import costmodel
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.evaluation import evaluate
from repro.core.index import BitmapIndex
from repro.errors import BufferConfigError, InvalidPredicateError
from repro.stats import ExecutionStats
from repro.workloads.queries import full_query_space

base_strategy = st.lists(st.integers(2, 10), min_size=1, max_size=4).map(
    lambda bs: Base(tuple(sorted(bs)))
)


class TestSpace:
    def test_range_formula(self):
        assert costmodel.space_range(Base((10, 10))) == 18
        assert costmodel.space_range(Base((1000,))) == 999
        assert costmodel.space_range(Base.binary(1000)) == 10

    def test_equality_formula_with_complement_trick(self):
        assert costmodel.space_equality(Base((10, 10))) == 20
        assert costmodel.space_equality(Base((2, 2, 2))) == 3
        assert costmodel.space_equality(Base((3, 2))) == 4

    def test_space_matches_built_index(self, rng):
        values = rng.integers(0, 30, 50)
        for base in (Base((30,)), Base((6, 5)), Base((2, 4, 4))):
            for encoding in EncodingScheme:
                index = BitmapIndex(values, 30, base, encoding)
                assert index.num_bitmaps == costmodel.space(base, encoding)


class TestClosedFormTime:
    def test_eq4_known_values(self):
        # Time(<C>) = 2(1 - 1/C) + (2/3)(1/C - 1).
        assert costmodel.time_range(Base((100,))) == pytest.approx(1.32)
        # Uniform base-10, two components.
        assert costmodel.time_range(Base((10, 10))) == pytest.approx(3.0)

    def test_eq4_decreases_with_larger_component_one(self):
        # Same multiset, larger base on component 1 is faster.
        fast = costmodel.time_range(Base((5, 20)))
        slow = costmodel.time_range(Base((20, 5)))
        assert fast < slow

    def test_equality_time_known_value(self):
        # Single-component equality, C=100: range ops scan
        # E[min(v+1, 99-v)] = 25 on average; equality ops scan 1.
        t = costmodel.time_equality(Base((100,)))
        assert t == pytest.approx((4 / 6) * 25.0 + (2 / 6) * 1.0)

    def test_dispatch(self):
        base = Base((6, 6))
        assert costmodel.time(base, EncodingScheme.RANGE) == costmodel.time_range(base)
        assert costmodel.time(base, EncodingScheme.EQUALITY) == costmodel.time_equality(base)


class TestExactVsClosedForm:
    @pytest.mark.parametrize(
        "base",
        [Base((24,)), Base((6, 4)), Base((2, 3, 4)), Base.binary(24)],
        ids=str,
    )
    def test_close_when_capacity_equals_cardinality(self, base):
        c = base.capacity
        for encoding in EncodingScheme:
            exact = costmodel.expected_scans(base, c, encoding)
            closed = costmodel.time(base, encoding)
            # They differ only through the v -> v-1 shift at the domain
            # edge, which is O(n/C).
            assert abs(exact - closed) <= 2.0 * base.n / c


class TestExactVsInstrumented:
    @pytest.mark.parametrize(
        "base", [Base((20,)), Base((5, 4)), Base((2, 2, 5))], ids=str
    )
    @pytest.mark.parametrize(
        "encoding,algorithm",
        [
            (EncodingScheme.RANGE, "range_eval"),
            (EncodingScheme.RANGE, "range_eval_opt"),
            (EncodingScheme.EQUALITY, "equality_eval"),
            (EncodingScheme.INTERVAL, "interval_eval"),
        ],
    )
    def test_enumeration_equals_measurement(self, base, encoding, algorithm):
        cardinality = 20
        rng = np.random.default_rng(0)
        values = rng.integers(0, cardinality, 64)
        index = BitmapIndex(values, cardinality, base, encoding)
        total = 0
        count = 0
        for predicate in full_query_space(cardinality):
            stats = ExecutionStats()
            evaluate(index, predicate, algorithm=algorithm, stats=stats)
            total += stats.scans
            count += 1
        measured = total / count
        exact = costmodel.expected_scans(base, cardinality, encoding, algorithm)
        assert measured == pytest.approx(exact, abs=1e-12)

    def test_range_eval_cost_is_operator_independent(self):
        # RangeEval's scan count depends only on the constant's digits.
        base = Base((5, 4))
        for v in range(20):
            counts = {
                costmodel.scans_for_predicate(
                    base, 20, op, v, EncodingScheme.RANGE, "range_eval"
                )
                for op in ("<", "<=", "=", "!=", ">=", ">")
            }
            assert len(counts) == 1


class TestExpectedScansValidation:
    def test_algorithm_encoding_mismatch(self):
        with pytest.raises(InvalidPredicateError):
            costmodel.expected_scans(
                Base((4,)), 4, EncodingScheme.EQUALITY, "range_eval_opt"
            )
        with pytest.raises(InvalidPredicateError):
            costmodel.expected_scans(
                Base((4,)), 4, EncodingScheme.RANGE, "equality_eval"
            )

    def test_unknown_algorithm(self):
        with pytest.raises(InvalidPredicateError):
            costmodel.expected_scans(Base((4,)), 4, EncodingScheme.RANGE, "x")

    def test_auto_algorithm(self):
        base = Base((6, 4))
        assert costmodel.expected_scans(
            base, 24, EncodingScheme.RANGE
        ) == costmodel.expected_scans(base, 24, EncodingScheme.RANGE, "range_eval_opt")


class TestBufferedTime:
    def test_no_buffering_matches_eq4(self):
        base = Base((10, 10))
        assert costmodel.time_range_buffered(base, (0, 0)) == pytest.approx(
            costmodel.time_range(base)
        )

    def test_full_buffering_is_free(self):
        base = Base((10, 10))
        assert costmodel.time_range_buffered(base, (9, 9)) == pytest.approx(0.0)

    def test_monotone_in_each_component(self):
        base = Base((10, 10))
        previous = costmodel.time_range(base)
        for f in range(1, 10):
            current = costmodel.time_range_buffered(base, (f, 0))
            assert current < previous
            previous = current

    def test_assignment_length_checked(self):
        with pytest.raises(BufferConfigError):
            costmodel.time_range_buffered(Base((10, 10)), (1,))

    def test_assignment_bounds_checked(self):
        with pytest.raises(BufferConfigError):
            costmodel.time_range_buffered(Base((10, 10)), (10, 0))
        with pytest.raises(BufferConfigError):
            costmodel.time_range_buffered(Base((10, 10)), (-1, 0))


@settings(max_examples=60, deadline=None)
@given(base=base_strategy)
def test_time_positive_and_bounded(base):
    """Eq. 4's value lies in (0, 2n): at most two scans per component."""
    t = costmodel.time_range(base)
    assert 0 < t < 2 * base.n


@settings(max_examples=60, deadline=None)
@given(base=base_strategy, data=st.data())
def test_exact_scans_nonnegative_and_bounded(base, data):
    cardinality = data.draw(st.integers(2, base.capacity))
    for encoding in EncodingScheme:
        value = costmodel.expected_scans(base, cardinality, encoding)
        assert 0 <= value
        if encoding is EncodingScheme.RANGE:
            assert value <= 2 * base.n
