"""Tests for the interval-encoding extension (Chan & Ioannidis 1999)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import costmodel
from repro.core.decomposition import Base
from repro.core.encoding import (
    EncodingScheme,
    IntervalEncodedComponent,
    interval_window,
    stored_bitmap_count,
)
from repro.core.evaluation import OPERATORS, Predicate, evaluate, interval_eval
from repro.core.index import BitmapIndex
from repro.errors import InvalidPredicateError
from repro.stats import ExecutionStats
from repro.experiments.disk import SimulatedDisk
from repro.experiments.schemes import open_scheme, write_index

CARDINALITY = 37
BASES = [Base((37,)), Base((7, 6)), Base((4, 3, 4)), Base.binary(37), Base((2, 19))]


def _index(base: Base, seed: int = 5) -> BitmapIndex:
    rng = np.random.default_rng(seed)
    values = rng.integers(0, CARDINALITY, 200)
    return BitmapIndex(values, CARDINALITY, base, EncodingScheme.INTERVAL)


class TestComponent:
    def test_window_length(self):
        assert interval_window(2) == 1
        assert interval_window(3) == 2
        assert interval_window(4) == 2
        assert interval_window(5) == 3
        assert interval_window(10) == 5

    def test_stored_count_is_half_of_range(self):
        for b in range(4, 40):
            assert stored_bitmap_count(b, EncodingScheme.INTERVAL) == (b + 1) // 2
            assert (
                stored_bitmap_count(b, EncodingScheme.INTERVAL)
                <= stored_bitmap_count(b, EncodingScheme.RANGE)
            )

    def test_bitmap_contents_are_windows(self):
        digits = np.array([0, 1, 2, 3, 4, 4, 0, 2])
        comp = IntervalEncodedComponent.build(digits, base=5)
        m = 3
        for j in comp.stored_slots():
            expected = (digits >= j) & (digits <= j + m - 1)
            assert np.array_equal(comp.bitmap(j).to_bools(), expected)

    def test_every_digit_in_at_least_one_window(self):
        digits = np.arange(9)
        comp = IntervalEncodedComponent.build(digits, base=9)
        union = None
        for j in comp.stored_slots():
            b = comp.bitmap(j)
            union = b if union is None else union | b
        assert union.all()


@pytest.mark.parametrize("base", BASES, ids=str)
class TestCorrectness:
    def test_matches_naive_exhaustively(self, base):
        index = _index(base)
        for op in OPERATORS:
            for v in range(-2, CARDINALITY + 2):
                got = evaluate(index, Predicate(op, v))
                assert got == index.naive_eval(op, v), (op, v)

    def test_auto_dispatch(self, base):
        index = _index(base)
        got = evaluate(index, Predicate("<=", 11))
        assert got == index.naive_eval("<=", 11)


class TestScanBounds:
    def test_single_component_needs_at_most_two_scans(self):
        """The 1999 headline: any predicate, <= 2 scans per component."""
        index = _index(Base((37,)))
        for op in OPERATORS:
            for v in range(CARDINALITY):
                stats = ExecutionStats()
                evaluate(index, Predicate(op, v), stats=stats)
                assert stats.scans <= 2, (op, v)

    def test_space_half_time_higher_than_range(self):
        base = Base((37,))
        assert costmodel.space(base, EncodingScheme.INTERVAL) == 19
        assert costmodel.space(base, EncodingScheme.RANGE) == 36
        t_interval = costmodel.time(base, EncodingScheme.INTERVAL)
        t_range = costmodel.time_range(base)
        assert t_range < t_interval <= 2.0

    def test_encoding_mismatch_rejected(self):
        range_index = BitmapIndex(np.arange(10), 10)
        with pytest.raises(InvalidPredicateError):
            interval_eval(range_index, Predicate("=", 1))


class TestSimulatedCostModel:
    def test_simulation_matches_measurement(self):
        base = Base((7, 6))
        index = _index(base)
        total = count = 0
        for op in OPERATORS:
            for v in range(CARDINALITY):
                stats = ExecutionStats()
                evaluate(index, Predicate(op, v), stats=stats)
                total += stats.scans
                count += 1
        simulated = costmodel.expected_scans_simulated(
            base, CARDINALITY, EncodingScheme.INTERVAL
        )
        assert total / count == pytest.approx(simulated)

    def test_simulation_agrees_with_arithmetic_for_range(self):
        base = Base((7, 6))
        assert costmodel.expected_scans_simulated(
            base, CARDINALITY, EncodingScheme.RANGE
        ) == pytest.approx(
            costmodel.expected_scans(base, CARDINALITY, EncodingScheme.RANGE)
        )


class TestStorageIntegration:
    @pytest.mark.parametrize("scheme_name", ["BS", "cCS", "cIS"])
    def test_round_trips_through_storage(self, scheme_name):
        index = _index(Base((7, 6)))
        disk = SimulatedDisk()
        write_index(disk, "idx", index, scheme_name)
        reopened = open_scheme(disk, "idx")
        assert reopened.encoding is EncodingScheme.INTERVAL
        for v in (0, 11, 36):
            got = evaluate(reopened, Predicate("<=", v))
            assert got == index.naive_eval("<=", v)
            reopened.reset_cache()


@settings(max_examples=60, deadline=None)
@given(
    bases=st.lists(st.integers(2, 9), min_size=1, max_size=3),
    op=st.sampled_from(OPERATORS),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_interval_matches_naive_property(bases, op, seed, data):
    base = Base(tuple(bases))
    cardinality = data.draw(st.integers(2, base.capacity))
    v = data.draw(st.integers(-2, cardinality + 1))
    rng = np.random.default_rng(seed)
    values = rng.integers(0, cardinality, 60)
    index = BitmapIndex(values, cardinality, base, EncodingScheme.INTERVAL)
    assert evaluate(index, Predicate(op, v)) == index.naive_eval(op, v)
