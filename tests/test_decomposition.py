"""Tests for attribute value decomposition (mixed-radix bases)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import Base, integer_nth_root_ceil, product
from repro.errors import InvalidBaseError, ValueOutOfRangeError

base_strategy = st.lists(st.integers(2, 12), min_size=1, max_size=5).map(
    lambda bs: Base(tuple(bs))
)


class TestConstruction:
    def test_paper_notation_order(self):
        # Base <3, 3>: component 1 (least significant) is the last entry.
        base = Base((5, 3))
        assert base.component(1) == 3
        assert base.component(2) == 5

    def test_rejects_empty(self):
        with pytest.raises(InvalidBaseError):
            Base(())

    def test_rejects_base_numbers_below_two(self):
        with pytest.raises(InvalidBaseError):
            Base((3, 1))
        with pytest.raises(InvalidBaseError):
            Base((0,))

    def test_single(self):
        base = Base.single(9)
        assert base.n == 1
        assert base.capacity == 9

    def test_single_rejects_tiny_cardinality(self):
        with pytest.raises(InvalidBaseError):
            Base.single(1)

    def test_uniform_uses_minimal_components(self):
        assert Base.uniform(10, 100).n == 2
        assert Base.uniform(10, 101).n == 3
        assert Base.uniform(2, 8).n == 3
        assert Base.uniform(2, 9).n == 4

    def test_uniform_validation(self):
        with pytest.raises(InvalidBaseError):
            Base.uniform(1, 100)
        with pytest.raises(InvalidBaseError):
            Base.uniform(2, 1)

    def test_binary(self):
        base = Base.binary(100)
        assert base.is_uniform()
        assert base.component(1) == 2
        assert base.n == 7  # 2^7 = 128 >= 100

    def test_component_bounds_checked(self):
        base = Base((3, 3))
        with pytest.raises(IndexError):
            base.component(0)
        with pytest.raises(IndexError):
            base.component(3)

    def test_equality_and_hash(self):
        assert Base((3, 3)) == Base((3, 3))
        assert Base((3, 3)) == (3, 3)
        assert Base((3, 3)) != Base((3, 4))
        assert hash(Base((3, 3))) == hash(Base((3, 3)))
        assert len({Base((3, 3)), Base((3, 3)), Base((9,))}) == 2

    def test_iteration_and_len(self):
        base = Base((4, 3, 2))
        assert list(base) == [4, 3, 2]
        assert len(base) == 3

    def test_repr_uses_paper_notation(self):
        assert repr(Base((3, 3))) == "Base(<3, 3>)"

    def test_covers(self):
        assert Base((3, 3)).covers(9)
        assert not Base((3, 3)).covers(10)


class TestDigits:
    def test_paper_example(self):
        # Figure 3: value 8 in base <3,3> is digits <2, 2>.
        base = Base((3, 3))
        assert base.digits(8) == (2, 2)
        assert base.digits(5) == (2, 1)  # 5 = 1*3 + 2
        assert base.digits(0) == (0, 0)

    def test_compose_inverts_digits(self):
        base = Base((4, 3, 5))
        for v in range(base.capacity):
            assert base.compose(base.digits(v)) == v

    def test_digits_out_of_range(self):
        base = Base((3, 3))
        with pytest.raises(ValueOutOfRangeError):
            base.digits(9)
        with pytest.raises(ValueOutOfRangeError):
            base.digits(-1)

    def test_compose_validates_digit_count(self):
        with pytest.raises(ValueOutOfRangeError):
            Base((3, 3)).compose((1,))

    def test_compose_validates_digit_range(self):
        with pytest.raises(ValueOutOfRangeError):
            Base((3, 3)).compose((3, 0))

    def test_digit_arrays_matches_scalar(self, rng):
        base = Base((7, 2, 5))
        values = rng.integers(0, base.capacity, 200)
        arrays = base.digit_arrays(values)
        for row, v in enumerate(values):
            expected = base.digits(int(v))
            for i in range(base.n):
                assert arrays[i][row] == expected[i]

    @pytest.mark.parametrize("b", [2, 3, 255, 256, 257, 1000])
    def test_digit_arrays_matches_scalar_at_every_digit_width(self, rng, b):
        # b sits at each position; its digits are stored in the smallest
        # unsigned dtype holding b - 1 (the uint8 / uint16 edge included).
        for base in (Base((b,)), Base((b, 3)), Base((2, b, 5))):
            edges = [0, b - 1, min(b, base.capacity - 1), base.capacity - 1]
            values = np.append(rng.integers(0, base.capacity, 300), edges)
            arrays = base.digit_arrays(values)
            assert [a.dtype for a in arrays] == [
                np.min_scalar_type(x - 1) for x in reversed(base.bases)
            ]
            scalar = [base.digits(int(v)) for v in values]
            assert [tuple(int(a[row]) for a in arrays) for row in range(len(values))] == scalar
            for bad in (-1, base.capacity):
                with pytest.raises(ValueOutOfRangeError):
                    base.digit_arrays(np.append(values, bad))

    def test_digit_arrays_validates_range(self):
        base = Base((3, 3))
        with pytest.raises(ValueOutOfRangeError):
            base.digit_arrays(np.array([9]))

    def test_digit_arrays_empty(self):
        base = Base((3, 3))
        arrays = base.digit_arrays(np.array([], dtype=np.int64))
        assert len(arrays) == 2
        assert len(arrays[0]) == 0


@settings(max_examples=100, deadline=None)
@given(base=base_strategy, data=st.data())
def test_round_trip_property(base, data):
    value = data.draw(st.integers(0, base.capacity - 1))
    digits = base.digits(value)
    assert len(digits) == base.n
    for i, d in enumerate(digits):
        assert 0 <= d < base.component(i + 1)
    assert base.compose(digits) == value


@settings(max_examples=50, deadline=None)
@given(base=base_strategy)
def test_capacity_is_product(base):
    assert base.capacity == product(base.bases)


class TestNthRoot:
    @pytest.mark.parametrize(
        "value,n,expected",
        [
            (1000, 2, 32),
            (1000, 3, 10),
            (1024, 10, 2),
            (1025, 10, 3),
            (2, 1, 2),
            (1, 5, 1),
            (10**12, 2, 10**6),
        ],
    )
    def test_known_values(self, value, n, expected):
        assert integer_nth_root_ceil(value, n) == expected

    @settings(max_examples=100, deadline=None)
    @given(value=st.integers(2, 10**9), n=st.integers(1, 20))
    def test_definition(self, value, n):
        b = integer_nth_root_ceil(value, n)
        assert b**n >= value
        assert (b - 1) ** n < value
