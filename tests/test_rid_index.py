"""Tests for the RID-list baseline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValueOutOfRangeError
from repro.relation.rid_index import RID_BYTES, RIDListIndex

OPERATORS = ("<", "<=", "=", "!=", ">=", ">")


def _naive(values: np.ndarray, op: str, probe) -> np.ndarray:
    ops = {
        "<": values < probe,
        "<=": values <= probe,
        "=": values == probe,
        "!=": values != probe,
        ">=": values >= probe,
        ">": values > probe,
    }
    return np.nonzero(ops[op])[0]


class TestRIDListIndex:
    def test_rids_for_value(self):
        idx = RIDListIndex(np.array([5, 1, 5, 3]))
        assert idx.rids_for_value(5).tolist() == [0, 2]
        assert idx.rids_for_value(9).tolist() == []

    def test_lookup_all_operators(self, rng):
        values = rng.integers(0, 20, 300)
        idx = RIDListIndex(values)
        for op in OPERATORS:
            for probe in (-1, 0, 7, 19, 20):
                got = idx.lookup(op, probe)
                assert np.array_equal(got, _naive(values, op, probe)), (op, probe)

    def test_bytes_accounting(self, rng):
        values = rng.integers(0, 20, 300)
        idx = RIDListIndex(values)
        for op in OPERATORS:
            for probe in (0, 7, 19):
                matched = len(_naive(values, op, probe))
                assert idx.bytes_for(op, probe) == RID_BYTES * matched

    def test_size_bytes(self):
        idx = RIDListIndex(np.arange(100))
        assert idx.size_bytes == 400

    def test_cardinality(self):
        idx = RIDListIndex(np.array([3, 3, 3, 1]))
        assert idx.cardinality == 2
        assert idx.num_rows == 4

    def test_unknown_operator(self):
        idx = RIDListIndex(np.array([1, 2]))
        with pytest.raises(ValueOutOfRangeError):
            idx.lookup("~", 1)

    def test_rejects_2d(self):
        with pytest.raises(ValueOutOfRangeError):
            RIDListIndex(np.zeros((2, 2)))

    def test_float_values(self):
        idx = RIDListIndex(np.array([2.5, 1.5, 2.5]))
        assert idx.lookup("<=", 2.0).tolist() == [1]

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.integers(0, 30), min_size=1, max_size=100),
        op=st.sampled_from(OPERATORS),
        probe=st.integers(-2, 32),
    )
    def test_lookup_matches_naive_property(self, values, op, probe):
        arr = np.array(values)
        idx = RIDListIndex(arr)
        assert np.array_equal(idx.lookup(op, probe), _naive(arr, op, probe))

