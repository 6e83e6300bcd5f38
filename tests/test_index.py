"""Tests for the BitmapIndex object."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import costmodel
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.index import BitmapIndex, BitmapSource
from repro.errors import InvalidBaseError, ValueOutOfRangeError
from repro.query.executor import bitmap_index_for
from repro.relation.relation import Relation
from repro.stats import ExecutionStats

from conftest import make_index


class TestConstruction:
    def test_defaults_to_single_component(self, paper_values):
        index = BitmapIndex(paper_values, cardinality=9)
        assert index.base == Base((9,))
        assert index.num_bitmaps == 8  # range-encoded: C - 1

    def test_paper_figure_3_shape(self, paper_index):
        # Base-<3,3> decomposition reduces 9 bitmaps to 4 stored (range).
        assert paper_index.num_bitmaps == 4
        assert len(paper_index.components) == 2

    def test_value_list_index_shape(self, paper_values):
        # Figure 1: single-component equality-encoded = 9 bitmaps.
        index = BitmapIndex(
            paper_values, 9, encoding=EncodingScheme.EQUALITY
        )
        assert index.num_bitmaps == 9

    def test_space_matches_theorem_for_many_bases(self, rng):
        values = rng.integers(0, 60, 100)
        for base in (Base((60,)), Base((8, 8)), Base((4, 4, 4)), Base.binary(60)):
            for encoding in EncodingScheme:
                index = BitmapIndex(values, 60, base, encoding)
                assert index.num_bitmaps == costmodel.space(base, encoding)
                assert index.num_bitmaps == index.expected_bitmaps()

    def test_base_must_cover_cardinality(self, paper_values):
        with pytest.raises(InvalidBaseError):
            BitmapIndex(paper_values, cardinality=9, base=Base((2, 4)))

    def test_values_must_be_in_range(self):
        with pytest.raises(ValueOutOfRangeError):
            BitmapIndex(np.array([0, 9]), cardinality=9)
        with pytest.raises(ValueOutOfRangeError):
            BitmapIndex(np.array([-1, 0]), cardinality=9)

    def test_rejects_2d_values(self):
        with pytest.raises(ValueOutOfRangeError):
            BitmapIndex(np.zeros((2, 2), dtype=int), cardinality=4)

    def test_rejects_tiny_cardinality(self):
        with pytest.raises(InvalidBaseError):
            BitmapIndex(np.array([0]), cardinality=1)

    def test_size_in_bits(self, paper_index):
        assert paper_index.size_in_bits == 4 * 10

    def test_repr(self, paper_index):
        text = repr(paper_index)
        assert "N=10" in text and "C=9" in text

    def test_implements_bitmap_source_protocol(self, paper_index):
        assert isinstance(paper_index, BitmapSource)


class TestFetch:
    def test_fetch_records_scan_and_bytes(self, paper_index):
        stats = ExecutionStats()
        bitmap = paper_index.fetch(1, 0, stats)
        assert stats.scans == 1
        assert stats.bytes_read == bitmap.nbytes

    def test_fetch_contents(self, paper_values, paper_index):
        stats = ExecutionStats()
        # Component 1 slot 0 of base <3,3>: digit_1 <= 0.
        bitmap = paper_index.fetch(1, 0, stats)
        expected = (paper_values % 3) == 0
        assert np.array_equal(bitmap.to_bools(), expected)

    def test_stored_slots(self, paper_index):
        assert paper_index.stored_slots(1) == (0, 1)
        assert paper_index.stored_slots(2) == (0, 1)


class TestBitMatrix:
    def test_shape(self, paper_index):
        matrix = paper_index.bit_matrix()
        assert matrix.shape == (10, 4)

    def test_columns_match_bitmaps(self, paper_index):
        matrix = paper_index.bit_matrix()
        stats = ExecutionStats()
        assert np.array_equal(matrix[:, 0], paper_index.fetch(1, 0, stats).to_bools())
        assert np.array_equal(matrix[:, 3], paper_index.fetch(2, 1, stats).to_bools())


class TestNulls:
    def test_nonnull_bitmap(self):
        values = np.array([3, 1, 4, 1, 5])
        nulls = np.array([False, True, False, False, True])
        index = BitmapIndex(values, 9, nulls=nulls)
        assert index.nonnull is not None
        assert index.nonnull.indices().tolist() == [0, 2, 3]

    def test_naive_eval_excludes_nulls(self):
        values = np.array([3, 1, 4, 1, 5])
        nulls = np.array([False, True, False, False, True])
        index = BitmapIndex(values, 9, nulls=nulls)
        result = index.naive_eval("<=", 4)
        assert result.indices().tolist() == [0, 2, 3]

    def test_null_mask_shape_checked(self):
        with pytest.raises(ValueOutOfRangeError):
            BitmapIndex(np.array([1, 2]), 4, nulls=np.array([True]))


class TestForColumn:
    """An index for a column of arbitrary values: built over the column's
    ranks (:func:`bitmap_index_for`), with the lookup table on the column."""

    @staticmethod
    def _column_and_index(values):
        relation = Relation.from_dict("r", {"a": np.asarray(values)})
        return relation.column("a"), bitmap_index_for(relation, "a")

    def test_string_column(self):
        column, index = self._column_and_index(["cherry", "apple", "banana", "apple"])
        assert index.cardinality == 3
        assert list(column.dictionary) == ["apple", "banana", "cherry"]
        # "apple" has rank 0: equality on rank 0 matches rows 1 and 3.
        assert index.naive_eval("=", 0).indices().tolist() == [1, 3]

    def test_float_column_preserves_order(self):
        column, index = self._column_and_index([2.5, 0.1, 9.75, 0.1])
        assert index.cardinality == 3
        assert column.code_of(2.5) == 1

    def test_requires_two_distinct_values(self):
        with pytest.raises(InvalidBaseError):
            self._column_and_index([7, 7, 7])

    def test_rank_of_absent_value(self):
        column, _ = self._column_and_index([10, 20, 30])
        # The first dictionary value >= 15 has rank 1.
        assert column.code_bounds(">=", 15) == (">=", 1)
        assert column.code_bounds("<", 15) == ("<", 1)


class TestNaiveEval:
    def test_all_operators(self, paper_values, paper_index):
        for op, expected in [
            ("<", paper_values < 2),
            ("<=", paper_values <= 2),
            ("=", paper_values == 2),
            ("!=", paper_values != 2),
            (">=", paper_values >= 2),
            (">", paper_values > 2),
        ]:
            assert np.array_equal(
                paper_index.naive_eval(op, 2).to_bools(), expected
            )

    def test_unknown_operator(self, paper_index):
        with pytest.raises(ValueOutOfRangeError):
            paper_index.naive_eval("~", 2)

    def test_unavailable_without_values(self):
        index = make_index()
        index._values = None
        with pytest.raises(RuntimeError):
            index.naive_eval("=", 0)

    def test_keep_values_false(self, paper_values):
        index = BitmapIndex(paper_values, 9, keep_values=False)
        with pytest.raises(RuntimeError):
            index.naive_eval("=", 0)
