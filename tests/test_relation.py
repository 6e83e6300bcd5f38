"""Tests for the column-store substrate (columns, relations)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import rank_values
from repro.errors import ValueOutOfRangeError
from repro.relation.column import Column
from repro.relation.relation import Relation


class TestColumn:
    def test_dictionary_and_codes(self):
        col = Column("c", np.array([30, 10, 20, 10]))
        assert col.dictionary.tolist() == [10, 20, 30]
        assert col.codes.tolist() == [2, 0, 1, 0]
        assert col.cardinality == 3
        assert col.num_rows == 4

    def test_code_of(self):
        col = Column("c", np.array([30, 10, 20]))
        assert col.code_of(20) == 1
        assert col.code_of(15) is None

    def test_code_bounds_equality_absent_value(self):
        col = Column("c", np.array([30, 10, 20]))
        op, code = col.code_bounds("=", 15)
        assert op == "="
        assert code == col.cardinality  # out of range -> empty result

    def test_code_bounds_range_translation(self):
        col = Column("c", np.array([10, 20, 30]))
        # values < 25  <=>  codes < 2
        assert col.code_bounds("<", 25) == ("<", 2)
        # values <= 20  <=>  codes <= 1
        assert col.code_bounds("<=", 20) == ("<=", 1)
        # values <= 25  <=>  codes <= 1 as well (25 absent)
        assert col.code_bounds("<=", 25) == ("<=", 1)
        # values >= 20  <=>  codes >= 1
        assert col.code_bounds(">=", 20) == (">=", 1)
        # values > 20  <=>  codes > 1
        assert col.code_bounds(">", 20) == (">", 1)

    def test_code_bounds_unknown_op(self):
        col = Column("c", np.array([1, 2]))
        with pytest.raises(ValueOutOfRangeError):
            col.code_bounds("~", 1)

    def test_value_size_default_and_override(self):
        col = Column("c", np.array([1, 2], dtype=np.int64))
        assert col.value_size_bytes == 8
        assert Column("c", np.array([1, 2]), value_size_bytes=4).value_size_bytes == 4

    def test_rejects_2d(self):
        with pytest.raises(ValueOutOfRangeError):
            Column("c", np.zeros((2, 2)))

    def test_repr(self):
        assert "cardinality=2" in repr(Column("c", np.array([1, 2])))

    def test_values_are_a_read_only_view(self):
        """Writing through the column raises instead of silently
        desynchronizing it from the indexes built over it."""
        source = np.arange(4)
        col = Column("c", source)
        assert np.shares_memory(col.values, source) and source.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            col.values[0] = 3

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.integers(-50, 50), min_size=1, max_size=60),
        op=st.sampled_from(["<", "<=", "=", "!=", ">=", ">"]),
        probe=st.integers(-55, 55),
    )
    def test_code_bounds_equivalence_property(self, values, op, probe):
        """Predicates translated to codes select exactly the same rows."""
        arr = np.array(values)
        col = Column("c", arr)
        code_op, code = col.code_bounds(op, probe)
        ops = {
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            "=": lambda a, b: a == b,
            "!=": lambda a, b: a != b,
            ">=": lambda a, b: a >= b,
            ">": lambda a, b: a > b,
        }
        expected = ops[op](arr, probe)
        translated = ops[code_op](col.codes, code)
        assert np.array_equal(expected, translated)


INT_DTYPES = [np.dtype(kind + size) for kind in "iu" for size in "1248"]


@st.composite
def integer_columns(draw):
    """An integer column of any dtype whose span is exactly the drawn one,
    anchored at the dtype's lowest value, around zero or at its highest."""
    info = np.iinfo(draw(st.sampled_from(INT_DTYPES)))
    rows = draw(st.sampled_from([1, 2, 50, 40_000]))
    span = draw(
        # Either side of max(65536, 2 * rows) at 50 and at 40,000 rows.
        st.sampled_from([1, 2, 200, 65_535, 65_536, 65_537, 80_000, 80_001, 2**40])
    )
    span = min(span, info.max - info.min + 1) if rows > 1 else 1
    low = draw(
        st.sampled_from([info.min, max(info.min, -(span // 2)), info.max - span + 1])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    offsets = rng.integers(0, draw(st.sampled_from([1, min(7, span), span])), rows)
    offsets[0], offsets[-1] = 0, span - 1
    return (offsets.astype(object) + low).astype(info.dtype)


other_columns = st.one_of(
    st.sampled_from(INT_DTYPES + [np.dtype(float), np.dtype(bool), np.dtype("U3")]).map(
        lambda dtype: np.empty(0, dtype)
    ),
    st.lists(st.booleans(), max_size=20).map(lambda v: np.array(v, dtype=bool)),
    st.lists(st.floats(allow_nan=True, width=32), max_size=20).map(np.array),
    st.lists(st.text("abc", max_size=3), min_size=1, max_size=20).map(np.array),
)


class TestRankValues:
    @settings(max_examples=150, deadline=None)
    @given(values=st.one_of(integer_columns(), other_columns))
    def test_equals_numpy_unique_in_values_and_dtypes(self, values):
        want = np.unique(values, return_inverse=True)
        got = rank_values(values)
        for ours, theirs in zip(got, want, strict=True):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert np.array_equal(ours, theirs, equal_nan=values.dtype.kind == "f")

    def test_sorts_only_past_the_span_rule(self, monkeypatch):
        sorts = []
        unique = np.unique
        monkeypatch.setattr(
            np, "unique", lambda *args, **kw: sorts.append(1) or unique(*args, **kw)
        )
        for rows, span, sorted_ in [
            (10, 65_536, False),
            (10, 65_537, True),
            (40_000, 80_000, False),
            (40_000, 80_001, True),
        ]:
            values = np.full(rows, -5, dtype=np.int32)
            values[-1] += span - 1
            del sorts[:]
            dictionary, codes = rank_values(values)
            assert bool(sorts) == sorted_
            assert dictionary.tolist() == [-5, span - 6] and codes[-1] == 1


class TestRelation:
    def test_from_dict(self):
        rel = Relation.from_dict(
            "r", {"a": np.array([1, 2, 3]), "b": np.array([4.0, 5.0, 6.0])}
        )
        assert rel.num_rows == 3
        assert set(rel.columns) == {"a", "b"}

    def test_row_bytes(self):
        rel = Relation.from_dict(
            "r",
            {"a": np.array([1, 2], dtype=np.int32), "b": np.array([1.0, 2.0])},
        )
        assert rel.row_bytes == 4 + 8

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueOutOfRangeError):
            Relation.from_dict(
                "r", {"a": np.array([1]), "b": np.array([1, 2])}
            )

    def test_needs_columns(self):
        with pytest.raises(ValueOutOfRangeError):
            Relation("r", [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueOutOfRangeError):
            Relation("r", [Column("a", np.array([1])), Column("a", np.array([2]))])

    def test_unknown_column(self):
        rel = Relation.from_dict("r", {"a": np.array([1])})
        with pytest.raises(KeyError):
            rel.column("b")

    def test_scan_operators(self):
        rel = Relation.from_dict("r", {"a": np.array([5, 1, 3, 5])})
        assert rel.scan("a", "=", 5).tolist() == [0, 3]
        assert rel.scan("a", "<", 4).tolist() == [1, 2]
        assert rel.scan("a", "!=", 5).tolist() == [1, 2]
        assert rel.scan("a", ">=", 3).tolist() == [0, 2, 3]

    def test_scan_unknown_operator(self):
        rel = Relation.from_dict("r", {"a": np.array([1])})
        with pytest.raises(ValueOutOfRangeError):
            rel.scan("a", "~", 1)

    def test_repr(self):
        rel = Relation.from_dict("r", {"a": np.array([1])})
        assert "rows=1" in repr(rel)
