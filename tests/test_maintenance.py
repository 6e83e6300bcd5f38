"""Tests for the index-maintenance extension (append / update / delete).

Each operation returns ``(successor, touched)`` and leaves the index it
was called on as it was."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.evaluation import OPERATORS, Predicate, evaluate
from repro.core.index import BitmapIndex
from repro.engine import IndexSpec, QueryEngine
from repro.errors import EngineConfigError, ValueOutOfRangeError, VerificationError
from repro.query.options import QueryOptions
from repro.relation.relation import Relation
from repro.storage import IndexStore

CARDINALITY = 24
BASES = [Base((24,)), Base((6, 4)), Base((2, 3, 4)), Base.binary(24)]
ENCODINGS = list(EncodingScheme)


def _fresh(base: Base, encoding: EncodingScheme, seed: int = 8) -> BitmapIndex:
    rng = np.random.default_rng(seed)
    return BitmapIndex(rng.integers(0, CARDINALITY, 80), CARDINALITY, base, encoding)


def _assert_consistent(index: BitmapIndex) -> None:
    """Every operator/constant still matches the maintained ground truth."""
    for op in OPERATORS:
        for v in range(0, CARDINALITY, 5):
            assert evaluate(index, Predicate(op, v)) == index.naive_eval(op, v), (
                op,
                v,
            )


@pytest.mark.parametrize("base", BASES, ids=str)
@pytest.mark.parametrize("encoding", ENCODINGS)
class TestAppend:
    def test_append_then_query(self, base, encoding):
        index = _fresh(base, encoding)
        extra = np.random.default_rng(1).integers(0, CARDINALITY, 30)
        index, _ = index.append(extra)
        assert index.nbits == 110
        assert all(c.nbits == 110 for c in index.components)
        _assert_consistent(index)

    def test_append_with_nulls(self, base, encoding):
        index = _fresh(base, encoding)
        extra = np.array([0, 5, 23])
        index, _ = index.append(extra, nulls=np.array([False, True, False]))
        assert index.nonnull is not None
        assert not index.nonnull.get(81)  # the appended null row
        assert index.nonnull.get(80)
        _assert_consistent(index)


class TestAppendValidation:
    def test_out_of_range_values(self):
        index = _fresh(Base((6, 4)), EncodingScheme.RANGE)
        with pytest.raises(ValueOutOfRangeError):
            index.append(np.array([CARDINALITY]))

    def test_mismatched_null_mask(self):
        index = _fresh(Base((6, 4)), EncodingScheme.RANGE)
        with pytest.raises(ValueOutOfRangeError):
            index.append(np.array([1, 2]), nulls=np.array([True]))

    def test_empty_append_is_noop(self):
        index, _ = _fresh(Base((6, 4)), EncodingScheme.RANGE).append(np.array([], dtype=np.int64))
        assert index.nbits == 80
        _assert_consistent(index)


@pytest.mark.parametrize("base", BASES, ids=str)
@pytest.mark.parametrize("encoding", ENCODINGS)
class TestUpdate:
    def test_update_then_query(self, base, encoding):
        index = _fresh(base, encoding)
        for rid, value in ((0, 23), (79, 0), (40, 11)):
            index, _ = index.update(rid, value)
        _assert_consistent(index)

    def test_self_update_touches_nothing(self, base, encoding):
        index = _fresh(base, encoding)
        old = int(index._values[7])
        assert index.update(7, old)[1] == 0


class TestUpdateCosts:
    def test_value_list_touches_two_bitmaps(self):
        """Equality encoding: clear the old value bitmap, set the new one."""
        index = _fresh(Base((24,)), EncodingScheme.EQUALITY)
        old = int(index._values[3])
        new = (old + 10) % CARDINALITY
        assert index.update(3, new)[1] == 2

    def test_range_encoded_touches_digit_distance(self):
        """Range encoding flips every bitmap between old and new digit."""
        index = _fresh(Base((24,)), EncodingScheme.RANGE)
        index, _ = index.update(3, 0)
        _, touched = index.update(3, 23)
        assert touched == 23  # bitmaps 0..22 all flip

    def test_validation(self):
        index = _fresh(Base((6, 4)), EncodingScheme.RANGE)
        with pytest.raises(ValueOutOfRangeError):
            index.update(80, 0)
        with pytest.raises(ValueOutOfRangeError):
            index.update(0, CARDINALITY)


@pytest.mark.parametrize("encoding", ENCODINGS)
class TestDelete:
    def test_delete_hides_row(self, encoding):
        index = _fresh(Base((6, 4)), encoding)
        value = int(index._values[10])
        before = evaluate(index, Predicate("=", value)).count()
        index, _ = index.delete(10)
        after = evaluate(index, Predicate("=", value)).count()
        assert after == before - 1
        _assert_consistent(index)

    def test_delete_then_update_revives(self, encoding):
        index, _ = _fresh(Base((6, 4)), encoding).delete(10)
        index, _ = index.update(10, 5)
        assert index.nonnull.get(10)
        assert evaluate(index, Predicate("=", 5)).get(10)
        _assert_consistent(index)

    def test_double_delete_touches_nothing_more(self, encoding):
        index, first = _fresh(Base((6, 4)), encoding).delete(10)
        _, second = index.delete(10)
        assert first >= 1
        assert second == 0

    def test_rid_validation(self, encoding):
        index = _fresh(Base((6, 4)), encoding)
        with pytest.raises(ValueOutOfRangeError):
            index.delete(-1)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["append", "update", "delete"]),
            st.integers(0, 10_000),
        ),
        min_size=1,
        max_size=12,
    ),
    encoding=st.sampled_from(ENCODINGS),
)
def test_random_maintenance_sequences(ops, encoding):
    """Property: any interleaving of maintenance ops keeps queries exact."""
    rng = np.random.default_rng(0)
    index = BitmapIndex(
        rng.integers(0, CARDINALITY, 40), CARDINALITY, Base((6, 4)), encoding
    )
    for kind, seed in ops:
        op_rng = np.random.default_rng(seed)
        if kind == "append":
            index, _ = index.append(op_rng.integers(0, CARDINALITY, 5))
        elif kind == "update":
            rid = int(op_rng.integers(0, index.nbits))
            index, _ = index.update(rid, int(op_rng.integers(0, CARDINALITY)))
        else:
            index, _ = index.delete(int(op_rng.integers(0, index.nbits)))
    for op in ("<=", "=", "!="):
        for v in (0, 7, CARDINALITY - 1):
            assert evaluate(index, Predicate(op, v)) == index.naive_eval(op, v)


@pytest.mark.parametrize("encoding", ENCODINGS)
class TestCopyOnWrite:
    """An edit returns a successor and never writes a bitmap it shares."""

    @staticmethod
    def bitmaps(index: BitmapIndex) -> dict:
        return {
            (i, slot): component.bitmap(slot)
            for i, component in enumerate(index.components, 1)
            for slot in component.stored_slots()
        }

    def test_the_predecessor_answers_as_before(self, encoding):
        index = _fresh(Base((6, 4)), encoding)
        before = {(op, v): index.naive_eval(op, v) for op in OPERATORS for v in (0, 9, 23)}
        successor, _ = index.update(0, (int(index._values[0]) + 9) % CARDINALITY)
        successor, _ = successor.delete(10)
        successor, _ = successor.append(np.array([3, 4]), nulls=np.array([True, False]))
        assert index.nbits == 80 and index.nonnull is None
        for (op, v), truth in before.items():
            assert evaluate(index, Predicate(op, v)) == truth
            assert index.naive_eval(op, v) == truth
        _assert_consistent(successor)

    def test_an_update_copies_exactly_the_bitmaps_it_touches(self, encoding):
        index = _fresh(Base((6, 4)), encoding)
        old = self.bitmaps(index)
        successor, touched = index.update(0, (int(index._values[0]) + 7) % CARDINALITY)
        new = self.bitmaps(successor)
        assert touched > 0
        assert sum(new[key] is not old[key] for key in old) == touched
        for key in old:
            assert (new[key] is old[key]) == (new[key] == old[key])

    def test_a_built_bitmap_refuses_an_in_place_write(self, encoding):
        index, _ = _fresh(Base((6, 4)), encoding).delete(3)
        successor, _ = index.update(0, 5)
        for built in (index, successor):
            for bitmap in [*self.bitmaps(built).values(), built.nonnull]:
                with pytest.raises(ValueError, match="read-only"):
                    bitmap.set(1, not bitmap.get(1))


class TestEngineDoor:
    """``QueryEngine.maintain`` serves the successor from a new record."""

    @staticmethod
    def engine() -> QueryEngine:
        engine = QueryEngine(backend="inline")
        columns = {"a": np.arange(100) % 10, "b": np.arange(100) % 4}
        engine.register(Relation.from_dict("t", columns))
        engine.warm()
        return engine

    def test_it_serves_the_successor_and_carries_the_rest(self):
        engine = self.engine()
        old = engine.registration("t")
        # Range encoding on <10>: row 0 leaves B^0 .. B^8 for digit 9.
        assert engine.maintain("a", lambda index: index.update(0, 9)) == 9
        new = engine.registration("t")
        assert new is not old
        assert new.entries["a"].source is not old.entries["a"].source
        assert new.entries["b"].source is old.entries["b"].source
        assert engine.count("a = 0").count == 9
        assert engine.count("a = 9").count == 11
        assert evaluate(old.entries["a"].source, Predicate("=", 0)).count() == 10

    def test_verify_refuses_an_answer_the_edit_changed(self):
        # The relation's columns are not maintained, only the index.
        engine = self.engine()
        engine.maintain("a", lambda index: index.update(0, 5))
        with pytest.raises(VerificationError):
            engine.count("a = 5", options=QueryOptions(verify=True))
        assert engine.count("a = 5").count == 11
        assert engine.count("b = 1", options=QueryOptions(verify=True)).count == 25

    def test_a_failed_edit_writes_no_record(self):
        engine = self.engine()
        record = engine.registration("t")
        with pytest.raises(ValueOutOfRangeError):
            engine.maintain("a", lambda index: index.update(0, 10))
        assert engine.registration("t") is record

    def test_a_store_view_is_maintained_through_its_store(self, tmp_path):
        with IndexStore(str(tmp_path)) as store:
            store.build(Relation.from_dict("t", {"a": np.arange(100) % 10}))
        with repro.open_store(str(tmp_path), backend="inline") as engine:
            with pytest.raises(EngineConfigError, match="index store"):
                engine.maintain("a", lambda index: index.update(0, 5))


class TestAReleaseEvictsOnlyItsAttribute:
    """A new record evicts the cached bitmaps of the entries it does not
    carry, and only those: a ``maintain`` of ``a``, or a ``register`` that
    changes only ``a``'s spec, leaves ``b``'s bitmaps resident."""

    def test_the_other_attributes_stay_cached(self):
        relation = Relation.from_dict("t", {"a": np.arange(1000) % 100, "b": np.arange(1000) % 7})
        engine = QueryEngine(cache_capacity=64, backend="inline")
        engine.register(relation)
        cache = engine.cache

        def counted(text: str) -> tuple[int, int]:
            """``count(text)``'s cache hits and misses."""
            hits, misses = cache.hits, cache.misses
            engine.count(text)
            return cache.hits - hits, cache.misses - misses

        # Range encoding on <7>: ``b = 3`` reads B^3 and B^2; ``a = 50``
        # reads two bitmaps of a's.
        assert counted("b = 3") == (0, 2)
        assert counted("b = 3") == (2, 0)
        for write in (
            lambda: engine.maintain("a", lambda index: index.update(0, 90)),
            lambda: engine.register(relation, overrides={"a": IndexSpec(components=2)}),
        ):
            assert counted("a = 50") == (0, 2)
            evictions = cache.evictions
            write()
            assert cache.evictions - evictions == 2  # a's, not b's
            assert counted("b = 3") == (2, 0)
