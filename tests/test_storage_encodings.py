"""Storage-scheme round-trips for the non-range encodings.

The Section 9 experiments store range-encoded indexes; the storage layer
must serve all three encodings, including the base-2 equality component
whose only stored slot is 1 (the complement trick).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.evaluation import OPERATORS, Predicate, evaluate
from repro.core.index import BitmapIndex
from repro.stats import ExecutionStats
from repro.storage.buffer import BufferPool
from repro.experiments.disk import SimulatedDisk
from repro.experiments.schemes import open_scheme, write_index

CARDINALITY = 24
ENCODINGS = list(EncodingScheme)
SCHEMES = ("BS", "cBS", "CS", "cCS", "IS", "cIS")


def _index(encoding: EncodingScheme, base: Base) -> BitmapIndex:
    rng = np.random.default_rng(31)
    values = rng.integers(0, CARDINALITY, 180)
    return BitmapIndex(values, CARDINALITY, base, encoding)


@pytest.mark.parametrize("scheme_name", SCHEMES)
@pytest.mark.parametrize("encoding", ENCODINGS)
class TestAllEncodingsAllSchemes:
    def test_round_trip(self, scheme_name, encoding):
        index = _index(encoding, Base((6, 4)))
        disk = SimulatedDisk()
        write_index(disk, "idx", index, scheme_name)
        reopened = open_scheme(disk, "idx")
        assert reopened.encoding is encoding
        for op in OPERATORS:
            for v in (0, 7, 23, -1, 24):
                got = evaluate(reopened, Predicate(op, v))
                assert got == index.naive_eval(op, v), (op, v)
                reopened.reset_cache()


class TestBaseTwoEqualityLayout:
    """The complement-trick component stores only slot 1."""

    def test_cs_column_layout(self):
        index = _index(EncodingScheme.EQUALITY, Base((2, 2, 6)))
        disk = SimulatedDisk()
        scheme = write_index(disk, "idx", index, "CS")
        # Components 2 and 3 have base 2: their files hold one column.
        stats = ExecutionStats()
        for component in (2, 3):
            bitmap = scheme.fetch(component, 1, stats)
            assert bitmap == index.components[component - 1].bitmap(1)
            scheme.reset_cache()

    def test_is_total_width(self):
        index = _index(EncodingScheme.EQUALITY, Base((2, 2, 6)))
        disk = SimulatedDisk()
        scheme = write_index(disk, "idx", index, "IS")
        # 6 + 1 + 1 stored bitmaps across components.
        assert scheme._total_width() == 8
        got = evaluate(scheme, Predicate("=", 5))
        assert got == index.naive_eval("=", 5)


class TestBufferPoolOverOtherEncodings:
    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_pinned_pool_correct(self, encoding):
        index = _index(encoding, Base((6, 4)))
        pool = BufferPool(index, capacity=3)
        for op in ("<=", "=", "!="):
            for v in (0, 11, 23):
                got = evaluate(pool, Predicate(op, v))
                assert got == index.naive_eval(op, v)

    def test_pool_over_storage_scheme_equality(self):
        index = _index(EncodingScheme.EQUALITY, Base((2, 12)))
        disk = SimulatedDisk()
        scheme = write_index(disk, "idx", index, "cBS")
        pool = BufferPool(scheme, capacity=4)
        got = evaluate(pool, Predicate("=", 3))
        assert got == index.naive_eval("=", 3)
        assert pool.hits + pool.misses > 0
