"""End-to-end tests for the compressed execution path.

Covers the wiring the differential suite does not: zero-decode serving of
WAH-coded storage, the byte-budget shared cache, the engine's compressed
mode, and memo invalidation on index maintenance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitmaps import compressed, wah
from repro.bitmaps.bitvector import BitVector
from repro.bitmaps.compressed import WahBitVector
from repro.bitmaps.roaring import RoaringBitmap
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.evaluation import Predicate, evaluate
from repro.core.index import BitmapIndex, BitmapSource, CompressedBitmapSource
from repro.engine.cache import SharedBitmapCache
from repro.engine.engine import QueryEngine
from repro.errors import BufferConfigError
from repro.query.executor import AccessPath, bitmap_index_for, execute
from repro.query.options import QueryOptions
from repro.query.predicate import AttributePredicate
from repro.relation.relation import Relation
from repro.stats import ExecutionStats
from repro.experiments.disk import SimulatedDisk
from repro.experiments.schemes import open_scheme, write_index

NUM_ROWS = 3000
CARDINALITY = 24


@pytest.fixture
def clustered_index(rng):
    values = np.sort(rng.integers(0, CARDINALITY, NUM_ROWS))
    return values, BitmapIndex(values, CARDINALITY, encoding=EncodingScheme.RANGE)


# ----------------------------------------------------------------------
# Compressed bitmap source over an in-memory index
# ----------------------------------------------------------------------


class TestCompressedBitmapSource:
    def test_satisfies_protocol(self, clustered_index):
        _, index = clustered_index
        source = index.as_compressed()
        assert isinstance(source, CompressedBitmapSource)
        assert isinstance(source, BitmapSource)
        assert source.compressed and not index.compressed

    def test_fetch_serves_wah_and_memoizes(self, clustered_index):
        _, index = clustered_index
        source = index.as_compressed()
        stats = ExecutionStats()
        first = source.fetch(1, 0, stats)
        second = source.fetch(1, 0, stats)
        assert isinstance(first, WahBitVector)
        assert first is second  # memoized on the index
        assert stats.scans == 2  # but every fetch still charges a scan

    def test_scan_charged_at_compressed_size(self, clustered_index):
        _, index = clustered_index
        dense_stats, comp_stats = ExecutionStats(), ExecutionStats()
        dense = index.fetch(1, 0, dense_stats)
        comp = index.as_compressed().fetch(1, 0, comp_stats)
        assert comp_stats.bytes_read == comp.nbytes < dense.nbytes
        assert dense_stats.bytes_read == dense.nbytes

    def test_maintenance_invalidates_memo(self, clustered_index):
        values, index = clustered_index
        source = index.as_compressed()
        pred = Predicate("=", int(values[0]))
        before = evaluate(index, pred)
        assert evaluate(source, pred) == WahBitVector.from_bitvector(before)
        index.update(0, (int(values[0]) + 1) % CARDINALITY)
        after = evaluate(source, pred)
        assert 0 not in after.indices()
        # And the dense path agrees post-maintenance.
        assert np.array_equal(after.indices(), evaluate(index, pred).indices())

    def test_delete_invalidates_nonnull(self, rng):
        values = rng.integers(0, CARDINALITY, 500)
        index = BitmapIndex(values, CARDINALITY)
        source = index.as_compressed()
        rid = int(np.flatnonzero(values == values[0])[0])
        pred = Predicate("=", int(values[0]))
        assert rid in evaluate(source, pred).indices()
        index.delete(rid)
        assert rid not in evaluate(source, pred).indices()

    def test_evaluation_never_parses_or_encodes_a_payload(self, rng, monkeypatch):
        # The mechanism: vectors live as parsed runs, so a query over
        # already-constructed vectors does no byte-level work at all.
        values = rng.integers(0, 1000, NUM_ROWS)
        index = BitmapIndex(values, 1000, base=Base((10, 10, 10)))
        source = index.as_compressed()
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        for module in (wah, compressed):
            for name in ("_parse_runs", "_encode_runs"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for op, value in (("<=", 457), (">", 99), ("=", 500), ("!=", 7)):
            got = evaluate(source, Predicate(op, value), "range_eval_opt")
            want = evaluate(index, Predicate(op, value), "range_eval_opt")
            assert isinstance(got, WahBitVector)
            assert np.array_equal(got.indices(), want.indices())
            assert got.count() == want.count()
        assert calls == []
        got.to_payload()
        assert calls == ["_encode_runs"]  # the wrappers do count

    def test_executor_runs_compressed(self, rng):
        rel = Relation.from_dict(
            "r", {"a": rng.integers(0, CARDINALITY, NUM_ROWS)}
        )
        source = bitmap_index_for(rel, "a", codec="wah")
        assert source.compressed
        result = execute(
            rel,
            AttributePredicate("a", "<=", 10),
            AccessPath.BITMAP,
            index=source,
            # cross-checked against the ground-truth scan
            options=QueryOptions(verify=True),
        )
        assert result.count == int((rel.column("a").values <= 10).sum())


# ----------------------------------------------------------------------
# Storage schemes serving WahBitVector
# ----------------------------------------------------------------------


class TestCompressedStorageServing:
    @pytest.mark.parametrize("scheme", ["BS", "CS", "IS"])
    @pytest.mark.parametrize("codec", ["wah", "zlib", None])
    def test_all_schemes_serve_wah_vectors(self, clustered_index, scheme, codec):
        values, index = clustered_index
        disk = SimulatedDisk()
        write_index(disk, "t", index, scheme=scheme, codec=codec)
        reader = open_scheme(disk, "t", compressed="wah")
        stats = ExecutionStats()
        result = evaluate(reader, Predicate("<=", 10), stats=stats)
        assert isinstance(result, WahBitVector)
        assert np.array_equal(result.indices(), np.flatnonzero(values <= 10))

    def test_bs_wah_serves_payload_without_decoding(self, clustered_index):
        values, index = clustered_index
        disk = SimulatedDisk()
        write_index(disk, "t", index, scheme="BS", codec="wah")
        reader = open_scheme(disk, "t", compressed="wah")
        stats = ExecutionStats()
        bitmap = reader.fetch(1, 3, stats)
        assert isinstance(bitmap, WahBitVector)
        # The served blob IS the stored payload: zero decode work.
        assert stats.decompressed_bytes == 0
        assert bitmap == WahBitVector.from_bitvector(index.fetch(1, 3, ExecutionStats()))

    def test_bs_wah_dense_mode_still_decodes(self, clustered_index):
        _, index = clustered_index
        disk = SimulatedDisk()
        write_index(disk, "t", index, scheme="BS", codec="wah")
        reader = open_scheme(disk, "t")  # dense mode
        stats = ExecutionStats()
        bitmap = reader.fetch(1, 3, stats)
        assert isinstance(bitmap, BitVector)
        assert stats.decompressed_bytes == (NUM_ROWS + 7) // 8

    def test_nonnull_served_compressed(self, rng):
        values = rng.integers(0, CARDINALITY, 500)
        nulls = rng.random(500) < 0.2
        index = BitmapIndex(values, CARDINALITY, nulls=nulls)
        disk = SimulatedDisk()
        write_index(disk, "t", index, scheme="BS", codec="wah")
        reader = open_scheme(disk, "t", compressed="wah")
        assert isinstance(reader.nonnull, WahBitVector)
        result = evaluate(reader, Predicate("!=", 3))
        expected = (values != 3) & ~nulls
        assert np.array_equal(result.to_bools(), expected)


# ----------------------------------------------------------------------
# Byte-budget shared cache
# ----------------------------------------------------------------------


class TestByteBudgetCache:
    def test_bytes_cached_tracks_entries(self):
        cache = SharedBitmapCache(capacity=None, byte_budget=10_000)
        a = BitVector.ones(8 * 1000)  # 1000 bytes
        cache.put("a", a)
        assert cache.bytes_cached == 1000
        cache.put("a", a)  # replace: no double count
        assert cache.bytes_cached == 1000
        cache.put("b", BitVector.zeros(8 * 500))
        assert cache.bytes_cached == 1500
        snap = cache.snapshot()
        assert snap["bytes_cached"] == 1500
        assert snap["byte_budget"] == 10_000

    def test_evicts_lru_until_budget_holds(self):
        cache = SharedBitmapCache(capacity=None, byte_budget=2500)
        for key in "abc":
            cache.put(key, BitVector.ones(8 * 1000))
        assert len(cache) == 2
        assert cache.bytes_cached == 2000
        assert cache.evictions == 1
        assert cache.get("a") is None  # LRU victim
        assert cache.get("c") is not None

    def test_oversized_entry_not_cached(self):
        cache = SharedBitmapCache(capacity=None, byte_budget=100)
        cache.put("small", BitVector.ones(8 * 80))
        cache.put("huge", BitVector.ones(8 * 1000))
        assert "huge" not in cache
        assert "small" in cache  # and it did not evict the resident entry

    def test_entry_count_limit_still_enforced(self):
        cache = SharedBitmapCache(capacity=2, byte_budget=1_000_000)
        for key in "abcd":
            cache.put(key, BitVector.ones(64))
        assert len(cache) == 2

    def test_holds_many_more_compressed_entries(self, rng):
        """Same byte budget, >=4x more bitmaps when entries are compressed."""
        nbits = 64 * 1024
        bools = np.zeros(nbits, dtype=bool)
        bools[: nbits // 4] = True  # one long run: compresses to a few words
        budget = 4 * (nbits // 8)  # room for exactly 4 dense bitmaps
        dense_cache = SharedBitmapCache(capacity=None, byte_budget=budget)
        wah_cache = SharedBitmapCache(capacity=None, byte_budget=budget)
        for k in range(64):
            shifted = np.roll(bools, k)
            dense_cache.put(k, BitVector.from_bools(shifted))
            wah_cache.put(
                k, WahBitVector.from_bitvector(BitVector.from_bools(shifted))
            )
        assert len(dense_cache) == 4
        assert len(wah_cache) >= 4 * len(dense_cache)
        assert wah_cache.bytes_cached <= budget

    def test_wah_nbytes_is_resident_size_and_never_changes(self, rng):
        """Evicting everything returns ``bytes_cached`` to zero: the size
        a vector reports on ``put`` is the size it reports on eviction,
        whatever was done with it in between.  Roaring bitmaps of all three
        container kinds are held to the same."""
        nbits = 100_000
        scattered = [BitVector.from_bools(rng.random(nbits) < d) for d in (0.1, 0.5, 0.9)]
        striped = [
            BitVector.from_bools(np.arange(nbits) // 9_000 % 2 == k) for k in (0, 1)
        ]
        sparse = [BitVector.from_bools(rng.random(nbits) < d) for d in (0.001, 0.02)]
        literal = [WahBitVector.from_bitvector(v) for v in scattered]
        filled = [WahBitVector.from_bitvector(v) for v in striped]
        # One value per 31-bit group vs a handful of (value, end) runs.
        assert all(v.nbytes == 4 * -(-nbits // 31) for v in literal)
        assert all(v.nbytes < 400 for v in filled)
        roaring = [RoaringBitmap.from_bitvector(v) for v in scattered + striped + sparse]
        kinds = {kind for v in roaring for _, kind in v.container_kinds()}
        assert kinds == {"array", "bitmap", "run"}
        # The three container arrays and the three pools, exactly: what
        # the payload stores, with runs at 4 bytes each.
        assert all(v.nbytes == len(v.to_payload()) for v in roaring)
        for vectors in (literal + filled, roaring):
            cls = type(vectors[0])
            cache = SharedBitmapCache(capacity=None, byte_budget=10**6)
            for key, vector in enumerate(vectors):
                cache.put(key, vector)
            sizes = [v.nbytes for v in vectors]
            assert cache.bytes_cached == sum(sizes)
            for a in vectors:
                for b in vectors:
                    _ = (a & b, a | b, a ^ b, a.and_count(b))
                    _ = a.andnot(b) if cls is RoaringBitmap else a.compressed_bytes
                _ = ((~a).count(), a.indices(), a.to_payload(), a.to_bitvector())
            cls.threshold_many(vectors, 2)
            cls.and_many(vectors[:3])
            cls.or_many(vectors[:3])
            assert [v.nbytes for v in vectors] == sizes
            cache.put(0, vectors[-1])  # a refresh subtracts the old entry's size
            assert cache.bytes_cached == sum(sizes) - sizes[0] + sizes[-1]
            for key in range(len(vectors)):
                assert cache.drop_group(str(key)) == 1
            assert len(cache) == 0 and cache.bytes_cached == 0

    def test_config_validation(self):
        with pytest.raises(BufferConfigError):
            SharedBitmapCache(capacity=None, byte_budget=None)
        with pytest.raises(BufferConfigError):
            SharedBitmapCache(capacity=None, byte_budget=0)
        with pytest.raises(BufferConfigError):
            SharedBitmapCache(capacity=-1)


# ----------------------------------------------------------------------
# Engine compressed mode
# ----------------------------------------------------------------------


class TestEngineCompressedMode:
    @pytest.fixture
    def relation(self, rng):
        return Relation.from_dict(
            "sales",
            {
                "region": np.sort(rng.integers(0, 16, 8000)),
                "status": rng.integers(0, 6, 8000),
            },
        )

    def queries(self):
        return [
            AttributePredicate("region", "<=", 5),
            AttributePredicate("status", "=", 2),
            AttributePredicate("region", ">", 10),
            AttributePredicate("status", "!=", 4),
            AttributePredicate("region", ">=", 3),
        ]

    def test_compressed_engine_matches_dense(self, relation):
        dense = QueryEngine(cache_capacity=64)
        comp = QueryEngine(
            cache_capacity=None, cache_bytes=1 << 20, codec="wah"
        )
        for engine in (dense, comp):
            engine.register(relation)
        dense_results = dense.query_batch(self.queries(), workers=2)
        comp_results = comp.query_batch(self.queries(), workers=2)
        for d, c in zip(dense_results, comp_results):
            assert np.array_equal(d.rids, c.rids)

    def test_cache_holds_compressed_payloads(self, relation):
        engine = QueryEngine(
            cache_capacity=None, cache_bytes=1 << 20, codec="wah"
        )
        engine.register(relation)
        engine.query_batch(self.queries(), workers=1)
        snap = engine.cache.snapshot()
        assert snap["size"] > 0
        # Dense entries would be nbits/8 = 1000 bytes each; compressed
        # entries of the clustered column are far smaller in aggregate.
        assert snap["bytes_cached"] < snap["size"] * (8000 // 8)

    def test_cache_hits_on_repeat(self, relation):
        engine = QueryEngine(
            cache_capacity=None, cache_bytes=1 << 20, codec="wah"
        )
        engine.register(relation)
        engine.query_batch(self.queries(), workers=1)
        misses_before = engine.cache.misses
        engine.query_batch(self.queries(), workers=1)
        assert engine.cache.misses == misses_before
        assert engine.cache.hits > 0
