"""Differential tests for the sharded, process-parallel execution backend.

The contract under test: for every codec (dense/WAH/Roaring) and every
shard count — including one that does not divide the row count — the
process backend returns **bit-identical RIDs**, identical popcounts, and
identical metrics-visible scan and operation counts to the inline
backend, before and after append/update/delete maintenance, with NULLs,
and over an index store's files — because every shard is a row range of
the very bitmap source the inline backend serves.

Scan-count parity is exact against an *uncached* inline engine: the
shard workers charge one scan per fetch (the ``BitmapIndex.fetch``
rule), while a warm shared cache on the inline path converts repeat
fetches into buffer hits; ``scans + buffer_hits`` (effective fetches) is
the invariant that holds under any cache configuration.
"""

from __future__ import annotations

import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.evaluation import Predicate, evaluate
from repro.core.index import BitmapIndex
from repro.engine import (
    QueryEngine,
    QueryOptions,
    ShardExport,
    shard_bounds,
)
from repro.engine.sharding import (
    _IMAGE_NAME,
    _AttachedShard,
    merge_shard_rids,
    merge_shard_stats,
    translate_expression,
)
from repro.errors import CorruptShardError, EngineConfigError, ShmAttachError
from repro.query.expression import parse_expression
from repro.relation.relation import Relation
from repro.stats import ExecutionStats
from repro.storage import IndexStore
from repro.storage.store import _HEADER, _index_attr_spec, _payload_start, _relation_chunks

from conftest import backend_engines, expression_trees

CODECS = ("dense", "wah", "roaring")
SHARD_COUNTS = (1, 2, 7)  # 7 does not divide the test row counts
NUM_ROWS = 5_003  # prime: never divisible by a shard count > 1


# ----------------------------------------------------------------------
# shard_bounds
# ----------------------------------------------------------------------


class TestShardBounds:
    def test_partitions_are_contiguous_and_cover(self):
        bounds = shard_bounds(100, 7)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 100
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_sizes_differ_by_at_most_one(self):
        for rows, shards in ((100, 7), (5, 3), (64, 64), (1000, 13)):
            sizes = [stop - start for start, stop in shard_bounds(rows, shards)]
            assert sum(sizes) == rows
            assert max(sizes) - min(sizes) <= 1

    def test_clamps_to_row_count(self):
        assert len(shard_bounds(3, 10)) == 3
        assert shard_bounds(3, 10) == ((0, 1), (1, 2), (2, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(EngineConfigError):
            shard_bounds(10, 0)

    def test_merge_offsets_preserve_global_order(self):
        rids = merge_shard_rids(
            [np.array([0, 2]), np.array([1]), np.array([0, 3])],
            [0, 10, 20],
        )
        assert rids.tolist() == [0, 2, 11, 20, 23]


# ----------------------------------------------------------------------
# Shards cut from one BitmapIndex vs that index (unit-level differential)
# ----------------------------------------------------------------------


def _predicate_sweep(cardinality: int):
    """Predicates hitting interior, boundary, and trivial codes."""
    for op in ("<", "<=", "=", "!=", ">=", ">"):
        for code in (0, 1, cardinality // 2, cardinality - 1):
            yield Predicate(op, code)


def _shard_rids(shard: _AttachedShard, predicate: Predicate, stats: ExecutionStats):
    # A function of its own, so the result bitmap (which may be a view of
    # the segment) is gone before the shard is released.
    return evaluate(shard, predicate, stats=stats).indices()


class TestShardedIndexDifferential:
    @pytest.fixture(scope="class")
    def values(self) -> np.ndarray:
        rng = np.random.default_rng(11)
        return rng.integers(0, 60, NUM_ROWS)

    def _assert_equivalent(self, single: BitmapIndex, codec: str, shards: int):
        export = ShardExport(single, shard_bounds(single.nbits, shards), codec)
        attached = [_AttachedShard(manifest) for manifest in export.manifests]
        try:
            # NULL tracking reaches every shard or none — the premise of
            # identical per-shard operation counts.
            assert {shard.nonnull is None for shard in attached} == {single.nonnull is None}
            source = single.with_codec(codec)
            for predicate in _predicate_sweep(single.cardinality):
                stats = ExecutionStats()
                bitmap = evaluate(source, predicate, stats=stats)
                shard_stats = [ExecutionStats() for _ in attached]
                rids = merge_shard_rids(
                    [
                        _shard_rids(shard, predicate, s)
                        for shard, s in zip(attached, shard_stats)
                    ],
                    [start for start, _ in export.bounds],
                )
                merged = merge_shard_stats(shard_stats)
                assert np.array_equal(bitmap.indices(), rids), predicate
                assert merged.scans == stats.scans, predicate
                assert merged.ops == stats.ops, predicate
                # Per-shard logical counts are identical (data-independent
                # fetch patterns) — the premise of the stats merge rule.
                assert len({s.scans for s in shard_stats}) == 1
                assert len({s.ops for s in shard_stats}) == 1
        finally:
            for shard in attached:
                shard.release()
            export.close()

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_matches_single_index(self, values, codec, shards):
        single = BitmapIndex(values, cardinality=60, base=Base((8, 8)))
        self._assert_equivalent(single, codec, shards)

    @pytest.mark.parametrize("encoding", [EncodingScheme.EQUALITY, EncodingScheme.RANGE])
    def test_matches_across_encodings(self, values, encoding):
        single = BitmapIndex(values, cardinality=60, encoding=encoding)
        self._assert_equivalent(single, "dense", 3)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_matches_after_maintenance(self, values, codec, shards):
        single = BitmapIndex(values, cardinality=60, base=Base((8, 8)))
        export = ShardExport(single, shard_bounds(single.nbits, shards), codec)
        export.close()
        single.append(np.array([0, 17, 59, 30, 5]))
        for rid, value in ((0, 59), (NUM_ROWS - 1, 0), (NUM_ROWS // 2, 7)):
            single.update(rid, value)
        for rid in (3, NUM_ROWS - 2, NUM_ROWS + 2):
            single.delete(rid)
        assert not export.serves(single)  # the publisher must re-cut
        assert single.nbits == NUM_ROWS + 5
        self._assert_equivalent(single, codec, shards)

    def test_nulls_at_construction(self, values):
        rng = np.random.default_rng(5)
        nulls = rng.random(NUM_ROWS) < 0.1
        single = BitmapIndex(values, cardinality=60, nulls=nulls)
        self._assert_equivalent(single, "dense", 4)


# ----------------------------------------------------------------------
# Publication: a segment is an ``.rbix`` image, read by the store's reader
# ----------------------------------------------------------------------


class TestSegmentImage:
    @pytest.fixture
    def export(self):
        rng = np.random.default_rng(23)
        index = BitmapIndex(rng.integers(0, 60, 900), 60, base=Base((8, 8)))
        index.delete(3)  # publishes an existence bitmap too
        export = ShardExport(index, shard_bounds(index.nbits, 2), "dense")
        yield export
        export.close()

    @staticmethod
    def image_regions(export, shard=0):
        """Offsets into the segment: image start, dictionary start/length, end."""
        _, _, _, dict_offset, dict_length, _, _ = _HEADER.unpack_from(
            export._segments[shard].buf
        )
        return 0, dict_offset, dict_length, export._segments[shard].size

    @pytest.mark.parametrize(
        "region", ["magic", "header", "dictionary", "last_payload"]
    )
    def test_any_damaged_byte_is_corrupt_at_attach(self, export, region):
        # The reader's checks reach segments: header and dictionary CRCs
        # as it parses, every payload CRC before any fetch is served.
        start, dict_start, dict_length, end = self.image_regions(export)
        offset = {
            "magic": start,
            "header": start + 9,  # inside dict_offset
            "dictionary": dict_start + dict_length // 2,
            "last_payload": end - 1,
        }[region]
        export.corrupt_byte(0, offset)
        with pytest.raises(CorruptShardError):
            _AttachedShard(export.manifests[0])
        # The other shard is untouched and still attaches and serves.
        shard = _AttachedShard(export.manifests[1])
        try:
            assert shard.fetch(1, 0, ExecutionStats()).nbits == shard.nbits
        finally:
            shard.release()

    def test_default_corruption_flips_the_first_payload_byte(self, export):
        start, dict_start, dict_length, _ = self.image_regions(export, 1)
        assert export.corrupt_byte(1) == dict_start + dict_length
        with pytest.raises(CorruptShardError, match="checksum"):
            _AttachedShard(export.manifests[1])

    def test_vanished_segment_is_an_attach_error(self, export):
        manifest = export.manifests[0]
        export.close()
        with pytest.raises(ShmAttachError):
            _AttachedShard(manifest)

    @pytest.mark.parametrize("codec", CODECS)
    def test_row_count_mismatch_is_corrupt_at_the_fetch(self, codec):
        # CRC-clean, but the dictionary declares 100 rows over payloads
        # built for 200: only decoding a payload can tell.
        index = BitmapIndex(np.arange(200) % 5, 5)
        chunks, _ = _relation_chunks(
            _IMAGE_NAME, 100, {_IMAGE_NAME: _index_attr_spec(index, codec)}
        )
        image = b"".join(chunks)
        segment = shared_memory.SharedMemory(create=True, size=len(image))
        try:
            segment.buf[: len(image)] = image
            shard = _AttachedShard(segment.name)
            try:
                with pytest.raises(CorruptShardError, match="payload"):
                    shard.fetch(1, 2, ExecutionStats())
            finally:
                shard.release()
        finally:
            segment.close()
            segment.unlink()

    @pytest.mark.parametrize(
        "cardinality, base, slots", [(50, Base((50,)), 49), (1000, Base((32, 32)), 62)]
    )
    def test_manifest_does_not_grow_with_the_slot_count(self, cardinality, base, slots):
        rng = np.random.default_rng(1)
        index = BitmapIndex(rng.integers(0, cardinality, 400), cardinality, base=base)
        assert index.num_bitmaps == slots
        export = ShardExport(index, shard_bounds(index.nbits, 1), "wah")
        try:
            assert len(pickle.dumps(export.manifests[0])) < 256
        finally:
            export.close()

    def test_dense_bitmaps_are_aligned_zero_copy_views(self, export):
        # <8,8> over C=60 gives a dictionary whose payload region would
        # start off an 8-byte boundary; the writer's padding corrects it.
        manifest = export.manifests[0]
        assert _payload_start(export._segments[0].buf) % 8 == 0
        shard = _AttachedShard(manifest)
        try:
            for bitmap in (shard.fetch(1, 0, ExecutionStats()), shard.nonnull):
                words = bitmap._words
                assert words.flags.aligned and not words.flags.owndata
                assert words.ctypes.data % 8 == 0
                del words, bitmap
        finally:
            shard.release()


# ----------------------------------------------------------------------
# Engine-level differential: process backend vs inline backend
# ----------------------------------------------------------------------

QUERIES = [
    "quantity <= 25",
    "quantity > 48",
    "region = 3",
    "region != 0",
    "quantity = 0",
    "quantity >= 10 and region = 5",
    "quantity < 5 or quantity > 45",
    "quantity in (1, 9, 33)",
    "quantity between 12 and 30",
    "not (region = 2 or region = 6)",
    "quantity between 5 and 40 and (region = 1 or region = 7)",
]


def orders() -> Relation:
    rng = np.random.default_rng(99)
    return Relation.from_dict(
        "orders",
        {
            "quantity": rng.integers(0, 50, NUM_ROWS),
            "region": rng.integers(0, 8, NUM_ROWS),
        },
    )


@pytest.fixture(scope="module")
def relation() -> Relation:
    return orders()


def make_engines(engines, relation: Relation, backends=("inline", "processes"), **kwargs):
    """The engines of ``backends`` over ``relation``, two components a column."""
    return engines(relation, backends, register={"components": 2}, **kwargs)


def assert_processes_match_inline(inline: QueryEngine, processes: QueryEngine) -> None:
    """Every query of :data:`QUERIES`, answered by both engines, agrees:
    RIDs, ``count``, ``group_count`` groups, and the scans and operations
    charged.  Scan parity is exact only with the shared cache off."""
    answers = [
        [
            *engine.query_batch(QUERIES),
            *(engine.count(query) for query in QUERIES),
            *(engine.group_count(query, "region") for query in QUERIES),
        ]
        for engine in (inline, processes)
    ]
    for label, a, b in zip(QUERIES * 3, *answers):
        if hasattr(a, "rids"):
            assert np.array_equal(a.rids, b.rids), label
        assert a.count == b.count, label
        assert getattr(a, "groups", None) == getattr(b, "groups", None), label
        assert (a.stats.scans, a.stats.ops) == (b.stats.scans, b.stats.ops), label


def maintain(pair, edit) -> None:
    """Apply ``edit(quantity_index, region_index)`` to each engine's built
    indexes, behind the engines' backs."""
    for engine in pair:
        record = engine.registration("orders")
        edit(*(engine._index_for(record, name) for name in ("quantity", "region")))


class TestEngineBackendDifferential:
    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_process_backend_matches_inline(self, engines, relation, codec, shards):
        # capacity=0 disables the shared cache, so inline scan counts are
        # the raw per-query fetch counts the workers also charge.
        inline, processes = make_engines(
            engines, relation, codec=codec, shards=shards, cache_capacity=0
        )
        expected = inline.query_batch(QUERIES)
        process = processes.query_batch(QUERIES, options=QueryOptions(verify=True))
        for query, a, b in zip(QUERIES, expected, process):
            assert np.array_equal(a.rids, b.rids), query
            assert a.count == b.count, query
            assert a.stats.scans == b.stats.scans, query
            assert a.stats.ops == b.stats.ops, query

    def test_effective_fetches_match_with_warm_cache(self, engines, relation):
        # With a warm shared cache the inline path trades scans for
        # buffer hits one-for-one; scans + buffer_hits stays invariant.
        inline, processes = make_engines(engines, relation, shards=4)
        answers = inline.query_batch(QUERIES), processes.query_batch(QUERIES)
        for query, a, b in zip(QUERIES, *answers):
            assert np.array_equal(a.rids, b.rids), query
            effective_inline = a.stats.scans + a.stats.buffer_hits
            effective_process = b.stats.scans + b.stats.buffer_hits
            assert effective_inline == effective_process, query

    def test_single_query_routes_through_processes(self, engines, relation):
        (engine,) = make_engines(engines, relation, ("processes",), shards=3)
        result = engine.query("quantity <= 25", options=QueryOptions(trace=True))
        truth = relation.scan("quantity", "<=", 25)
        assert np.array_equal(result.rids, truth)
        shard_spans = result.trace.spans_of("shard")
        assert len(shard_spans) == 3
        assert sum(s.attrs["rows"] for s in shard_spans) == NUM_ROWS
        snap = engine.metrics.snapshot()
        assert snap["by_backend"]["processes"]["queries"] == 1

    def test_process_backend_matches_after_maintenance(self, engines, relation):
        pair = inline, processes = make_engines(engines, relation, shards=4, cache_capacity=0)
        processes.query_batch(QUERIES)  # build + publish

        def edit(quantity, region):
            for index in (quantity, region):
                index.append(np.array([0, 7, 3]))  # the re-cut shards cover these too
            for rid, value in ((0, 49), (NUM_ROWS - 1, 0), (17, 17)):
                quantity.update(rid, value)
            quantity.delete(5)

        maintain(pair, edit)
        # The version bump must invalidate the shared-memory
        # publication, so the next batch re-exports and agrees.
        answers = inline.query_batch(QUERIES), processes.query_batch(QUERIES)
        for query, a, b in zip(QUERIES, *answers):
            assert np.array_equal(a.rids, b.rids), query
            assert a.stats.scans == b.stats.scans, query
            assert a.stats.ops == b.stats.ops, query

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("shards", (2, 4))
    def test_in_place_maintenance(self, engines, relation, codec, shards):
        # No invalidate(): the shards are cut from the index the process
        # engine serves, and its version bump alone makes the next batch
        # re-export.
        pair = make_engines(engines, relation, codec=codec, shards=shards, cache_capacity=0)
        assert_processes_match_inline(*pair)  # build + publish

        def edit(*indexes):
            for index, cardinality in zip(indexes, (50, 8)):
                for rid in (0, 17, NUM_ROWS // 2, NUM_ROWS - 1):
                    index.update(rid, (rid + 3) % cardinality)
                index.delete(5)

        maintain(pair, edit)
        assert_processes_match_inline(*pair)

    @pytest.mark.parametrize("codec", CODECS)
    def test_in_place_maintenance_with_warm_cache(self, engines, relation, codec):
        # The default shared cache keys a bitmap by its source's version,
        # so a warm entry never outlives maintenance made behind the
        # engine's back.
        pair = inline, processes = make_engines(engines, relation, codec=codec, shards=2)
        inline.query_batch(QUERIES)  # build + warm
        shifted = (int(relation.column("quantity").codes[0]) + 25) % 50

        def edit(quantity, region):
            quantity.update(0, shifted)
            for index in (quantity, region):
                index.append(np.array([0]))

        maintain(pair, edit)
        warm = inline.query_batch(QUERIES)
        assert inline.cache.hits > 0
        inline.reset_cache()
        cold = inline.query_batch(QUERIES)
        sharded = processes.query_batch(QUERIES)
        for query, a, b, c in zip(QUERIES, warm, cold, sharded):
            assert np.array_equal(a.rids, b.rids), query
            assert np.array_equal(a.rids, c.rids), query
        assert NUM_ROWS in warm[QUERIES.index("quantity = 0")].rids

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("shards", (2, 4))
    def test_null_tracking_index(self, engines, relation, codec, shards):
        column = relation.column("region")
        nulls = np.random.default_rng(4).random(NUM_ROWS) < 0.15
        pair = inline, _ = make_engines(
            engines, relation, codec=codec, shards=shards, cache_capacity=0
        )
        for engine in pair:
            engine.registration("orders").indexes.get_or_build(
                "region",
                lambda: BitmapIndex(
                    column.codes,
                    cardinality=column.cardinality,
                    encoding=EncodingScheme.EQUALITY,
                    nulls=nulls,
                    keep_values=False,
                ),
            )
        assert inline.count("region != 2").count == int(((column.values != 2) & ~nulls).sum())
        assert_processes_match_inline(*pair)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("shards", (2, 4))
    def test_store_append_and_compact(self, engines, relation, tmp_path, codec, shards):
        root = str(tmp_path / "indexes")
        with IndexStore(root) as store:
            store.build(
                relation,
                codec=codec,
                encoding={
                    "quantity": EncodingScheme.RANGE,
                    "region": EncodingScheme.EQUALITY,
                },
            )
        rng = np.random.default_rng(8)
        # Both engines serve the one store, so both see its generation move.
        pair = engines(storage=IndexStore(root), shards=shards, cache_capacity=0)
        store = pair[0].storage
        assert_processes_match_inline(*pair)
        # No invalidate() after either: the store's generation moves.
        store.append(
            "orders",
            {"quantity": rng.integers(0, 50, 40), "region": rng.integers(0, 8, 40)},
            nulls={"quantity": rng.random(40) < 0.2},
        )
        assert_processes_match_inline(*pair)
        store.compact("orders")
        assert_processes_match_inline(*pair)

    def test_relations_of_two_sizes_in_a_batch(self, engines, relation):
        # Same shard count, different row ranges: each relation's shard
        # RIDs must be offset by its own ranges, not the other's.
        rng = np.random.default_rng(3)
        small = Relation.from_dict("small", {"quantity": rng.integers(0, 50, NUM_ROWS // 3)})
        pair = inline, processes = make_engines(engines, relation, shards=2, cache_capacity=0)
        for engine in pair:
            engine.register(small)
        batch = [("orders", "quantity <= 20"), ("small", "quantity <= 20")]
        expected = inline.query_batch(batch)
        process = processes.query_batch(batch, options=QueryOptions(verify=True))
        for (name, query), a, b in zip(batch, expected, process):
            assert np.array_equal(a.rids, b.rids), name

    def test_worker_counts_do_not_change_results(self, engines, relation):
        narrow, wide = (
            make_engines(
                engines, relation, ("processes",), max_workers=workers, shards=5, cache_capacity=0
            )[0]
            for workers in (1, 4)
        )
        for a, b in zip(narrow.query_batch(QUERIES), wide.query_batch(QUERIES)):
            assert np.array_equal(a.rids, b.rids)

    def test_threads_backend_reuses_one_pool(self, relation):
        with backend_engines(relation, ("threads",)) as (engine,):
            batch = QUERIES * 3
            engine.query_batch(batch)
            pool = engine._threads
            assert pool is not None
            engine.query_batch(batch)
            assert engine._threads is pool
        assert engine._threads is None  # close() shut it down

    def test_closed_engine_rejects_pooled_batches(self, engines, relation):
        (engine,) = make_engines(engines, relation, ("threads",))
        engine.close()
        with pytest.raises(EngineConfigError):
            engine.query_batch(QUERIES)
        # A single query needs no pool and keeps working.
        result = engine.query("quantity <= 25")
        assert result.count > 0

    def test_invalidate_drops_publications_and_indexes(self, engines, relation):
        (engine,) = make_engines(engines, relation, ("processes",), shards=2)
        engine.query_batch(QUERIES)
        assert engine._dispatch.exports
        assert "quantity" in engine.registration("orders").indexes
        engine.invalidate("orders")
        assert not engine._dispatch.exports
        assert "quantity" not in engine.registration("orders").indexes
        # And the engine still answers afterwards (rebuild path).
        result = engine.query("quantity <= 25")
        assert np.array_equal(result.rids, relation.scan("quantity", "<=", 25))

    @pytest.mark.parametrize("codec", CODECS)
    def test_reregistered_relation_answers_from_its_own_columns(self, engines, codec):
        """Registering a name again drops the old shard exports too."""
        first = Relation.from_dict("r", {"x": np.tile([0, 1, 2, 3, 0, 1, 2, 3], 1000)})
        second = Relation.from_dict("r", {"x": np.tile([3, 3, 3, 3, 0, 0, 0, 0], 1000)})
        (engine,) = engines(None, ("processes",), codec=codec, max_workers=2, shards=2)
        for relation in (first, second):
            engine.register(relation)
            result = engine.query("x <= 1")
            assert np.array_equal(result.rids, relation.scan("x", "<=", 1))
            assert engine.count("x <= 1").count == 4000


#: Constants inside, at the ends of and outside each column's domain.
CONSTANTS = {"quantity": (-3, 0, 1, 25, 49, 50, 60), "region": (-1, 0, 3, 7, 8)}


class TestCodeDomainTranslation:
    @pytest.fixture(scope="class")
    def indexes(self, relation):
        return {
            name: BitmapIndex(
                relation.column(name).codes,
                cardinality=relation.column(name).cardinality,
            )
            for name in ("quantity", "region")
        }

    @settings(max_examples=40, deadline=None)
    @given(expr=expression_trees(CONSTANTS, 3))
    @example(
        expr=parse_expression(
            "quantity between 5 and 40 and (region = 1 or not region > 5)"
        )
    )
    def test_translated_tree_needs_no_relation(self, relation, indexes, expr):
        translated = pickle.loads(pickle.dumps(translate_expression(expr, relation)))
        for codec in CODECS:
            sources = {name: index.with_codec(codec) for name, index in indexes.items()}
            stats_t = ExecutionStats()
            stats_o = ExecutionStats()
            translated_bitmap = translated.bitmap(None, sources, stats_t)
            original_bitmap = expr.bitmap(relation, sources, stats_o)
            assert np.array_equal(
                translated_bitmap.indices(), original_bitmap.indices()
            )
            assert np.array_equal(
                original_bitmap.indices(), np.nonzero(expr.mask(relation))[0]
            )
            assert stats_t.as_dict() == stats_o.as_dict()
