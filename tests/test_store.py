"""Tests for the persistent on-disk index store (``.rbix`` format).

Covers the PR's contract end to end: codec round-trips through a real
file, mmap lazy loading (dictionary eagerly, payloads only when a query
touches them), crash-atomic append + compaction, and typed corruption
detection for every region of the format — a damaged store must raise
:class:`~repro.errors.CorruptFileError`, never return a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import re
import shutil
import struct
import time

import numpy as np
import pytest

import repro
from repro.bitmaps import BITMAP_CLASSES, BitVector
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.evaluation import evaluate
from repro.core.index import BitmapIndex
from repro.engine.cache import CachedSource, SharedBitmapCache
from repro.engine.registry import IndexSpec
from repro.engine.sharding import _IMAGE_NAME, ShardExport, shard_bounds
from repro.errors import (
    BufferConfigError,
    CorruptFileError,
    FileMissingError,
    InjectedFaultError,
    StorageError,
    ValueOutOfRangeError,
)
from repro.faults import FaultPlan, FaultSpec, read_fault
from repro.query.expression import And, Comparison
from repro.query.predicate import AttributePredicate
from repro.relation.relation import Relation
from repro.stats import ExecutionStats
from repro.storage import IndexStore
from repro.storage.buffer import BufferPool
from repro.storage.fsdisk import frame
from repro.storage.store import _HEADER, _MAGIC, _relation_chunks
from repro.workloads import full_query_space

NUM_ROWS = 600
REGIONS = np.array(["east", "north", "south", "west"])


def make_relation(num_rows: int = NUM_ROWS, seed: int = 11) -> Relation:
    rng = np.random.default_rng(seed)
    return Relation.from_dict(
        "sales",
        {
            "quantity": rng.integers(0, 40, num_rows),
            "region": REGIONS[rng.integers(0, 4, num_rows)],
        },
    )


def segment_image(export: ShardExport, shard: int = 0) -> bytes:
    """The ``.rbix`` image one shard was published as, header through last
    payload (the segment is created at exactly the image's end)."""
    return bytes(export._segments[shard].buf)


@pytest.fixture
def relation() -> Relation:
    return make_relation()


@pytest.fixture
def store_dir(tmp_path) -> str:
    return str(tmp_path / "indexes")


def flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def all_slot_bools(source, reference: BitmapIndex) -> None:
    """Every stored slot must decode bit-identical to the in-memory index."""
    stats = ExecutionStats()
    for comp in range(1, reference.base.n + 1):
        for slot in reference.stored_slots(comp):
            stored = source.fetch(comp, slot, stats)
            expected = reference.components[comp - 1].bitmap(slot)
            assert np.array_equal(stored.to_bools(), expected.to_bools()), (
                f"component {comp} slot {slot} diverged"
            )


class TestRoundTrip:
    @pytest.mark.parametrize("codec", ["dense", "wah", "roaring"])
    def test_codec_round_trip_after_reopen(self, store_dir, relation, codec):
        base = Base((8, 5))
        with IndexStore(store_dir) as store:
            summary = store.build(
                relation, codec=codec, base=base, encoding=EncodingScheme.RANGE
            )
        assert summary["attributes"]["quantity"]["codec"] == codec
        # A brand-new store instance sees only the bytes on disk.
        with IndexStore(store_dir) as store:
            for attr in ("quantity", "region"):
                column = relation.column(attr)
                reference = BitmapIndex(
                    column.codes,
                    column.cardinality,
                    base=base,
                    encoding=EncodingScheme.RANGE,
                )
                source = store.bitmap_source("sales", attr)
                assert source is not None
                assert source.stored_codec == codec
                assert source.nbits == NUM_ROWS
                assert source.cardinality == column.cardinality
                all_slot_bools(source, reference)

    def test_per_attribute_codec_choice(self, store_dir, relation):
        with IndexStore(store_dir) as store:
            store.build(relation, codec={"quantity": "wah", "region": "roaring"})
        with IndexStore(store_dir) as store:
            assert store.bitmap_source("sales", "quantity").stored_codec == "wah"
            assert store.bitmap_source("sales", "region").stored_codec == "roaring"

    def test_relation_view_restores_dictionary(self, store_dir, relation):
        with IndexStore(store_dir) as store:
            store.build(relation)
        with IndexStore(store_dir) as store:
            view = store.relation_view("sales")
            assert view.num_rows == NUM_ROWS
            assert sorted(view.columns) == ["quantity", "region"]
            np.testing.assert_array_equal(
                view.column("region").dictionary, np.sort(np.unique(REGIONS))
            )
            # Stored columns hold no row values: scans must refuse, not lie.
            with pytest.raises(StorageError):
                view.scan("region", "=", "east")

    def test_introspection(self, store_dir, relation):
        store = IndexStore(store_dir)
        assert store.relations() == []
        store.build(relation)
        assert store.relations() == ["sales"]
        assert store.attributes("sales") == ["quantity", "region"]
        assert store.has("sales", "region")
        assert not store.has("sales", "discount")
        assert not store.has("orders")
        assert store.bitmap_source("sales", "discount") is None
        assert store.bitmap_source("orders", "region") is None
        assert store.total_bytes() == store.total_bytes("sales") > 0
        store.close()

    def test_build_summary_says_where_the_time_went(self, store_dir):
        relation = make_relation(50_000)
        with IndexStore(store_dir) as store:
            start = time.perf_counter()
            summary = store.build(relation)
            wall = time.perf_counter() - start
        seconds = summary["seconds"]
        assert list(seconds) == ["dictionary", "digits", "encode", "pack", "write"]
        assert all(spent > 0 for spent in seconds.values())
        assert 0.9 * wall <= sum(seconds.values()) <= wall

    def test_illegal_relation_names_rejected(self, store_dir):
        store = IndexStore(store_dir)
        for name in ("", ".", "..", "a/b", ".tmp-x"):
            with pytest.raises(StorageError):
                store.has(name)


class TestPackedWriter:
    @pytest.mark.parametrize("codec", ["dense", "wah", "roaring"])
    def test_build_and_append_cut_payloads_straight_from_digits(
        self, store_dir, relation, codec, monkeypatch
    ):
        # The mechanism: every stored slot is packed straight into the
        # codec's words from its digit column — no index, no dense bitmap,
        # no conversion — for a build and for an append with NULLs alike.
        rng = np.random.default_rng(5)
        rows = {"quantity": rng.integers(0, 40, 70), "region": REGIONS[rng.integers(0, 4, 70)]}
        nulls = rng.random(70) < 0.2
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(BitmapIndex, "__init__", counted("BitmapIndex", BitmapIndex.__init__))
        monkeypatch.setattr(BitVector, "__init__", counted("BitVector", BitVector.__init__))
        from_bools = BitVector.from_bools.__func__
        monkeypatch.setattr(BitVector, "from_bools", classmethod(counted("from_bools", from_bools)))
        for cls in BITMAP_CLASSES.values():
            original = cls.from_bitvector.__func__
            monkeypatch.setattr(cls, "from_bitvector", classmethod(counted(cls.codec, original)))
        with IndexStore(store_dir) as store:
            store.build(relation, codec=codec, base={"quantity": Base((8, 5)), "region": None})
            store.append("sales", rows, nulls={"quantity": nulls})
        assert calls == []
        monkeypatch.undo()
        # And what they wrote serves the bits an in-memory index holds.
        with IndexStore(store_dir) as store:
            for attr, base in (("quantity", Base((8, 5))), ("region", None)):
                column = relation.column(attr)
                values = np.concatenate(
                    [column.codes, np.searchsorted(column.dictionary, rows[attr])]
                )
                mask = np.concatenate([np.zeros(NUM_ROWS, bool), nulls])
                if base is None:
                    mask[:] = False
                reference = BitmapIndex(
                    np.where(mask, 0, values), column.cardinality, base=base, nulls=mask
                )
                source = store.bitmap_source("sales", attr)
                assert source.nbits == NUM_ROWS + 70
                all_slot_bools(source, reference)
                if base is None:
                    assert source.nonnull is None
                else:
                    assert np.array_equal(source.nonnull.to_bools(), ~mask)


class TestStorageProtocol:
    def test_io_snapshot_shape(self, store_dir, relation):
        store = IndexStore(store_dir)
        store.build(relation)
        snap = store.io_snapshot()
        assert snap["backend"] == "store"
        assert snap["bytes_written"] > 0
        for key in ("dict_bytes", "payload_bytes_read", "bitmaps_materialized",
                    "pages_touched", "opens"):
            assert key in snap

    def test_buffer_pool_fronts_a_storage_backend(self, store_dir, relation):
        with IndexStore(store_dir) as store:
            store.build(relation)
        store = IndexStore(store_dir)
        cache = SharedBitmapCache(4)
        source = CachedSource(store.bitmap_source("sales", "quantity"), cache, ())
        stats = ExecutionStats()
        first = source.fetch(1, 1, stats)
        again = source.fetch(1, 1, stats)
        assert np.array_equal(first.to_bools(), again.to_bools())
        assert cache.hits == 1

    def test_buffer_pool_rejects_a_store(self, store_dir):
        with pytest.raises(BufferConfigError, match=r"store\.bitmap_source\(relation"):
            BufferPool(IndexStore(store_dir), capacity=4)

    def test_pinned_pool_is_a_cache_closed_to_admission(self, store_dir, relation):
        with IndexStore(store_dir) as store:
            store.build(relation, base=Base((8, 5)))
        store = IndexStore(store_dir)
        pool = BufferPool(store.bitmap_source("sales", "quantity"), capacity=5)
        assert isinstance(pool.cache, SharedBitmapCache)
        assert len(pool.cache) == pool.assignment.total == 5
        for predicate in full_query_space(pool.cardinality):
            evaluate(pool, predicate, stats=ExecutionStats())
        # Misses went to the store and were not admitted: admitting one
        # into a full cache would have evicted another.
        assert pool.misses > 0 and pool.hits > 0
        assert len(pool.cache) == 5
        assert pool.cache.evictions == 0
        store.close()


class TestLazyLoading:
    def test_open_reads_dictionary_not_payloads(self, store_dir, relation):
        with IndexStore(store_dir) as store:
            store.build(relation)
        store = IndexStore(store_dir)
        source = store.bitmap_source("sales", "quantity")
        assert source is not None
        assert store.stats.opens == 1
        assert store.stats.dict_bytes > 0
        assert store.stats.payload_bytes_read == 0
        assert store.stats.bitmaps_materialized == 0

    def test_single_predicate_touches_only_its_payloads(self, store_dir, relation):
        with IndexStore(store_dir) as store:
            summary = store.build(relation, codec="wah")
        quantity_bytes = summary["attributes"]["quantity"]["payload_bytes"]
        engine = repro.open_store(store_dir)
        store = engine.storage
        engine.query(AttributePredicate("quantity", "<=", 7))
        # Only quantity payloads may have been materialized — strictly
        # fewer bytes than that attribute holds (a one-sided range query
        # never needs every slot), and none of region's.
        assert 0 < store.stats.payload_bytes_read < quantity_bytes
        assert store.stats.bitmaps_materialized < (
            summary["attributes"]["quantity"]["num_bitmaps"]
        )
        assert store.stats.pages_touched > 0
        engine.close()

    def test_dense_fetch_is_an_aligned_view_of_the_map(self, store_dir, relation):
        # This relation's dictionary alone would end off an 8-byte boundary.
        with IndexStore(store_dir) as store:
            store.build(relation, codec="dense")
        with IndexStore(store_dir) as store:
            bitmap = store.bitmap_source("sales", "quantity").fetch(1, 1, ExecutionStats())
            words = bitmap._words
            assert not words.flags.owndata
            assert words.ctypes.data % 8 == 0
            del words, bitmap

    def test_repeat_fetch_rereads_but_verifies_crc_once(self, store_dir, relation):
        with IndexStore(store_dir) as store:
            store.build(relation)
        store = IndexStore(store_dir)
        source = store.bitmap_source("sales", "quantity")
        stats = ExecutionStats()
        source.fetch(1, 1, stats)
        once = store.stats.payload_bytes_read
        source.fetch(1, 1, stats)
        assert store.stats.payload_bytes_read == 2 * once
        assert store.stats.bitmaps_materialized == 2


class TestAppendCompact:
    def test_append_merges_into_served_bitmaps(self, store_dir):
        base_rel = make_relation(500, seed=11)
        tail = make_relation(100, seed=12)
        full_quantity = np.concatenate(
            [base_rel.column("quantity").values, tail.column("quantity").values]
        )
        with IndexStore(store_dir) as store:
            store.build(base_rel)
            total = store.append(
                "sales",
                {
                    "quantity": tail.column("quantity").values,
                    "region": tail.column("region").values,
                },
            )
            assert total == 600
            assert store.delta_rows("sales") == 100
        engine = repro.open_store(store_dir)
        result = engine.query(AttributePredicate("quantity", "<=", 13))
        truth = np.nonzero(full_quantity <= 13)[0]
        np.testing.assert_array_equal(result.rids, truth)
        engine.close()

    def test_compact_differential_against_rebuild(self, store_dir):
        base_rel = make_relation(500, seed=21)
        tail = make_relation(100, seed=22)
        full = Relation.from_dict(
            "sales",
            {
                "quantity": np.concatenate(
                    [base_rel.column("quantity").values,
                     tail.column("quantity").values]
                ),
                "region": np.concatenate(
                    [base_rel.column("region").values,
                     tail.column("region").values]
                ),
            },
        )
        with IndexStore(store_dir) as store:
            store.build(base_rel, codec="wah")
            store.append(
                "sales",
                {
                    "quantity": tail.column("quantity").values,
                    "region": tail.column("region").values,
                },
            )
            summary = store.compact("sales")
            assert summary["compacted"] is True
            assert summary["rows"] == 600
            assert store.delta_rows("sales") == 0
            assert not os.path.exists(
                os.path.join(store.root, "sales.rbix.delta")
            )
            assert store.verify("sales") == []
        # Every compacted bitmap must equal the one a from-scratch build
        # over the concatenated rows would produce.
        with IndexStore(store_dir) as store:
            for attr in ("quantity", "region"):
                column = full.column(attr)
                source = store.bitmap_source("sales", attr)
                reference = BitmapIndex(
                    column.codes,
                    column.cardinality,
                    base=source.base,
                    encoding=source.encoding,
                )
                all_slot_bools(source, reference)

    def test_append_rejects_unknown_values(self, store_dir, relation):
        with IndexStore(store_dir) as store:
            store.build(relation)
            with pytest.raises(ValueOutOfRangeError, match="rebuild"):
                store.append(
                    "sales",
                    {
                        "quantity": np.array([1]),
                        "region": np.array(["atlantis"]),
                    },
                )

    def test_append_must_cover_all_attributes(self, store_dir, relation):
        with IndexStore(store_dir) as store:
            store.build(relation)
            with pytest.raises(ValueOutOfRangeError, match="every stored attribute"):
                store.append("sales", {"quantity": np.array([1])})

    def test_crash_during_append_leaves_store_intact(self, store_dir, relation):
        plan = FaultPlan(
            [FaultSpec("disk.write", "error", match=".rbix.delta")]
        )
        with IndexStore(store_dir) as store:
            store.build(relation)
        store = IndexStore(store_dir, fault_plan=plan)
        rows = {
            "quantity": np.array([3, 4]),
            "region": np.array(["east", "west"]),
        }
        with pytest.raises(InjectedFaultError):
            store.append("sales", rows)
        store.close()
        # Recovery: the base file never changed and no torn delta exists.
        with IndexStore(store_dir) as store:
            assert store.delta_rows("sales") == 0
            assert store.verify("sales") == []
            assert not any(
                name.startswith(".tmp-") for name in os.listdir(store.root)
            )
            # The failed append left nothing behind; retrying succeeds.
            assert store.append("sales", rows) == NUM_ROWS + 2

    @pytest.mark.parametrize("steps_survived", [0, 1, 2, "write fails"])
    def test_interrupted_rebuild_never_pairs_new_base_with_old_delta(
        self, store_dir, monkeypatch, steps_survived
    ):
        """A delta indexes the base it was appended to.  A rebuild of the
        same rows under another dictionary keeps the row count — all the
        sidecar records of its base — so the old delta beside the new base
        would be applied: old ranks read through the new dictionary.  Kill
        ``build`` before, between and after its two directory steps (the
        base rename and the delta unlink, in whichever order they come)."""

        class Killed(BaseException):
            pass

        rows = np.arange(1000) % 10
        with IndexStore(store_dir) as store:
            store.build(Relation.from_dict("t", {"a": rows}))
            store.append("t", {"a": np.array([3, 3, 3])})
        targets = [os.path.join(store_dir, "t.rbix" + end) for end in ("", ".delta")]
        done = []

        def killable(real):
            def step(*paths):
                if paths[-1] in targets:
                    if len(done) == steps_survived:
                        raise Killed
                    done.append(paths[-1])
                return real(*paths)

            return step

        monkeypatch.setattr(os, "replace", killable(os.replace))
        monkeypatch.setattr(os, "unlink", killable(os.unlink))
        plan = FaultPlan([FaultSpec("disk.write", "error", match=".rbix")])
        store = IndexStore(
            store_dir, fault_plan=plan if steps_survived == "write fails" else None
        )
        try:
            store.build(Relation.from_dict("t", {"a": rows + 100}))
        except (Killed, InjectedFaultError):
            pass
        monkeypatch.undo()
        assert len(done) == (steps_survived if steps_survived != "write fails" else 0)
        engine = repro.open_store(store_dir)
        served = engine.count("a = 3").count, engine.count("a = 103").count
        engine.close()
        old_base_and_delta, old_base, new_base = (103, 0), (100, 0), (0, 100)
        if steps_survived in (0, "write fails"):
            assert served == old_base_and_delta
        elif steps_survived == 1:
            assert served in (old_base, new_base)
        else:
            assert served == new_base

    def test_a_kill_at_any_step_reopens_to_a_committed_state(self, store_dir, monkeypatch):
        """Every crash point of build → append → append → compact → append →
        rebuild (the compacted rows under a new dictionary): each
        ``os.replace``, ``os.unlink`` and ``disk.write`` step is killed in
        turn, nothing after it runs, and the store is reopened.  It serves
        what the last operation that returned left, or what the killed one
        was writing — never a new base with an old delta, a delta applied
        twice, or a returned append dropped.  The one other state is the
        rebuild's own: it unlinks the delta it supersedes before its rename.
        And the reopened store takes the next append."""

        class Killed(BaseException):
            pass

        base = np.arange(1000) % 10
        batches = [np.array([3, 3, 3]), np.array([4, 4]), np.array([3])]
        compacted = np.concatenate([base, *batches[:2]])
        operations = [
            lambda store: store.build(Relation.from_dict("t", {"a": base})),
            lambda store: store.append("t", {"a": batches[0]}),
            lambda store: store.append("t", {"a": batches[1]}),
            lambda store: store.compact("t"),
            lambda store: store.append("t", {"a": batches[2]}),
            lambda store: store.build(Relation.from_dict("t", {"a": compacted + 100})),
        ]
        states = [
            None,
            base,
            compacted[:-2],
            compacted,
            compacted,
            np.concatenate([compacted, batches[2]]),
            compacted + 100,
        ]
        queries = ("a >= 0", "a = 3", "a = 4", "a = 103")

        def oracle(values):
            if values is None:
                return None
            return (len(values), *(int((values == v).sum()) for v in (3, 4, 103)))

        def served(root):
            if IndexStore(root).relations() == []:
                return None
            engine = repro.open_store(root)
            try:
                return tuple(engine.count(query).count for query in queries)
            finally:
                engine.close()

        def run(root, kill_at):
            """The operations, killed at step ``kill_at``: how many returned
            and how many steps were taken."""
            steps = 0
            plan = FaultPlan([])

            def step():
                nonlocal steps
                steps += 1
                if steps == kill_at:
                    raise Killed

            def counted(real):
                def call(*args, **kwargs):
                    if steps >= kill_at:
                        return None  # killed: not even clean-up runs
                    step()
                    return real(*args, **kwargs)

                return call

            def check(seam, ident=""):
                if seam == "disk.write":
                    step()
                return FaultPlan.check(plan, seam, ident)

            returned = 0
            with monkeypatch.context() as patch:
                patch.setattr(os, "replace", counted(os.replace))
                patch.setattr(os, "unlink", counted(os.unlink))
                patch.setattr(plan, "check", check)
                store = IndexStore(root, fault_plan=plan)
                try:
                    for operation in operations:
                        operation(store)
                        returned += 1
                except Killed:
                    pass
            store.close()
            return returned, steps

        whole = os.path.join(store_dir, "whole")
        returned, total = run(whole, kill_at=float("inf"))
        assert returned == len(operations) and total == 14
        assert served(whole) == oracle(states[-1])
        for kill_at in range(1, total + 1):
            root = os.path.join(store_dir, str(kill_at))
            returned, _ = run(root, kill_at)
            allowed = {oracle(states[returned]), oracle(states[returned + 1])}
            if returned == len(operations) - 1:
                allowed.add(oracle(compacted))
            got = served(root)
            assert got in allowed, (kill_at, returned, got)
            if got is not None:
                with IndexStore(root) as store:
                    value = store.relation_view("t").column("a").dictionary[0]
                    store.append("t", {"a": np.array([value])})
                assert served(root) == (got[0] + 1, *got[1:])

    def test_compact_is_idempotent(self, store_dir, relation):
        with IndexStore(store_dir) as store:
            store.build(relation)
            store.append(
                "sales",
                {"quantity": np.array([5]), "region": np.array(["east"])},
            )
            first = store.compact()
            second = store.compact()
        assert first["sales"]["compacted"] is True
        assert first["sales"]["rows"] == NUM_ROWS + 1
        assert second["sales"]["compacted"] is False
        assert second["sales"]["rows"] == NUM_ROWS + 1

    @pytest.mark.parametrize("codec", ["dense", "wah", "roaring"])
    def test_not_keeps_null_rows_out(self, store_dir, codec):
        # A NULL satisfies no predicate, negated or not: NOT must not bring
        # back the row the leaf masked out — over base + pending delta, and
        # after compaction — and with two attributes it equals its De
        # Morgan dual (row 11 has a NULL ``a`` and ``b = 1``: it stays in).
        relation = Relation.from_dict(
            "t", {"a": np.arange(10) % 5, "b": np.arange(10) % 2}
        )
        with IndexStore(store_dir) as store:
            store.build(relation, codec=codec)
            store.append(
                "t",
                {"a": np.array([1, 0, 4]), "b": np.array([0, 1, 0])},
                nulls={"a": np.array([False, True, False])},
            )
        engine = repro.open_store(store_dir)
        for compacted in (False, True):
            if compacted:
                engine.storage.compact("t")
            assert engine.storage.delta_rows("t") == (0 if compacted else 3)
            assert engine.query("a > 2").rids.tolist() == [3, 4, 8, 9, 12]
            assert engine.query("not a <= 2").rids.tolist() == [3, 4, 8, 9, 12]
            assert engine.count("not a <= 2").count == 5
            dual = engine.query("a <= 2 or b = 1").rids.tolist()
            assert 11 in dual
            assert engine.query("not (a > 2 and b != 1)").rids.tolist() == dual
        engine.close()


class TestCorruptionDetection:
    """Each region of the format detects damage with a typed error."""

    def build(self, store_dir, relation, with_delta=False) -> str:
        with IndexStore(store_dir) as store:
            store.build(relation)
            if with_delta:
                store.append(
                    "sales",
                    {"quantity": np.array([1]), "region": np.array(["east"])},
                )
        return os.path.join(store_dir, "sales.rbix")

    def test_bad_magic(self, store_dir, relation):
        path = self.build(store_dir, relation)
        flip_byte(path, 0)
        with pytest.raises(CorruptFileError, match="magic"):
            IndexStore(store_dir).bitmap_source("sales", "quantity")

    def test_header_field_flip(self, store_dir, relation):
        path = self.build(store_dir, relation)
        flip_byte(path, 9)  # inside dict_offset
        with pytest.raises(CorruptFileError):
            IndexStore(store_dir).bitmap_source("sales", "quantity")

    def test_dictionary_flip(self, store_dir, relation):
        path = self.build(store_dir, relation)
        with open(path, "rb") as handle:
            header = handle.read(_HEADER.size)
        magic, _, _, dict_offset, dict_length, _, _ = _HEADER.unpack(header)
        assert magic == _MAGIC
        flip_byte(path, dict_offset + dict_length // 2)
        with pytest.raises(CorruptFileError, match="dictionary"):
            IndexStore(store_dir).bitmap_source("sales", "quantity")

    def test_payload_flip_caught_at_fetch(self, store_dir, relation):
        path = self.build(store_dir, relation)
        flip_byte(path, os.path.getsize(path) - 1)  # last payload byte
        store = IndexStore(store_dir)
        # Lazy open still succeeds — the damage sits in a payload.
        sources = [
            store.bitmap_source("sales", attr)
            for attr in ("quantity", "region")
        ]
        problems = store.verify("sales")
        assert problems and "checksum" in problems[0]
        # Exhaustive fetch must surface the damage as a typed error,
        # never as a silently wrong bitmap.
        stats = ExecutionStats()
        with pytest.raises(CorruptFileError, match="checksum"):
            for source in sources:
                for comp in range(1, source.base.n + 1):
                    for slot in source.stored_slots(comp):
                        source.fetch(comp, slot, stats)

    def test_truncated_file_fails_bounds_check(self, store_dir, relation):
        path = self.build(store_dir, relation)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 16)
        with pytest.raises(CorruptFileError):
            IndexStore(store_dir).bitmap_source("sales", "quantity")

    @pytest.mark.parametrize("region", ["header", "dictionary", "last_payload"])
    def test_delta_flip(self, store_dir, relation, region):
        # Damage anywhere in the second of two delta images fails at open.
        self.build(store_dir, relation, with_delta=True)
        delta = os.path.join(store_dir, "sales.rbix.delta")
        second = os.path.getsize(delta) + -os.path.getsize(delta) % 8
        with IndexStore(store_dir) as store:
            store.append(
                "sales", {"quantity": np.array([2, 3]), "region": np.array(["west", "east"])}
            )
        with open(delta, "rb") as handle:
            handle.seek(second)
            _, _, _, dict_offset, dict_length, _, _ = _HEADER.unpack(handle.read(_HEADER.size))
        flip_byte(
            delta,
            {
                "header": second + 9,  # inside dict_offset
                "dictionary": second + dict_offset + dict_length // 2,
                "last_payload": os.path.getsize(delta) - 1,
            }[region],
        )
        with pytest.raises(CorruptFileError):
            IndexStore(store_dir).bitmap_source("sales", "quantity")
        assert IndexStore(store_dir).scrub() == ["sales"]
        assert sorted(os.listdir(os.path.join(store_dir, ".quarantine"))) == [
            "sales.rbix",
            "sales.rbix.delta",
        ]

    def test_a_json_delta_sidecar_is_refused(self, store_dir, relation):
        # The sidecar format before deltas were images: no migration, a
        # typed error that names the file.
        self.build(store_dir, relation)
        delta = os.path.join(store_dir, "sales.rbix.delta")
        document = {
            "relation": "sales",
            "base_nbits": NUM_ROWS,
            "rows": 1,
            "attributes": {
                "quantity": {"values": [1], "nulls": None},
                "region": {"values": [0], "nulls": None},
            },
        }
        with open(delta, "wb") as handle:
            handle.write(frame(b"\x89RBD", json.dumps(document).encode()))
        with pytest.raises(CorruptFileError, match=re.escape(delta)):
            IndexStore(store_dir).bitmap_source("sales", "quantity")

    @pytest.mark.parametrize(
        "other",
        [{"base": {"quantity": Base((8, 5)), "region": None}}, {"codec": "roaring"}],
        ids=["base", "codec"],
    )
    def test_a_delta_indexed_unlike_the_base_file_is_corrupt(
        self, store_dir, tmp_path, relation, other
    ):
        # A sound sidecar, but of a store built another way: beside this
        # base file it would serve another base's slots, or mix codecs.
        elsewhere = str(tmp_path / "elsewhere")
        with IndexStore(elsewhere) as store:
            store.build(relation, **other)
            store.append("sales", {"quantity": np.array([1]), "region": np.array(["east"])})
        self.build(store_dir, relation)
        shutil.copy(os.path.join(elsewhere, "sales.rbix.delta"), store_dir)
        with pytest.raises(CorruptFileError, match="does not index"):
            IndexStore(store_dir).bitmap_source("sales", "quantity")

    def test_injected_read_corruption_is_typed(self, store_dir, relation):
        self.build(store_dir, relation)
        plan = FaultPlan([FaultSpec("disk.read", "corrupt")])
        store = IndexStore(store_dir, fault_plan=plan)
        source = store.bitmap_source("sales", "quantity")
        with pytest.raises(CorruptFileError, match="checksum"):
            source.fetch(1, 1, ExecutionStats())

    def test_faulted_read_of_a_verified_entry_is_verified_again(
        self, store_dir, relation
    ):
        self.build(store_dir, relation)
        plan = FaultPlan([FaultSpec("disk.read", "corrupt", nth=2)])
        store = IndexStore(store_dir, fault_plan=plan)
        source = store.bitmap_source("sales", "quantity")
        source.fetch(1, 1, ExecutionStats())  # clean: its CRC is now remembered
        with pytest.raises(CorruptFileError, match="checksum"):
            source.fetch(1, 1, ExecutionStats())
        source.fetch(1, 1, ExecutionStats())  # the fault is spent

    @pytest.mark.parametrize("kind", ["error", "torn", "corrupt", None])
    def test_read_fault_applies_each_kind(self, kind):
        # The one disk.read block both disks and the store call.
        data = bytes(range(64))
        plan = FaultPlan([FaultSpec("disk.read", kind)] if kind else [], seed=5)
        if kind == "error":
            with pytest.raises(InjectedFaultError, match="some/file"):
                read_fault(plan, "some/file", data)
        elif kind == "torn":
            assert read_fault(plan, "some/file", data) == data[:32]
        elif kind == "corrupt":
            mutated = read_fault(plan, "some/file", data)
            flipped = [i for i in range(64) if mutated[i] != data[i]]
            assert len(mutated) == 64 and len(flipped) == 1
            assert mutated[flipped[0]] == data[flipped[0]] ^ 0xFF
            plan.reset()  # same seed, same byte
            assert read_fault(plan, "some/file", data) == mutated
            empty = FaultPlan([FaultSpec("disk.read", "corrupt")])
            assert read_fault(empty, "some/file", b"") == b""  # no byte to flip
        # No plan, no armed spec, a spent spec: the same object comes back.
        assert read_fault(plan, "some/file", data) is data
        assert read_fault(None, "some/file", data) is data
        assert len(plan.injections) == (1 if kind else 0)

    @staticmethod
    def write_equality_file(store_dir, declared_rows, codec, payload_of):
        """A CRC-clean ``sales.rbix`` over ``arange(200) % 5`` whose slot
        payloads are whatever ``payload_of(bitmap)`` returns."""
        values = np.arange(200) % 5
        index = BitmapIndex(values, 5, encoding=EncodingScheme.EQUALITY)
        cls = repro.bitmaps.bitmap_class(codec)

        class Stored:
            def __init__(self, bitmap):
                self.bitmap = bitmap

            def to_payload(self):
                return payload_of(self.bitmap)

        chunks, _ = _relation_chunks(
            "sales",
            declared_rows,
            {
                "a": {
                    "cardinality": 5,
                    "base": index.base,
                    "encoding": index.encoding,
                    "codec": codec,
                    "value_size_bytes": 8,
                    "dictionary": None,
                    "bitmaps": {
                        (1, slot): Stored(
                            cls.from_bitvector(index.components[0].bitmap(slot))
                        )
                        for slot in index.stored_slots(1)
                    },
                    "nonnull": None,
                }
            },
        )
        os.makedirs(store_dir)
        with open(os.path.join(store_dir, "sales.rbix"), "wb") as handle:
            handle.write(b"".join(chunks))

    @pytest.mark.parametrize("codec", ["dense", "wah", "roaring"])
    def test_payload_of_another_bit_length_is_corrupt(self, store_dir, codec):
        # A well-formed, CRC-clean file whose payloads were built at 200
        # rows under a dictionary that says 100: only the payload's own
        # length field can tell.
        self.write_equality_file(store_dir, 100, codec, lambda b: b.to_payload())
        with IndexStore(store_dir) as store:
            assert store.verify("sales") == []  # every checksum holds
            source = store.bitmap_source("sales", "a")
            with pytest.raises(CorruptFileError, match="payload"):
                source.fetch(1, 2, ExecutionStats())
        engine = repro.open_store(store_dir)
        with pytest.raises(CorruptFileError):
            engine.query("a = 2")
        engine.close()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: p + b"\x00",  # body not word-aligned
            lambda p: p[:-4],  # decodes to too few groups
            lambda p: p + p[-4:],  # decodes to too many groups
            lambda p: p[:5],  # shorter than its own header
        ],
        ids=["unaligned", "too_few_groups", "too_many_groups", "no_header"],
    )
    def test_damaged_wah_run_words_are_corrupt_at_the_fetch(self, store_dir, damage):
        # CRC-clean and the right declared length, but the run words are
        # wrong: the fetch itself must say so, not the first operation on
        # a bitmap that was handed out and cached.
        self.write_equality_file(
            store_dir, 200, "wah", lambda b: damage(b.to_payload())
        )
        with IndexStore(store_dir) as store:
            assert store.verify("sales") == []
            source = store.bitmap_source("sales", "a")
            with pytest.raises(CorruptFileError, match="payload"):
                source.fetch(1, 2, ExecutionStats())

    @staticmethod
    def version_1(bitmap):
        """A version-1 Roaring payload: each container's key, kind and
        count before its body (here one array container)."""
        values = bitmap.indices().astype("<u2")
        head = struct.pack("<4sBBQIHBI", b"ROAR", 1, 0, bitmap.nbits, 1, 0, 0, len(values))
        return head + values.tobytes()

    def test_roaring_file_from_before_payload_version_2_is_refused_at_open(
        self, store_dir, monkeypatch
    ):
        # Such a file records no payload version for its Roaring attribute,
        # and its checksums hold.
        with monkeypatch.context() as patch:
            patch.setattr(repro.bitmaps.RoaringBitmap, "payload_version", 1)
            self.write_equality_file(store_dir, 200, "roaring", self.version_1)
        with IndexStore(store_dir) as store:
            with pytest.raises(CorruptFileError, match="payloads of version 1"):
                store.bitmap_source("sales", "a")
            (problem,) = store.verify("sales")
            assert "payloads of version 1; this reader reads version 2" in problem
            assert store.scrub() == ["sales"]
            assert store.relations() == []
        assert os.listdir(os.path.join(store_dir, ".quarantine")) == ["sales.rbix"]

    def test_version_1_roaring_payload_is_corrupt_at_the_fetch(self, store_dir):
        # The file records payload version 2, but a payload is version 1.
        # Its checksum holds; the fetch refuses it.
        self.write_equality_file(store_dir, 200, "roaring", self.version_1)
        with IndexStore(store_dir) as store:
            source = store.bitmap_source("sales", "a")
            with pytest.raises(CorruptFileError, match="unsupported version 1"):
                source.fetch(1, 2, ExecutionStats())
        with repro.open_store(store_dir) as engine:
            with pytest.raises(CorruptFileError, match="version 1"):
                engine.query("a = 2")

    def test_zero_length_fill_words_are_still_accepted_at_the_fetch(self, store_dir):
        def with_empty_fills(bitmap):
            payload = bitmap.to_payload()
            return payload[:8] + b"\x00\x00\x00\x80" + payload[8:] + b"\x00\x00\x00\xc0"

        self.write_equality_file(store_dir, 200, "wah", with_empty_fills)
        with IndexStore(store_dir) as store:
            source = store.bitmap_source("sales", "a")
            fetched = source.fetch(1, 2, ExecutionStats())
        assert fetched.indices().tolist() == list(range(2, 200, 5))

    def test_scrub_quarantines_corrupt_relations(self, store_dir, relation):
        path = self.build(store_dir, relation)
        flip_byte(path, os.path.getsize(path) - 1)
        store = IndexStore(store_dir)
        assert store.scrub() == ["sales"]
        assert store.relations() == []
        sheltered = os.listdir(os.path.join(store_dir, ".quarantine"))
        assert "sales.rbix" in sheltered
        with pytest.raises(FileMissingError):
            store.verify("sales")
        # The store is immediately rebuildable in place.
        store.build(relation)
        assert store.verify("sales") == []

    def test_missing_relation_raises(self, store_dir):
        store = IndexStore(store_dir)
        with pytest.raises(FileMissingError):
            store.verify("ghost")


class TestEngineIntegration:
    def test_open_store_serves_ground_truth(self, store_dir, relation):
        with IndexStore(store_dir) as store:
            store.build(relation)
        engine = repro.open_store(store_dir)
        quantity = relation.column("quantity").values
        region = relation.column("region").values
        result = engine.query(AttributePredicate("quantity", ">", 30))
        np.testing.assert_array_equal(
            result.rids, np.nonzero(quantity > 30)[0]
        )
        result = engine.query(AttributePredicate("region", "=", "west"))
        np.testing.assert_array_equal(
            result.rids, np.nonzero(region == "west")[0]
        )
        engine.close()

    def test_explain_reports_real_io_counters(self, store_dir, relation):
        with IndexStore(store_dir) as store:
            store.build(relation)
        engine = repro.open_store(store_dir)
        report = engine.explain(AttributePredicate("quantity", "<=", 3))
        assert report.storage_io is not None
        assert report.storage_io["backend"] == "store"
        assert report.storage_io["payload_bytes_read"] > 0
        assert report.storage_io["bitmaps_materialized"] > 0
        text = report.format()
        assert "storage I/O" in text
        assert "payload bytes read" in text
        assert report.as_dict()["storage_io"]["backend"] == "store"
        engine.close()

    def test_engine_close_releases_store(self, store_dir, relation):
        with IndexStore(store_dir) as store:
            store.build(relation)
        engine = repro.open_store(store_dir)
        engine.query(AttributePredicate("quantity", "<=", 3))
        engine.close()
        assert engine.storage._files == {}


class TestNoInvalidateNeeded:
    """No mutation needs ``engine.invalidate()`` for correctness: not one
    made through the store, nor registering a name again.

    The regressions: after ``engine.storage.append(...)`` the engine kept
    answering from the memoized source and the cached bitmaps of the old
    generation — stale RIDs with no error, a ``LengthMismatchError`` on
    range-encoded columns, ``mmap closed or invalid`` after a compact; and
    a relation registered again under its name was answered from the old
    relation's indexes.
    """

    TEXT = And(Comparison("quantity", "<=", 13), Comparison("region", "=", "west"))

    @staticmethod
    def truth(relation: Relation) -> np.ndarray:
        quantity = relation.column("quantity").values
        region = relation.column("region").values
        return (quantity <= 13) & (region == "west")

    def check(self, engine, relation: Relation, finish: str) -> None:
        mask = self.truth(relation)
        if finish == "query":
            np.testing.assert_array_equal(
                engine.query(self.TEXT).rids, np.nonzero(mask)[0]
            )
        elif finish == "count":
            assert engine.count(self.TEXT).count == int(mask.sum())
        else:
            region = relation.column("region").values
            groups = engine.group_count(self.TEXT, "region").groups
            assert groups == {
                name: int((mask & (region == name)).sum()) for name in REGIONS
            }

    @pytest.mark.parametrize("finish", ["query", "count", "group_count"])
    @pytest.mark.parametrize("codec", ["dense", "wah", "roaring"])
    @pytest.mark.parametrize("mutation", ["append", "compact", "rebuild"])
    def test_answers_follow_the_store(self, store_dir, mutation, codec, finish):
        before, tail = make_relation(500, seed=11), make_relation(100, seed=12)
        with IndexStore(store_dir) as store:
            store.build(
                before,
                codec=codec,
                encoding={
                    "quantity": EncodingScheme.RANGE,
                    "region": EncodingScheme.EQUALITY,
                },
            )
        engine = repro.open_store(store_dir)
        self.check(engine, before, finish)  # memoize sources, fill the cache
        version = engine.storage.bitmap_source("sales", "region").version
        if mutation == "rebuild":
            after = make_relation(700, seed=13)
            engine.storage.build(after, codec=codec)
        else:
            after = Relation.from_dict(
                "sales",
                {
                    name: np.concatenate(
                        [before.column(name).values, tail.column(name).values]
                    )
                    for name in ("quantity", "region")
                },
            )
            engine.storage.append(
                "sales", {name: tail.column(name).values for name in after.columns}
            )
            if mutation == "compact":
                self.check(engine, after, finish)  # serve base + delta first
                engine.storage.compact("sales")
        assert engine.storage.bitmap_source("sales", "region").version > version
        self.check(engine, after, finish)
        engine.close()

    @pytest.mark.parametrize("finish", ["query", "count", "group_count"])
    @pytest.mark.parametrize("codec", ["dense", "wah", "roaring"])
    def test_answers_follow_a_reregistered_relation(self, codec, finish):
        """Registering a name again is the in-memory mutation: the next
        query answers from the new columns, not from the old indexes."""
        engine = repro.QueryEngine(codec=codec, backend="inline")
        for relation in (make_relation(500, seed=11), make_relation(700, seed=13)):
            engine.register(relation)
            self.check(engine, relation, finish)
        engine.close()

    def test_invalidating_an_attribute_after_the_store_moved_reads_it(self, store_dir):
        """``invalidate(name, attribute)`` after a rebuild of the store does
        not keep the old relation view under the new generation.  The
        regression: constants translated through the old dictionary were
        evaluated on the new bitmaps (100 rows, not 40), query after query."""
        with IndexStore(store_dir) as store:
            store.build(Relation.from_dict("t", {"a": np.arange(100) % 10}))
        engine = repro.open_store(store_dir, backend="inline")
        assert engine.count("a <= 6").count == 70
        engine.storage.build(Relation.from_dict("t", {"a": np.arange(100) % 5 + 5}))
        engine.invalidate("t", "a")
        assert engine.count("a <= 6").count == 40
        assert engine.query("a <= 6").rids.tolist() == [r for r in range(100) if r % 5 <= 1]
        engine.close()

    def test_changed_spec_rebuilds_only_that_attribute(self, relation):
        engine = repro.QueryEngine(backend="inline")
        engine.register(relation)
        self.check(engine, relation, "group_count")
        region = engine.registration("sales").indexes.peek("region")
        engine.register(
            relation,
            overrides={"quantity": IndexSpec(base=Base((5, 8)), encoding=EncodingScheme.EQUALITY)},
        )
        assert engine.registration("sales").indexes.peek("quantity") is None
        assert engine.registration("sales").indexes.peek("region") is region
        report = engine.explain(self.TEXT)
        assert report.matches_prediction
        quantity = engine.registration("sales").indexes.peek("quantity")
        assert (quantity.base, quantity.encoding) == (Base((5, 8)), EncodingScheme.EQUALITY)
        self.check(engine, relation, "query")
        engine.close()

    @pytest.mark.parametrize("codec", ["dense", "wah", "roaring"])
    @pytest.mark.parametrize("backend", ["inline", "processes"])
    def test_answers_follow_another_store_on_the_directory(self, store_dir, backend, codec):
        """Two stores over one directory: the reader re-reads a relation
        whose files the writer changed on disk, after an append and after
        a compact, and its own append follows them.  The regression: the
        reader kept serving the files it had opened, and missed the
        appended row 8."""
        column = {"x": np.array([0, 1, 2, 3, 0, 1, 2, 3])}
        with IndexStore(store_dir) as store:
            store.build(Relation.from_dict("r", column), codec=codec)
        writer = repro.open_store(store_dir)
        reader = repro.open_store(store_dir, backend=backend)
        try:
            assert reader.query("x <= 1").rids.tolist() == [0, 1, 4, 5]
            writer.storage.append("r", {"x": np.array([1, 3])})
            assert reader.query("x <= 1").rids.tolist() == [0, 1, 4, 5, 8]
            writer.storage.compact("r")
            assert reader.query("x <= 1").rids.tolist() == [0, 1, 4, 5, 8]
            reader.storage.append("r", {"x": np.array([0])})
            assert writer.query("x <= 1").rids.tolist() == [0, 1, 4, 5, 8, 10]
        finally:
            reader.close()
            writer.close()

    def test_explicit_invalidate_still_works(self, store_dir, relation):
        with IndexStore(store_dir) as store:
            store.build(relation)
        engine = repro.open_store(store_dir)
        self.check(engine, relation, "count")
        engine.invalidate("sales")
        engine.invalidate()
        self.check(engine, relation, "query")
        engine.close()


def race_writer(root: str, barrier, done, job: str, value: int, rounds: int) -> None:
    """One writer process of :class:`TestConcurrentWriters`: its own store
    over ``root``, released with the others by ``barrier``.  An appender
    makes ``rounds`` two-row appends of ``value`` and then sets ``done``;
    a compactor compacts over and over until an appender is done."""
    store = IndexStore(root)
    barrier.wait(timeout=60)
    if job == "append":
        for _ in range(rounds):
            store.append("r", {"x": np.array([value, value])})
        done.set()
    else:
        while not done.is_set():
            store.compact("r")
    store.close()


class TestConcurrentWriters:
    """Writers in separate processes on one directory serialize: every
    append a writer made is on disk afterwards, whatever ran beside it.

    The regression: each writer read the sidecar, added its image and
    replaced the file, so the last replace won and the other writer's
    rows were gone — with both processes exiting 0.  A compaction racing
    an append lost the append the same way.
    """

    BASE_ROWS = 40
    ROUNDS = 5

    def race(self, store_dir: str, jobs: list[tuple[str, int]]) -> IndexStore:
        """Build ``r`` — values 0-5, then one 6 and one 7 so both are in its
        dictionary — and run one writer process per ``(job, value)`` at once."""
        values = np.append(np.arange(self.BASE_ROWS - 2) % 6, [6, 7])
        with IndexStore(store_dir) as store:
            store.build(Relation.from_dict("r", {"x": values}), codec="wah")
        context = multiprocessing.get_context("fork")
        barrier, done = context.Barrier(len(jobs)), context.Event()
        writers = [
            context.Process(
                target=race_writer, args=(store_dir, barrier, done, job, value, self.ROUNDS)
            )
            for job, value in jobs
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert [writer.exitcode for writer in writers] == [0] * len(writers)
        return IndexStore(store_dir)

    def assert_every_append_answers(self, store_dir: str, appenders: int) -> None:
        """The appended rows are the ones past the base holding 6 or 7, and
        each appending writer's ``2 * ROUNDS`` rows are there."""
        appended = 2 * self.ROUNDS * appenders
        engine = repro.open_store(store_dir)
        try:
            rids = engine.query("x >= 6").rids.tolist()
            assert rids == [self.BASE_ROWS - 2, self.BASE_ROWS - 1] + list(
                range(self.BASE_ROWS, self.BASE_ROWS + appended)
            )
            counts = engine.group_count("x >= 6", "x").groups
            assert counts[6] + counts[7] == 2 + appended
        finally:
            engine.close()

    def test_appends_racing_appends_all_land(self, store_dir):
        store = self.race(store_dir, [("append", 6), ("append", 7)])
        try:
            assert store.delta_rows("r") == 4 * self.ROUNDS
        finally:
            store.close()
        self.assert_every_append_answers(store_dir, appenders=2)

    def test_compactions_racing_appends_lose_none(self, store_dir):
        store = self.race(store_dir, [("compact", 0), ("append", 6)])
        try:
            view = store.relation_view("r")
            assert view.num_rows == self.BASE_ROWS + 2 * self.ROUNDS
        finally:
            store.close()
        self.assert_every_append_answers(store_dir, appenders=1)


class TestFormatPin:
    """Stored bytes are part of the contract: SHA-256 of each format, taken
    when the dictionary was padded to put payloads on an 8-byte boundary
    and a delta became one ``.rbix`` image per append (every payload byte
    as before).  The ``segment`` pins are of the ``.rbix`` image a shard
    is published as."""

    PINS = {
        "dense": {
            "rbix": "1f76abe79a9111eda7c3f1909ac48cb46ccb69533a198eb967dc349d25c9a7b0",
            "delta": "2b49ab336d54ec95e3fe3c25236620370ffcb91071a507636611b97d98806a7f",
            "compacted": "9f56b0f05c643fa8bee14b4f7daa742792744977a88ab6bcd0a3daa68c698366",
            "segment": "29de3fba565f80e9bb2fb7f1dc0e1c0b18888b80111e2ca473484d4eac380c9d",
        },
        "wah": {
            "rbix": "af3a8c7f2bda16d72bf3434d8cd9246e0e269e597e5a43721cf3b9edff20d120",
            "delta": "c1ad8bf446f8b261f494569b593d58bd02fe388bcb85e7ab766ba17ad6012df4",
            "compacted": "8bc00f074a47bc241e8aab5a7e0101235fc35040bd080e6c700cc7f8e51ab7bf",
            "segment": "3038300f7773c2ea63cc1272dc89067bb5d76576bcad2b55c91533aa3f2cc48f",
        },
        "roaring": {
            "rbix": "6175234fcfe46ec71be2aea5544242ecde00c20d0ff623406c10f3b6f0251bbe",
            "delta": "150a67b1b90a6017f91073892f8382614a77f2154903a6bd51628d1cdb3b46aa",
            "compacted": "931113192978f905407e1380d3c42f72df1e7991675c053c2854a8a62fbecd1e",
            "segment": "513a68f9c965970fa67e7c4ad0fbd7d6b4a404094809cfc01e98ad937ab8cabb",
        },
    }
    TABLE = "8474f4e7101fea508d2aa83c23889630128548c18c67feb9840a5fcfa60393c2"

    @staticmethod
    def sha(path_or_bytes) -> str:
        if isinstance(path_or_bytes, str):
            with open(path_or_bytes, "rb") as handle:
                path_or_bytes = handle.read()
        return hashlib.sha256(bytes(path_or_bytes)).hexdigest()

    @pytest.mark.parametrize("codec", ["dense", "wah", "roaring"])
    def test_store_and_shard_bytes(self, store_dir, codec):
        rng = np.random.default_rng(1998)
        nulls_rng = np.random.default_rng(7)
        relation = Relation.from_dict(
            "pins",
            {
                "quantity": rng.integers(0, 40, 1000),
                "region": REGIONS[rng.integers(0, 4, 1000)],
            },
        )
        main = os.path.join(store_dir, "pins.rbix")
        with IndexStore(store_dir) as store:
            store.build(
                relation,
                codec=codec,
                base={"quantity": Base((8, 5)), "region": None},
                encoding={
                    "quantity": EncodingScheme.RANGE,
                    "region": EncodingScheme.EQUALITY,
                },
            )
            assert self.sha(main) == self.PINS[codec]["rbix"]
            store.append(
                "pins",
                {
                    "quantity": rng.integers(0, 40, 50),
                    "region": REGIONS[rng.integers(0, 4, 50)],
                },
                nulls={"quantity": nulls_rng.random(50) < 0.1},
            )
            assert self.sha(main + ".delta") == self.PINS[codec]["delta"]
            store.compact("pins")
            assert self.sha(main) == self.PINS[codec]["compacted"]
        column = relation.column("quantity")
        index = BitmapIndex(
            column.codes,
            cardinality=column.cardinality,
            base=Base((8, 5)),
            encoding=EncodingScheme.RANGE,
            keep_values=False,
        )
        index.delete(3)  # publishes an existence bitmap too
        # Shard 0 of the cut, byte-identical to the per-shard build it
        # replaced: an index over rows [0, 500) alone.
        export = ShardExport(index, shard_bounds(index.nbits, 2), codec)
        try:
            assert self.sha(segment_image(export)) == self.PINS[codec]["segment"]
        finally:
            export.close()

    @pytest.mark.parametrize("codec", ["dense", "wah", "roaring"])
    def test_a_published_segment_is_an_rbix_file(self, store_dir, codec):
        # One format, asserted and not only pinned: the bytes a worker
        # attaches to open as a store file and serve the shard's bitmaps.
        rng = np.random.default_rng(3)
        values, nulls = rng.integers(0, 40, 500), rng.random(500) < 0.1
        bounds = shard_bounds(500, 2)
        export = ShardExport(BitmapIndex(values, 40, Base((8, 5)), nulls=nulls), bounds, codec)
        try:
            images = [segment_image(export, shard) for shard in range(2)]
        finally:
            export.close()
        os.makedirs(store_dir)
        for image, (start, stop) in zip(images, bounds):
            # A shard serves what an index of its rows alone would.
            index = BitmapIndex(values[start:stop], 40, Base((8, 5)), nulls=nulls[start:stop])
            with open(os.path.join(store_dir, f"{_IMAGE_NAME}.rbix"), "wb") as fh:
                fh.write(image)
            with IndexStore(store_dir) as store:
                assert store.verify(_IMAGE_NAME) == []
                assert store.attributes(_IMAGE_NAME) == [_IMAGE_NAME]
                source = store.bitmap_source(_IMAGE_NAME, _IMAGE_NAME)
                assert source.stored_codec == codec
                assert (source.nbits, source.base) == (index.nbits, index.base)
                all_slot_bools(source, index)
                assert np.array_equal(
                    source.nonnull.to_bools(), index.nonnull.to_bools()
                )

    def test_saved_table_bytes(self, tmp_path):
        rows = np.arange(100)
        table = repro.Table("pins", {"quantity": rows % 40, "region": REGIONS[rows % 4]})
        table.create_index("quantity", base=Base((8, 5)))
        table.create_index("region", encoding=EncodingScheme.EQUALITY)
        table.save(str(tmp_path / "pins.rbt"))
        assert self.sha(str(tmp_path / "pins.rbt")) == self.TABLE
