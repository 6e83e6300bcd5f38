"""One served source per attribute: the engine resolves an attribute once,
not per query.

The engine keeps one :class:`~repro.engine.cache.CachedSource` per
attribute of a registration record, built on the attribute's first query
and kept with the record.  So its version-keyed ``nonnull`` memo holds across
queries (``B_nn`` is read once per version), while everything that moves
what an attribute serves still reaches the next query: in-place
maintenance, a store append or compaction, a fault plan armed later.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.engine.cache import CachedSource
from repro.engine.engine import QueryEngine
from repro.faults import FaultPlan, FaultSpec
from repro.query.expression import parse_expression
from repro.query.options import QueryOptions
from repro.relation.relation import Relation
from repro.storage import IndexStore

from conftest import backend_engines, kleene

CODECS = ("dense", "wah", "roaring")
QUERIES = ["a <= 4", "a <= 4 and b = 1", "not a > 6", "a <= 4 xor b = 1", "b != 2"]


def nullable_store(root: str, codec: str) -> tuple[Relation, dict]:
    """A store of ``t(a, b)`` whose appended rows hold NULLs in both
    attributes; returns the grown relation and its known-row masks."""
    rng = np.random.default_rng(21)
    columns = {"a": rng.integers(0, 10, 600), "b": rng.integers(0, 4, 600)}
    with IndexStore(root) as store:
        store.build(Relation.from_dict("t", columns), codec=codec)
        tail = {"a": np.array([3, 4, 9, 0, 5, 2]), "b": np.array([1, 0, 1, 3, 1, 2])}
        nulls = {
            "a": np.array([True, False, False, True, False, False]),
            "b": np.array([False, True, False, False, True, False]),
        }
        store.append("t", tail, nulls=nulls)
    grown = {name: np.append(columns[name], tail[name]) for name in columns}
    known = {name: np.append(np.ones(600, bool), ~nulls[name]) for name in columns}
    return Relation.from_dict("t", grown), known


@pytest.mark.parametrize("codec", CODECS)
def test_warm_counts_read_b_nn_once_per_version(tmp_path, codec):
    """Ten warm ``count``s decode no bitmap: not with a delta pending, whose
    ``B_nn`` is merged from two images, and not after ``compact``."""
    root = str(tmp_path)
    nullable_store(root, codec)
    with repro.open_store(root, backend="inline") as engine:
        store = engine.storage
        for phase in ("delta pending", "compacted"):
            engine.count("a <= 4")  # fills the cache and reads B_nn
            before = store.io_snapshot()["bitmaps_materialized"]
            for _ in range(10):
                engine.count("a <= 4")
            assert store.io_snapshot()["bitmaps_materialized"] == before, phase
            store.compact("t")


def test_warm_queries_build_no_served_source(monkeypatch):
    """A warm query resolves no codec and builds no ``CachedSource``, and
    still looks each of its attributes' entries up in its record once."""
    rng = np.random.default_rng(2)
    columns = {"a": rng.integers(0, 10, 500), "b": rng.integers(0, 4, 500)}
    relation = Relation.from_dict("t", columns)
    built = []
    with QueryEngine(backend="inline") as engine:
        engine.register(relation)
        engine.query("a <= 4 and b = 1")
        codec_for = QueryEngine._codec_for
        init = CachedSource.__init__
        monkeypatch.setattr(
            QueryEngine, "_codec_for", lambda *args: built.append("codec") or codec_for(*args)
        )

        def counted(self, *args):
            built.append("source")
            init(self, *args)

        monkeypatch.setattr(CachedSource, "__init__", counted)
        reuses = engine.snapshot()["registry"]["reuses"]
        for _ in range(20):
            engine.query("a <= 4 and b = 1")
        assert built == []
        assert engine.snapshot()["registry"]["reuses"] == reuses + 40


@pytest.mark.parametrize("codec", CODECS)
def test_threads_batch_over_a_nullable_relation_agrees_with_inline(tmp_path, codec):
    root = str(tmp_path)
    relation, known = nullable_store(root, codec)
    with backend_engines(
        storage=IndexStore(root), backends=("inline", "threads"), max_workers=2
    ) as (inline, threads):
        for _ in range(2):  # cold, then warm
            local, pooled = inline.query_batch(QUERIES), threads.query_batch(QUERIES)
            for text, a, b in zip(QUERIES, local, pooled):
                true, _ = kleene(parse_expression(text), relation, known)
                assert a.rids.tolist() == np.nonzero(true)[0].tolist(), text
                assert np.array_equal(a.rids, b.rids), text


def test_a_fault_plan_armed_after_warm_up_reaches_the_cache_seam():
    relation = Relation.from_dict("t", {"a": np.arange(200) % 10})
    with QueryEngine(backend="inline") as engine:
        engine.register(relation)
        cold = engine.query("a <= 4")
        assert engine.query("a <= 4").stats.buffer_hits == cold.stats.scans
        plan = engine.fault_plan = FaultPlan([FaultSpec("cache.get", "miss", count=-1)])
        forced = engine.query("a <= 4")
        assert (forced.stats.buffer_hits, forced.stats.scans) == (0, cold.stats.scans)
        assert plan.injections
        assert np.array_equal(forced.rids, cold.rids)


def test_a_traced_cache_hit_names_its_relation_and_attribute():
    relation = Relation.from_dict("t", {"a": np.arange(200) % 10})
    with QueryEngine(backend="inline") as engine:
        engine.register(relation)
        engine.count("a <= 4")
        trace = engine.count("a <= 4", options=QueryOptions(trace=True)).trace
        hits = [span.attrs for span in trace.spans if span.name == "cache.hit"]
        assert hits and {(hit["relation"], hit["attribute"]) for hit in hits} == {("t", "a")}


def test_a_process_dispatch_leaves_the_cache_alone(engines):
    rng = np.random.default_rng(5)
    columns = {"a": rng.integers(0, 10, 800), "b": rng.integers(0, 4, 800)}
    relation = Relation.from_dict("t", columns)
    (processes,) = engines(relation, ("processes",), max_workers=2)
    counters = ("hits", "misses", "size")
    before = {key: processes.cache.snapshot()[key] for key in counters}
    processes.query_batch(QUERIES)
    processes.count("a <= 4 xor b = 1")
    processes.group_count("a <= 4", "b")
    assert {key: processes.cache.snapshot()[key] for key in counters} == before


def test_a_drop_during_a_served_source_build_wins(monkeypatch):
    """A re-registration that lands between a query's registry lookup and
    the store of its new served source: that query answers from the index
    it looked up, and the next one from the new relation."""
    relations = [Relation.from_dict("t", {"a": np.arange(60) % m}) for m in (10, 5)]
    with QueryEngine(backend="inline") as engine:
        engine.register(relations[0])
        codec_for = QueryEngine._codec_for

        def racing(self, *args):
            monkeypatch.setattr(QueryEngine, "_codec_for", codec_for)  # once
            self.register(relations[1])
            return codec_for(self, *args)

        monkeypatch.setattr(QueryEngine, "_codec_for", racing)
        assert engine.count("a <= 4").count == 30
        assert engine.count("a <= 4").count == 60
