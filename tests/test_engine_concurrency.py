"""Stress and correctness tests for the concurrent :class:`QueryEngine`.

A mixed batch of predicates runs from many threads against one engine;
every result must be bit-identical to the sequential ground truth, the
shared cache's counters must stay consistent under contention
(``hits + misses == fetches == scans + buffer_hits``), and racing first
queries must build each attribute's index exactly once.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.engine import IndexSpec, QueryEngine
from repro.engine import engine as engine_module
from repro.engine.cache import SharedBitmapCache
from repro.errors import EngineConfigError
from repro.query.predicate import AttributePredicate
from repro.relation.relation import Relation
from repro.storage import IndexStore

NUM_ROWS = 8_000
OPS = ("<", "<=", "=", "!=", ">=", ">")


@pytest.fixture(scope="module")
def relation() -> Relation:
    rng = np.random.default_rng(42)
    return Relation.from_dict(
        "lineitem",
        {
            "quantity": rng.integers(0, 50, NUM_ROWS),
            "discount": np.round(rng.random(NUM_ROWS), 2),  # float dictionary
            "supplier": rng.integers(0, 400, NUM_ROWS),
        },
    )


def mixed_batch(relation: Relation, count: int, seed: int) -> list[AttributePredicate]:
    """A seeded mixed workload across attributes, operators, and values."""
    rng = np.random.default_rng(seed)
    attributes = sorted(relation.columns)
    batch = []
    for _ in range(count):
        attribute = attributes[int(rng.integers(0, len(attributes)))]
        op = OPS[int(rng.integers(0, len(OPS)))]
        column = relation.column(attribute)
        value = column.values[int(rng.integers(0, column.num_rows))]
        batch.append(AttributePredicate(attribute, op, value))
    return batch


def make_engine(relation: Relation, **kwargs) -> QueryEngine:
    engine = QueryEngine(**kwargs)
    engine.register(relation, components=2)
    return engine


def assert_counters_consistent(engine: QueryEngine) -> None:
    """The invariant the serving layer's accounting rests on."""
    snap = engine.snapshot()
    cache = snap["cache"]
    stats = snap["stats"]
    assert cache["hits"] + cache["misses"] == engine.cache.fetches
    # Every fetch either hit the shared cache (a buffer hit) or fell
    # through to the index (a recorded scan).
    assert cache["hits"] == stats["buffer_hits"]
    assert cache["misses"] == stats["scans"]


class TestBatchCorrectness:
    def test_concurrent_equals_sequential_baseline(self, relation):
        batch = mixed_batch(relation, 60, seed=1)
        sequential = make_engine(relation, backend="inline").query_batch(batch)
        concurrent = make_engine(relation, max_workers=8).query_batch(batch)
        assert len(sequential) == len(concurrent) == len(batch)
        for pred, seq, conc in zip(batch, sequential, concurrent):
            assert np.array_equal(seq.rids, conc.rids), str(pred)
            truth = relation.scan(pred.attribute, pred.op, pred.value)
            assert np.array_equal(conc.rids, truth), str(pred)

    def test_batch_preserves_input_order(self, relation):
        batch = mixed_batch(relation, 40, seed=2)
        engine = make_engine(relation)
        results = engine.query_batch(batch)
        for pred, result in zip(batch, results):
            assert np.array_equal(
                result.rids, relation.scan(pred.attribute, pred.op, pred.value)
            )

    def test_explicit_relation_pairs(self, relation):
        engine = make_engine(relation, max_workers=2)
        pred = AttributePredicate("quantity", "<=", 10)
        results = engine.query_batch([("lineitem", pred), pred])
        assert np.array_equal(results[0].rids, results[1].rids)


class TestContention:
    def test_counters_consistent_under_contention(self, relation):
        engine = make_engine(relation, cache_capacity=32, max_workers=8)
        batch = mixed_batch(relation, 120, seed=3)
        engine.query_batch(batch)
        snap = engine.snapshot()
        assert snap["queries"] == len(batch)
        assert snap["failures"] == 0
        assert engine.cache.fetches > 0
        assert_counters_consistent(engine)

    def test_many_threads_sharing_one_engine(self, relation):
        """External threads calling query() directly, not via query_batch."""
        engine = make_engine(relation, cache_capacity=64)
        batch = mixed_batch(relation, 80, seed=4)
        truths = [relation.scan(p.attribute, p.op, p.value) for p in batch]
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(engine.query, pred) for pred in batch]
            results = [f.result() for f in futures]
        for result, truth in zip(results, truths):
            assert np.array_equal(result.rids, truth)
        assert engine.metrics.queries == len(batch)
        assert_counters_consistent(engine)

    def test_racing_first_queries_build_index_once(self, relation):
        engine = make_engine(relation)
        pred = AttributePredicate("supplier", "=", 7)
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(engine.query, pred) for _ in range(16)]
            for f in futures:
                f.result()
        assert engine.snapshot()["registry"]["builds"] == 1
        assert engine.snapshot()["registry"]["reuses"] == 15

    def test_zero_capacity_cache_disables_caching(self, relation):
        engine = make_engine(relation, cache_capacity=0)
        batch = mixed_batch(relation, 30, seed=5)
        results = engine.query_batch(batch)
        for pred, result in zip(batch, results):
            assert np.array_equal(
                result.rids, relation.scan(pred.attribute, pred.op, pred.value)
            )
        snap = engine.snapshot()["cache"]
        assert snap["hits"] == 0
        assert snap["size"] == 0
        assert snap["misses"] == engine.cache.fetches
        assert_counters_consistent(engine)

    def test_small_cache_evicts_but_stays_correct(self, relation):
        engine = make_engine(relation, cache_capacity=2)
        batch = mixed_batch(relation, 50, seed=6)
        results = engine.query_batch(batch)
        for pred, result in zip(batch, results):
            assert np.array_equal(
                result.rids, relation.scan(pred.attribute, pred.op, pred.value)
            )
        assert engine.cache.evictions > 0
        assert len(engine.cache) <= 2
        assert_counters_consistent(engine)


def held_once(monkeypatch, owner, name: str):
    """Make the next call of ``owner.name`` wait, before it runs, until the
    returned ``release`` is set; ``reached`` is set when it waits."""
    reached, release = threading.Event(), threading.Event()
    original = getattr(owner, name)

    def held(*args, **kwargs):
        monkeypatch.setattr(owner, name, original)  # only this one call waits
        reached.set()
        assert release.wait(timeout=30)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, held)
    return reached, release


def race(call, reached: threading.Event, release: threading.Event, meanwhile) -> list:
    """Run ``call`` on a thread until it is held at ``reached``, run
    ``meanwhile()`` here, then release it; returns ``[call()]``."""
    got = []
    racer = threading.Thread(target=lambda: got.append(call()))
    racer.start()
    assert reached.wait(timeout=30)
    meanwhile()
    release.set()
    racer.join(timeout=30)
    return got


class TestRacingDrop:
    """A query in flight across ``register`` answers wholly from the
    registration it resolved, and leaves nothing the next query serves."""

    def test_reregistered_relation_answers_after_a_racing_build(self, monkeypatch):
        """Held after its index build, before its served source is made,
        across ``register``: the query answers the old relation's 50, and
        what it memoizes stays with the old record."""
        old = Relation.from_dict("t", {"a": np.arange(100) % 10})
        new = Relation.from_dict("t", {"a": np.arange(100) % 5 + 5})
        engine = QueryEngine(backend="inline")
        engine.register(old)
        reached, release = held_once(monkeypatch, engine_module, "CachedSource")
        count = lambda: engine.count("a <= 4").count  # noqa: E731
        assert race(count, reached, release, lambda: engine.register(new)) == [50]
        assert count() == 0
        assert engine.count("a >= 5").count == 100

    def test_a_query_racing_register_answers_from_one_relation(self, monkeypatch):
        """Held in its index build across ``register``: the old relation's
        70, not the 20 of new ranks read on old bitmaps; then the new 40."""
        old = Relation.from_dict("t", {"a": np.arange(100) % 10})
        new = Relation.from_dict("t", {"a": np.arange(100) % 5 + 5})
        engine = QueryEngine(backend="inline")
        engine.register(old)
        reached, release = held_once(monkeypatch, engine_module, "bitmap_index_for")
        count = lambda: engine.count("a <= 6").count  # noqa: E731
        assert race(count, reached, release, lambda: engine.register(new)) == [70]
        assert count() == 40

    def test_a_late_cache_put_is_not_served_to_the_next_registration(self, monkeypatch):
        """Held in its first cache ``put`` across ``register``: the racing
        query's bitmaps land under its own registration's keys, so the
        next queries answer from the new relation."""
        old = Relation.from_dict("t", {"a": np.arange(100) % 10})
        new = Relation.from_dict("t", {"a": np.arange(100) // 10})
        engine = QueryEngine(backend="inline")
        engine.register(old)
        reached, release = held_once(monkeypatch, SharedBitmapCache, "put")
        rids = lambda: engine.query("a <= 6").rids.tolist()  # noqa: E731
        racing = race(rids, reached, release, lambda: engine.register(new))
        assert racing == [[rid for rid in range(100) if rid % 10 <= 6]]
        for _ in range(3):
            assert rids() == list(range(70))

    def test_a_store_catch_up_racing_register_keeps_the_registration(
        self, tmp_path, monkeypatch
    ):
        """A query's catch-up with a moved store generation, held while it
        writes the relation's new record, does not overwrite a
        ``register`` that lands meanwhile: writers take turns."""
        root = str(tmp_path)
        with IndexStore(root) as store:
            store.build(Relation.from_dict("t", {"a": np.arange(100) % 10}))
        engine = repro.open_store(root, backend="inline")
        engine.storage.append("t", {"a": np.array([1])})  # the generation moves
        reached, release = held_once(monkeypatch, engine.storage, "relation_view")
        new = Relation.from_dict("t", {"a": np.arange(50)})
        registering = threading.Thread(target=engine.register, args=(new,))

        def meanwhile():
            registering.start()
            registering.join(timeout=0.5)  # done, or waiting for its turn

        race(lambda: engine.count("a <= 6").count, reached, release, meanwhile)
        registering.join(timeout=30)
        assert engine.registration("t").relation is new
        engine.close()

    def test_answers_stay_whole_while_a_relation_is_re_registered(self):
        """Four threads query while ``t`` is registered 60 times between
        two relations: each answer is one relation's, and the answer after
        the last ``register`` is the last relation's."""
        columns = (np.arange(2000) % 10, np.arange(2000) // 200)
        relations = [Relation.from_dict("t", {"a": column}) for column in columns]
        truths = [np.flatnonzero(column <= 6).tolist() for column in columns]
        engine = QueryEngine(max_workers=4)
        engine.register(relations[0])
        done, wrong = threading.Event(), []

        def reader():
            while not done.is_set():
                rids = engine.query("a <= 6").rids.tolist()
                count = engine.count("a <= 6").count
                if rids not in truths or count not in map(len, truths):
                    wrong.append((len(rids), count))

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        for i in range(60):
            engine.register(relations[i % 2])
            time.sleep(0.001)
        done.set()
        for thread in readers:
            thread.join(timeout=30)
        assert wrong == []
        assert engine.query("a <= 6").rids.tolist() == truths[59 % 2]
        assert engine.count("a <= 6").count == len(truths[59 % 2])


class TestMetricsAndWarm:
    def test_snapshot_shape_and_percentiles(self, relation):
        engine = make_engine(relation)
        engine.query_batch(mixed_batch(relation, 25, seed=7))
        snap = engine.snapshot()
        latency = snap["latency_ms"]
        assert snap["queries"] == 25
        assert 0 < latency["p50"] <= latency["p95"] <= latency["max"]
        assert latency["mean"] > 0
        assert snap["stats"]["ops"] >= snap["stats"]["ands"]
        assert snap["registry"]["indexes"] == 3

    def test_warm_prebuilds_all_indexes(self, relation):
        engine = make_engine(relation, max_workers=2)
        assert engine.warm() == 3
        assert engine.snapshot()["registry"]["builds"] == 3
        engine.query_batch(mixed_batch(relation, 10, seed=8))
        assert engine.snapshot()["registry"]["builds"] == 3  # no rebuilds

    def test_reset_cache_and_metrics(self, relation):
        engine = make_engine(relation, max_workers=2)
        engine.query_batch(mixed_batch(relation, 10, seed=9))
        engine.reset_cache()
        engine.reset_metrics()
        assert engine.cache.fetches == 0
        assert len(engine.cache) == 0
        assert engine.metrics.queries == 0


class TestConfigErrors:
    def test_unregistered_relation_rejected(self, relation):
        engine = make_engine(relation)
        with pytest.raises(EngineConfigError):
            engine.query(AttributePredicate("quantity", "=", 1), relation="orders")

    def test_storage_is_an_index_store_or_none(self):
        with pytest.raises(EngineConfigError, match="IndexStore or None"):
            QueryEngine(storage=object())

    def test_no_relation_registered(self):
        with pytest.raises(EngineConfigError):
            QueryEngine().query(AttributePredicate("quantity", "=", 1))

    def test_unserved_attribute_rejected(self, relation):
        engine = QueryEngine()
        engine.register(relation, attributes=["quantity"])
        with pytest.raises(EngineConfigError):
            engine.query(AttributePredicate("supplier", "=", 1))

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(EngineConfigError):
            QueryEngine(max_workers=0)
        with pytest.raises(EngineConfigError):
            QueryEngine(shards=0)

    def test_override_must_target_served_attribute(self, relation):
        engine = QueryEngine()
        with pytest.raises(EngineConfigError):
            engine.register(
                relation,
                attributes=["quantity"],
                overrides={"supplier": IndexSpec()},
            )

    def test_per_attribute_override_applies(self, relation):
        engine = QueryEngine()
        engine.register(
            relation,
            attributes=["quantity", "supplier"],
            components=2,
            overrides={
                "quantity": IndexSpec(
                    base=Base((50,)), encoding=EncodingScheme.EQUALITY
                )
            },
        )
        pred = AttributePredicate("quantity", "=", 7)
        result = engine.query(pred)
        assert np.array_equal(result.rids, relation.scan("quantity", "=", 7))
        index = engine.registration("lineitem").indexes.peek("quantity")
        assert index.encoding is EncodingScheme.EQUALITY
