"""Stress and correctness tests for the concurrent :class:`QueryEngine`.

A mixed batch of predicates runs from many threads against one engine;
every result must be bit-identical to the sequential ground truth, the
shared cache's counters must stay consistent under contention
(``hits + misses == fetches == scans + buffer_hits``), and racing first
queries must build each attribute's index exactly once.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.engine import IndexSpec, QueryEngine
from repro.engine.registry import IndexRegistry
from repro.errors import EngineConfigError
from repro.query.predicate import AttributePredicate
from repro.relation.relation import Relation

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
        assert engine.registry.snapshot()["builds"] == 1
        assert engine.registry.snapshot()["reuses"] == 15

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


def blocked_build(registry: IndexRegistry):
    """Make the next build of ``registry`` wait, once it has run, until
    the returned ``release`` is set; ``built`` is set when it waits."""
    built, release = threading.Event(), threading.Event()
    original = registry.get_or_build

    def get_or_build(key, builder):
        def build():
            value = builder()
            registry.get_or_build = original  # only this one build waits
            built.set()
            assert release.wait(timeout=30)
            return value

        return original(key, build)

    registry.get_or_build = get_or_build
    return built, release


class TestRacingDrop:
    """A build that a drop overtakes is its caller's alone: the registry
    forgets it, so the next query builds from what is registered now."""

    def test_registry_keeps_no_build_its_key_lost_meanwhile(self):
        registry = IndexRegistry()
        built, release = blocked_build(registry)
        got = []
        builder = threading.Thread(target=lambda: got.append(registry.get_or_build("k", list)))
        builder.start()
        assert built.wait(timeout=30)
        registry.pop("k")
        release.set()
        builder.join(timeout=30)
        assert got == [[]]
        assert "k" not in registry
        assert registry.get_or_build("k", lambda: "new") == "new"

    def test_reregistered_relation_answers_after_a_racing_build(self):
        old = Relation.from_dict("t", {"a": np.arange(100) % 10})
        new = Relation.from_dict("t", {"a": np.arange(100) % 5 + 5})
        engine = QueryEngine(backend="inline")
        engine.register(old)
        built, release = blocked_build(engine.registry)
        got = []
        racer = threading.Thread(target=lambda: got.append(engine.count("a <= 4").count))
        racer.start()
        assert built.wait(timeout=30)
        engine.register(new)
        release.set()
        racer.join(timeout=30)
        assert len(got) == 1  # the query that started before the drop answered
        assert ("t", "a") not in engine.registry
        assert engine.count("a <= 4").count == 0
        assert engine.count("a >= 5").count == 100


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
        assert engine.registry.snapshot()["builds"] == 3
        engine.query_batch(mixed_batch(relation, 10, seed=8))
        assert engine.registry.snapshot()["builds"] == 3  # no rebuilds

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
        index = engine.registry.peek(("lineitem", "quantity"))
        assert index.encoding is EncodingScheme.EQUALITY
