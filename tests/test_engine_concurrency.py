"""Stress and correctness tests for the concurrent :class:`QueryEngine`.

A mixed batch of predicates runs from many threads against one engine;
every result must be bit-identical to the sequential ground truth, the
shared cache's counters must stay consistent under contention
(``hits + misses == fetches == scans + buffer_hits``), and racing first
queries must build each attribute's index exactly once.  A query held
across ``register`` or maintenance answers wholly from the registration
record it resolved.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

import repro
from repro.bitmaps import BitVector
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.engine import IndexSpec, QueryEngine
from repro.engine import engine as engine_module
from repro.engine.cache import CachedSource, SharedBitmapCache
from repro.errors import EngineConfigError, FileMissingError, ReproError
from repro.query.predicate import AttributePredicate
from repro.relation.relation import Relation
from repro.storage import IndexStore

from conftest import expression_trees, kleene

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


def held_once(monkeypatch, owner, name: str, nth: int = 1):
    """Make the ``nth`` next call of ``owner.name`` wait, before it runs,
    until the returned ``release`` is set; ``reached`` is set when it waits."""
    reached, release = threading.Event(), threading.Event()
    original = getattr(owner, name)
    calls = itertools.count(1)

    def held(*args, **kwargs):
        if next(calls) < nth:
            return original(*args, **kwargs)
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
        reached, release = held_once(monkeypatch, Relation, "bitmap_source")
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
        """A query's catch-up with files a store write moved, held while it
        reads them, does not overwrite a ``register`` that lands meanwhile:
        writers take turns."""
        root = str(tmp_path)
        with IndexStore(root) as store:
            store.build(Relation.from_dict("t", {"a": np.arange(100) % 10}))
        engine = repro.open_store(root, backend="inline")
        engine.storage.append("t", {"a": np.array([1])})  # the files move
        reached, release = held_once(monkeypatch, engine.storage, "_file")
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


def set_row_0(engine: QueryEngine, value: int) -> int:
    """Set row 0 of ``t.a`` to ``value`` through the engine's maintenance door."""
    return engine.maintain("a", lambda index: index.update(0, value), "t")


class TestMaintenanceUnderAQuery:
    """A query in flight across maintenance answers wholly from the index
    it resolved, and leaves nothing torn in the cache.

    ``t.a`` is ``arange(1000) % 100`` on base ``<10, 10>``, range encoded.
    ``a = 50`` holds 10 rows whether row 0 is 0 or 90, and reads component
    1's ``B^0``, then component 2's ``B^5`` and ``B^4``: row 0 is in both
    of those at 0 and in neither at 90, so ``B^5`` of one state XOR ``B^4``
    of the other answers 11.
    """

    @staticmethod
    def engine(codec: str, cache_capacity: int) -> QueryEngine:
        engine = QueryEngine(codec=codec, cache_capacity=cache_capacity, backend="inline")
        engine.register(Relation.from_dict("t", {"a": np.arange(1000) % 100}), base=Base((10, 10)))
        return engine

    @pytest.mark.parametrize("codec", ["dense", "wah", "roaring"])
    def test_a_query_during_an_edit_answers_one_state(self, monkeypatch, codec):
        """Row 0 moves from 0 to 90 by an edit held between its writes of
        ``B^4`` and ``B^5``; a query run meanwhile answers 10."""
        engine = self.engine(codec, 0)
        count = lambda: engine.count("a = 50").count  # noqa: E731
        assert count() == 10
        writing, write = held_once(monkeypatch, BitVector, "set", nth=6)
        edit = threading.Thread(target=set_row_0, args=(engine, 90))
        edit.start()
        assert writing.wait(timeout=30)
        try:
            meanwhile = count()
        finally:
            write.set()
            edit.join(timeout=30)
        assert meanwhile == 10
        assert count() == 10
        assert engine.count("a = 90").count == 11

    @pytest.mark.parametrize("codec", ["wah", "roaring"])
    def test_no_torn_conversion_is_cached(self, monkeypatch, codec):
        """Row 0 is restored from 90 to 0 by an edit held before its first
        bitmap write; a query that fetches ``B^5`` meanwhile is held before
        ``B^4`` until the restore is done.  It answers 10, and so does
        every query after it, from a warm cache."""
        engine = self.engine(codec, 64)
        count = lambda: engine.count("a = 50").count  # noqa: E731
        set_row_0(engine, 90)
        assert count() == 10
        writing, write = held_once(monkeypatch, BitVector, "set")
        restore = threading.Thread(target=set_row_0, args=(engine, 0))
        restore.start()
        assert writing.wait(timeout=30)
        reached, release = held_once(monkeypatch, CachedSource, "fetch", nth=3)

        def meanwhile():
            write.set()
            restore.join(timeout=30)

        assert race(count, reached, release, meanwhile) == [10]
        hits = engine.cache.hits
        assert [count() for _ in range(3)] == [10, 10, 10]
        assert engine.cache.hits > hits
        assert engine.count("a = 0").count == 10

    @pytest.mark.parametrize("codec", ["dense", "wah", "roaring"])
    def test_answers_stay_whole_while_row_0_flips(self, codec):
        """Four threads count while row 0 flips between 0 and 90, on a
        short switch interval, until they have answered 1,000 times (or
        for 10 s): every answer is 10."""
        engine = self.engine(codec, 64)
        done, answers, flips = threading.Event(), [], 0

        def reader():
            while not done.is_set():
                answers.append(engine.count("a = 50").count)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            deadline = time.monotonic() + 10
            while len(answers) < 1000 and time.monotonic() < deadline:
                flips += 1
                set_row_0(engine, 90 if flips % 2 else 0)
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert flips > 1 and answers and set(answers) == {10}
        assert engine.count("a = 90").count == 10 + flips % 2


#: Rows of each relation a history starts from, and each attribute's
#: values: ``m``'s hold every value ``0 .. C-1`` (a rank is its value),
#: ``s``'s a random subset of them (a rebuild changes the dictionary).
HISTORY_ROWS = 256
HISTORY_CARDINALITY = {"a": 12, "b": 4}
HISTORY_TREES = expression_trees(
    {name: tuple(range(-1, c + 1)) for name, c in HISTORY_CARDINALITY.items()}, 2
)
CODECS = ("dense", "wah", "roaring")
ENCODINGS = tuple(EncodingScheme)
#: Writer changes by weight: ``m``'s edits most, so edits overlap queries.
CHANGES = ("update",) * 5 + ("delete", "relation", "spec", "append", "append")
CHANGES += ("compact", "build", "codec", "quarantine", "invalidate")
#: What a query answers from a state whose files are quarantined.
MISSING = "FileMissingError"


def drawn_trees(number: int) -> list:
    """32 expression trees: four seeded examples of eight (hypothesis's
    first example is its simplest, so all four are kept)."""
    trees: list = []

    @seed(number)
    @settings(max_examples=4, database=None, deadline=None, phases=[Phase.generate])
    @given(st.lists(HISTORY_TREES, min_size=8, max_size=8))
    def draw(example):
        trees.extend(example)

    draw()
    return trees


def history_columns(rng: np.random.Generator, stored: bool) -> dict[str, np.ndarray]:
    columns = {}
    for name, c in HISTORY_CARDINALITY.items():
        if stored:
            domain = rng.choice(c, int(rng.integers(2, c + 1)), replace=False)
            columns[name] = rng.choice(domain, HISTORY_ROWS)
        else:
            columns[name] = rng.integers(0, c, HISTORY_ROWS)
            columns[name][:c] = rng.permutation(c)
    return columns


class State:
    """What a relation answers from: each attribute's values and the rows
    not deleted from its index, and the answer of each tree asked; no
    values is a store's relation whose files are quarantined, which
    answers :data:`MISSING`."""

    def __init__(self, values: dict[str, np.ndarray] | None, known: dict | None = None):
        self.values = values
        self.known = known or {a: np.ones(len(v), bool) for a, v in (values or {}).items()}
        self.answers: dict[str, list[int] | str] = {}

    @classmethod
    def of(cls, relation: Relation) -> "State":
        return cls({name: column.values for name, column in relation.columns.items()})

    def edited(self, attribute: str, changes: list[tuple[int, int | None]]) -> "State":
        """This state with each ``(rid, value)`` set, or deleted (``None``)."""
        values, known = dict(self.values), dict(self.known)
        values[attribute], known[attribute] = values[attribute].copy(), known[attribute].copy()
        for rid, value in changes:
            known[attribute][rid] = value is not None
            if value is not None:
                values[attribute][rid] = value
        return State(values, known)

    def answer(self, tree, finish: str = "rids") -> list[int] | int | str:
        """The rids of ``tree`` over this state, their number (``finish`` is
        ``"count"``), or :data:`MISSING`."""
        if self.values is None:
            return MISSING
        key = str(tree)
        if key not in self.answers:
            true, _ = kleene(tree, Relation.from_dict("model", self.values), self.known)
            self.answers[key] = np.flatnonzero(true).tolist()
        rids = self.answers[key]
        return rids if finish == "rids" else len(rids)


def edit_rows(changes: list[tuple[int, int]]):
    """A ``maintain`` edit updating each ``(rid, value)`` in turn."""

    def edit(index):
        touched = 0
        for rid, value in changes:
            index, count = index.update(rid, value)
            touched += count
        return index, touched

    return edit


def check_history(number: int, root: str, changes: int = 60, readers: int = 4) -> None:
    """One seeded history: ``readers`` threads query ``m``, an in-memory
    relation, and ``s``, a store's view, while one writer makes ``changes``
    changes to what the engine serves, all on a 1 µs switch interval.
    ``s``'s files are written through the engine's store or through a
    second store on the same directory.

    The writer logs each state before the change that makes it and marks
    it committed after.  A query's answer must be the answer of a state
    logged by its end and no older than the one committed at its start;
    a :class:`~repro.errors.FileMissingError` is the answer of a
    quarantined state, another typed error passes, an untyped one fails,
    and so does any answer after the last change that is not the last
    state's.
    """
    rng = np.random.default_rng(number)
    trees = drawn_trees(number)
    store, other = IndexStore(root), IndexStore(root)
    stored = history_columns(rng, stored=True)
    store.build(Relation.from_dict("s", stored), codec=str(rng.choice(CODECS)))
    engine = QueryEngine(storage=store, codec=str(rng.choice(CODECS)), backend="inline")
    relation = Relation.from_dict("m", history_columns(rng, stored=False))
    spec = IndexSpec()
    engine.register(relation)
    engine.register(store.relation_view("s"))
    states = {"m": [State.of(relation)], "s": [State(stored)]}
    committed = {"m": 0, "s": 0}

    def commit(name: str, state: State, change: Callable) -> None:
        states[name].append(state)
        change()
        committed[name] = len(states[name]) - 1

    def change(kind: str) -> None:
        nonlocal relation, spec
        m, s = states["m"][-1], states["s"][-1]
        attribute = str(rng.choice(list(HISTORY_CARDINALITY)))
        c = HISTORY_CARDINALITY[attribute]
        rids = rng.choice(HISTORY_ROWS, int(rng.integers(1, 33)), replace=False).tolist()
        via = (store, other)[int(rng.integers(2))]  # the store that writes ``s``
        if kind in ("update", "delete"):  # 1 to 32 rows to other values, or one deleted
            values = (m.values[attribute][rids] + rng.integers(1, c, len(rids))) % c
            rows = list(zip(rids, values.tolist()))
            edit = edit_rows(rows)
            if kind == "delete":
                rows = [(rids[0], None)]
                edit = lambda index: index.delete(rids[0])  # noqa: E731
            commit("m", m.edited(attribute, rows), lambda: engine.maintain(attribute, edit, "m"))
        elif kind in ("relation", "spec"):
            if kind == "relation":
                relation = Relation.from_dict("m", history_columns(rng, stored=False))
                state = State.of(relation)
            else:
                new = IndexSpec(
                    components=(None, 2)[int(rng.integers(2))],
                    encoding=ENCODINGS[int(rng.integers(len(ENCODINGS)))],
                    codec=str(rng.choice(CODECS)),
                )
                # A changed spec rebuilds the indexes from the columns; an
                # unchanged one keeps them, and every edit made to them.
                state, spec = (m if new == spec else State.of(relation)), new
            overrides = dict.fromkeys(HISTORY_CARDINALITY, spec)
            commit("m", state, lambda: engine.register(relation, overrides=overrides))
        elif kind == "append":
            rows = {a: rng.choice(np.unique(s.values[a]), len(rids)) for a in s.values}
            state = State({a: np.append(s.values[a], rows[a]) for a in s.values})
            commit("s", state, lambda: via.append("s", rows))
        elif kind == "compact":
            commit("s", s, lambda: via.compact("s"))
        elif kind in ("build", "quarantine"):  # a quarantine, then a build
            if kind == "quarantine":
                commit("s", State(None), lambda: via.quarantine("s"))
            fresh = Relation.from_dict("s", history_columns(rng, stored=True))
            codec, encoding = str(rng.choice(CODECS)), ENCODINGS[int(rng.integers(2))]
            commit("s", State.of(fresh), lambda: via.build(fresh, codec=codec, encoding=encoding))
        elif kind == "invalidate":
            commit("s", s, lambda: engine.invalidate("s"))
        else:  # a view served in another codec
            overrides = dict.fromkeys(HISTORY_CARDINALITY, IndexSpec(codec=str(rng.choice(CODECS))))
            commit("s", s, lambda: engine.register(store.relation_view("s"), overrides=overrides))

    done, seen, untyped = threading.Event(), [], []

    def writer() -> None:
        try:
            for _ in range(changes):
                change(str(rng.choice(CHANGES)))
        except Exception as exc:  # collected: the assertion names it
            untyped.append(("writer", repr(exc)))
        finally:
            done.set()

    def reader(k: int) -> None:
        local = np.random.default_rng([number, k])
        while not done.is_set():
            name = ("m", "m", "m", "m", "s")[int(local.integers(5))]
            tree = trees[int(local.integers(len(trees)))]
            finish = ("rids", "count")[int(local.integers(2))]
            start = committed[name]
            try:
                if finish == "rids":
                    got = engine.query(tree, name).rids.tolist()
                else:
                    got = engine.count(tree, name).count
            except FileMissingError:
                got = MISSING
            except ReproError:
                continue
            except Exception as exc:  # collected: the assertion names it
                untyped.append((name, str(tree), repr(exc)))
                continue
            seen.append((name, tree, finish, start, len(states[name]), got))

    threads = [threading.Thread(target=reader, args=(k,)) for k in range(readers)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert untyped == []
    wrong = []
    for name, tree, finish, start, end, got in seen:
        if got not in [state.answer(tree, finish) for state in states[name][start:end]]:
            wrong.append((name, str(tree), finish, start, end))
    for name in states:
        for tree in trees:
            try:
                got = engine.query(tree, name).rids.tolist()
            except ReproError as exc:
                got = repr(exc)
            if got != states[name][-1].answer(tree):
                wrong.append((name, str(tree), "after the last change", got))
    engine.close()
    other.close()
    assert seen and wrong == []


def check_histories(root: str, numbers) -> None:
    """:func:`check_history` of each seed in ``numbers``, in turn."""
    for number in numbers:
        check_history(number, os.path.join(root, str(number)))


class TestHistory:
    """Every answer is the answer of a state committed while it ran, under
    ``register`` of a changed relation or spec, ``maintain`` of an
    in-memory relation, ``append`` / ``compact`` / ``build`` /
    ``quarantine`` of a store's view's files, through its store or
    another, and ``invalidate`` (:func:`check_history`; CI runs 20 more
    seeds)."""

    @pytest.mark.parametrize("number", range(4))
    def test_answers_are_committed_states(self, tmp_path, number):
        check_history(number, str(tmp_path))


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
        index = engine.registration("lineitem").entries["quantity"].source
        assert index.encoding is EncodingScheme.EQUALITY
