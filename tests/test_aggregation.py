"""Aggregates as a finish of the one query pipeline.

``QueryEngine.aggregate`` answers COUNT/SUM/AVG/MIN/MAX of a measure
from the measure's served bitmaps (``Table.aggregate`` calls it when
everything is indexed).  Each answer is held to numpy over every codec,
encoding and base, inline and on the process backend, in memory and
from an index store with NULLs, over affine and non-affine
dictionaries.  The paper's accounting rides along: a SUM reads at most
Space(I) bitmaps (exactly Space(I) under range encoding), MIN and MAX at
most ⌈log₂ C⌉ evaluations, and the counts do not depend on the codec.
"""

from __future__ import annotations

import contextlib
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryEngine, Table
from repro.core.costmodel import space
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.optimize import enumerate_bases
from repro.engine.registry import IndexSpec
from repro.errors import (
    EmptyFoundsetError,
    InvalidBaseError,
    ValueOutOfRangeError,
    VerificationError,
)
from repro.query import expression
from repro.query.expression import parse_expression
from repro.query.options import QueryOptions
from repro.relation.relation import Relation
from repro.storage import IndexStore

from conftest import assert_aggregates, backend_engines

CODECS = ("dense", "wah", "roaring")
#: The evaluators' trace spans; the binary search of MIN/MAX asks ``<=``.
EVALUATORS = {"range_eval_opt", "range_eval", "equality_eval", "interval_eval"}


def assert_matches(engine, query, measure, values, **kwargs):
    """Every aggregate of ``measure`` over ``query`` equals numpy's over ``values``."""
    assert_aggregates(lambda fn: engine.aggregate(query, measure, fn, **kwargs).value, values)


@pytest.fixture
def values(rng) -> np.ndarray:
    return rng.integers(0, 1000, 500)


@contextlib.contextmanager
def serving(a):
    """An engine over ``a`` and ``k = a % 7``; ``a`` on base <32, 32>."""
    relation = Relation.from_dict("t", {"a": a, "k": a % 7})
    with QueryEngine() as engine:
        engine.register(relation, overrides={"a": IndexSpec(base=Base((32, 32)))})
        yield engine, a


@pytest.fixture
def served(values):
    """``values`` served: a sparse dictionary, so SUM and AVG weigh counts."""
    with serving(values) as pair:
        yield pair


def affine(rng):
    """The odd numbers below 1000 in random order: an affine dictionary."""
    return serving(1 + 2 * rng.permutation(500))


class TestConstruction:
    def test_all_zero_column(self):
        table = Table("t", {"x": np.zeros(10, dtype=int)})
        with pytest.raises(InvalidBaseError):
            table.create_index("x")
        assert table.aggregate("x", "sum") == 0
        assert table.aggregate("x", "max") == 0
        assert table.aggregate("x", "count") == 10

    def test_from_binary_equality_index(self, values):
        relation = Relation.from_dict("t", {"a": values})
        cardinality = relation.column("a").cardinality
        spec = IndexSpec(base=Base.binary(cardinality), encoding=EncodingScheme.EQUALITY)
        with QueryEngine() as engine:
            engine.register(relation, overrides={"a": spec})
            assert engine.aggregate("a >= 0", "a", "sum").value == int(values.sum())
            assert engine.aggregate("a >= 0", "a", "max").value == int(values.max())

    def test_rejects_2d(self):
        with pytest.raises(ValueOutOfRangeError):
            Table("t", {"x": np.zeros((2, 2), dtype=int)})

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("encoding", list(EncodingScheme))
    @pytest.mark.parametrize("shape", ["single", "binary", "uniform-5"])
    def test_every_encoding_base_and_codec(self, rng, codec, encoding, shape):
        values = np.append(np.arange(100), rng.integers(0, 100, 400))
        relation = Relation.from_dict("t", {"a": values, "k": values % 7})
        cardinality = 100
        base = {
            "single": Base.single(cardinality),
            "binary": Base.binary(cardinality),
            "uniform-5": Base.uniform(5, cardinality),
        }[shape]
        with QueryEngine(codec=codec) as engine:
            engine.register(
                relation, encoding=encoding, overrides={"a": IndexSpec(base, encoding)}
            )
            for where in ("k <= 3", "a between 10 and 70 and k != 2", "k > 9"):
                mask = parse_expression(where).mask(relation)
                assert_matches(engine, where, "a", values[mask])

    def test_negative_values_aggregate_by_rank(self, rng):
        amounts = rng.integers(-500, 500, 400)
        table = Table("t", {"x": amounts})
        table.create_index("x")
        assert table.aggregate("x", "sum") == int(amounts.sum())
        assert table.aggregate("x", "min") == int(amounts.min())
        assert table.aggregate("x", "max", where="x < 0") == int(amounts[amounts < 0].max())
        assert table.aggregate("x", "avg") == pytest.approx(float(amounts.mean()))

    def test_slice_count_is_bit_width(self):
        # The Bit-Sliced index is the base-2 range-encoded index: a SUM
        # reads its slices once each, ten for values below 1024.
        relation = Relation.from_dict("t", {"a": np.arange(1000)})
        with QueryEngine(cache_capacity=0) as engine:
            engine.register(relation, base=Base.binary(1000))
            result = engine.aggregate("a >= 0", "a", "sum")
        assert result.value == sum(range(1000))
        assert result.stats.scans == space(Base.binary(1000)) == 10


class TestFullColumnAggregates:
    def test_sum(self, served):
        engine, a = served
        assert engine.aggregate("k >= 0", "a", "sum").value == int(a.sum())

    def test_count(self, served):
        engine, a = served
        assert engine.aggregate("k >= 0", "a", "count").value == len(a)

    def test_average(self, served):
        engine, a = served
        assert engine.aggregate("k >= 0", "a", "avg").value == pytest.approx(float(a.mean()))

    def test_min_max(self, served):
        engine, a = served
        assert engine.aggregate("k >= 0", "a", "min").value == int(a.min())
        assert engine.aggregate("k >= 0", "a", "max").value == int(a.max())


class TestFoundsetAggregates:
    def test_sum_over_predicate_foundset(self, served):
        engine, a = served
        result = engine.aggregate("a <= 300", "a", "sum")
        assert result.value == int(a[a <= 300].sum())
        assert result.count == int((a <= 300).sum())

    def test_min_max_over_foundset(self, served):
        engine, a = served
        mask = a >= 500
        assert engine.aggregate("a >= 500", "a", "min").value == int(a[mask].min())
        assert engine.aggregate("a >= 500", "a", "max").value == int(a[mask].max())

    def test_average_over_foundset(self, served):
        engine, a = served
        mask = (a % 7) == 0
        assert engine.aggregate("k = 0", "a", "avg").value == pytest.approx(
            float(a[mask].mean())
        )

    def test_empty_foundset(self, served):
        engine, _ = served
        assert engine.aggregate("a < 0", "a", "sum").value == 0
        assert engine.aggregate("a < 0", "a", "count").value == 0
        for fn in ("min", "max", "avg"):
            with pytest.raises(EmptyFoundsetError):
                engine.aggregate("a < 0", "a", fn)

    def test_foundset_not_mutated_by_minmax(self, served):
        engine, a = served
        before = engine.query("a <= 300 or k = 2").rids
        engine.aggregate("a <= 300 or k = 2", "a", "min")
        engine.aggregate("a <= 300 or k = 2", "a", "max")
        # The cached bitmaps the search ANDed against still hold.
        assert np.array_equal(engine.query("a <= 300 or k = 2").rids, before)


class TestFullColumnAggregatesAffine(TestFullColumnAggregates):
    @pytest.fixture
    def served(self, rng):
        with affine(rng) as pair:
            yield pair


class TestFoundsetAggregatesAffine(TestFoundsetAggregates):
    @pytest.fixture
    def served(self, rng):
        with affine(rng) as pair:
            yield pair


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.integers(0, 5000), min_size=1, max_size=120),
    seed=st.integers(0, 2**31),
)
def test_aggregates_match_numpy_property(data, seed):
    values = np.array(data)
    mask = np.random.default_rng(seed).random(len(values)) < 0.5
    # An index needs two values: one unselected row (s = 2, v = 5001) gives
    # both columns a second, so single-valued draws and empty or full
    # selections stay in the property.
    relation = Relation.from_dict(
        "t", {"v": np.append(values, 5001), "s": np.append(mask.astype(int), 2)}
    )
    with QueryEngine() as engine:
        engine.register(relation, components=2)
        assert_matches(engine, "s = 1", "v", values[mask])


class TestPaperAccounting:
    """SUM in Space(I) scans, MIN/MAX in ⌈log₂ C⌉ evaluations, per codec alike."""

    @staticmethod
    def served(stack, relation, base, encoding, nulls, rng):
        """One uncached engine per codec over ``relation`` — from a
        compacted store whose appended rows hold NULL measures when
        ``nulls`` — and the relation's rows with each row's measure known
        or not.  Every engine serves both columns in its codec."""
        values, selected = (relation.column(c).values for c in ("v", "s"))
        known = np.ones(len(values), dtype=bool)
        storage = None
        if nulls:
            root = stack.enter_context(tempfile.TemporaryDirectory())
            batch, null = rng.choice(values, 20), rng.random(20) < 0.5
            with IndexStore(root) as store:
                store.build(relation, codec="wah", base={"v": base, "s": None}, encoding=encoding)
                store.append("t", {"v": batch, "s": np.ones(20, dtype=int)}, nulls={"v": null})
                store.compact("t")
            storage = stack.enter_context(IndexStore(root))
            relation = storage.relation_view("t")
            values, selected = np.append(values, batch), np.append(selected, [1] * 20)
            known = np.append(known, ~null)
        engines = {}
        for codec in CODECS:
            engine = engines[codec] = stack.enter_context(
                QueryEngine(cache_capacity=0, storage=storage)
            )
            specs = {"v": IndexSpec(base, encoding, codec=codec), "s": IndexSpec(codec=codec)}
            engine.register(relation, overrides=specs)
        return engines, values, selected == 1, known

    @settings(max_examples=10, deadline=None)
    @given(
        cardinality=st.integers(2, 200),
        pick=st.integers(0, 2**16),
        encoding=st.sampled_from(list(EncodingScheme)),
        nulls=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_scans_and_evaluations(self, cardinality, pick, encoding, nulls, seed):
        bases = list(enumerate_bases(cardinality))
        base = bases[pick % len(bases)]
        rng = np.random.default_rng(seed)
        values = rng.permutation(
            np.append(np.arange(cardinality), rng.integers(0, cardinality, 60))
        )
        selected = (rng.random(len(values)) < 0.4).astype(int)
        relation = Relation.from_dict("t", {"v": values, "s": selected})
        counters = {}
        with contextlib.ExitStack() as stack:
            engines, values, selected, known = self.served(
                stack, relation, base, encoding, nulls, rng
            )
            options = QueryOptions(trace=True)
            for codec, engine in engines.items():
                assert_matches(engine, "s = 1", "v", values[selected & known], options=options)
                where = engine.count("s = 1", options=options).stats.scans
                total = engine.aggregate("s = 1", "v", "sum", options=options).stats
                scans = total.scans - where
                if encoding is EncodingScheme.RANGE:
                    assert scans == space(base, encoding)
                else:
                    assert scans <= space(base, encoding)
                counters[codec] = [(scans, total.ops)]
                for fn in ("min", "max"):
                    result = engine.aggregate("s = 1", "v", fn, options=options)
                    searches = [
                        span
                        for span in result.trace.spans
                        if span.name in EVALUATORS and span.attrs["op"] == "<="
                    ]
                    assert len(searches) <= math.ceil(math.log2(cardinality))
                    counters[codec].append((result.stats.scans, result.stats.ops))
        assert counters["dense"] == counters["wah"] == counters["roaring"]


@contextlib.contextmanager
def parted_engine(backend="inline", **engine_opts):
    """A ``backend`` engine over three ordered parts; part 0 holds only
    large measures, so a shard that selects nothing must not lend MIN its
    rank 0."""
    rng = np.random.default_rng(3)
    part = np.repeat(np.arange(3), 200)
    m = np.where(part == 0, rng.integers(40, 60, 600), rng.integers(0, 60, 600))
    relation = Relation.from_dict("t", {"part": part, "m": m, "z": m * m - 7})
    served = backend_engines(relation, (backend,), {"components": 2}, max_workers=2, **engine_opts)
    with served as (engine,):
        yield engine, relation


class TestBackends:
    @pytest.fixture(scope="class")
    def parted(self):
        with parted_engine() as pair:
            yield pair

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("measure", ["m", "z"])
    def test_processes_answer_what_inline_answers(self, parted, shards, measure):
        inline, relation = parted
        with parted_engine("processes", shards=shards) as (processes, _):
            for where in ("part = 0", "part >= 1 and m < 30", "part = 2 and m > 99"):
                mask = parse_expression(where).mask(relation)
                values = relation.column(measure).values[mask]
                assert_matches(inline, where, measure, values)
                assert_matches(processes, where, measure, values)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_processes_charge_what_inline_charges(self, shards):
        """The search of MIN/MAX is charged once, as the unsharded query
        makes it, even when shard 0 selects nothing or finds another rank."""
        with (
            parted_engine(cache_capacity=0) as (engine, _),
            parted_engine("processes", shards=shards, cache_capacity=0) as (processes, _),
        ):
            for where in ("part >= 1 and m < 30", "part <= 1", "m > 20"):
                for fn in ("min", "max"):
                    inline = engine.aggregate(where, "m", fn)
                    sharded = processes.aggregate(where, "m", fn)
                    assert sharded.value == inline.value, (where, fn)
                    charged = [(r.stats.scans, r.stats.ops) for r in (inline, sharded)]
                    assert charged[0] == charged[1], (where, fn)

    def test_verify_accepts_every_finish(self, parted):
        engine, relation = parted
        part = relation.column("part").values == 1
        # SUM of the affine "m" reads rank_sum; of "z", group counts.
        for measure in ("m", "z"):
            values = relation.column(measure).values[part]
            assert_matches(engine, "part = 1", measure, values, options=QueryOptions(verify=True))

    @pytest.mark.parametrize(
        "kernel,fn", [("rank_sum", "sum"), ("rank_sum", "avg"), ("rank_bound", "min")]
    )
    def test_verify_catches_a_perturbed_answer(self, parted, monkeypatch, kernel, fn):
        engine, _ = parted
        honest = getattr(expression, kernel)
        monkeypatch.setattr(expression, kernel, lambda *args: honest(*args) + 1)
        assert engine.aggregate("part = 1", "m", fn).value is not None
        with pytest.raises(VerificationError):
            engine.aggregate("part = 1", "m", fn, options=QueryOptions(verify=True))


@pytest.mark.parametrize("codec", CODECS)
def test_store_backed_aggregates_with_nulls(tmp_path, codec):
    """A NULL satisfies no WHERE and adds to no aggregate, before and after
    compaction, inline and on the process backend."""
    rng = np.random.default_rng(8)
    quantity = rng.integers(0, 50, 3000)
    weight = rng.choice(np.array([-4, 1, 7, 13, 100]), 3000)
    relation = Relation.from_dict("sales", {"quantity": quantity, "weight": weight})
    with IndexStore(str(tmp_path)) as store:
        store.build(relation, codec=codec, encoding=EncodingScheme.INTERVAL)
    nulls = np.array([False, True, False, True])
    columns = {
        "quantity": (np.append(quantity, [3, 49, 10, 0]), np.append(quantity >= 0, ~nulls)),
        "weight": (np.append(weight, [100, 7, -4, 1]), np.append(weight < 1000, nulls)),
    }
    with backend_engines(storage=IndexStore(str(tmp_path)), max_workers=2) as engines:
        engine, processes = engines
        engine.storage.append(
            "sales",
            {name: values[-4:] for name, (values, _) in columns.items()},
            nulls={"quantity": nulls, "weight": ~nulls},
        )
        for _ in ("appended", "compacted"):
            for where, measure in (("quantity <= 20", "quantity"), ("weight != 13", "quantity"),
                                   ("quantity >= 10", "weight")):
                leaf = parse_expression(where)
                values, known = columns[leaf.attribute]
                selected = known & leaf.matches(values)
                measured, present = columns[measure]
                expected = measured[selected & present]
                for served in engines:
                    assert_matches(served, where, measure, expected)
            engine.storage.compact("sales")
