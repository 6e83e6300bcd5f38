"""Differential tests: every evaluator vs. a naive full scan.

Sweeps randomized decompositions (1–3 components, uniform and perturbed
non-uniform bases) crossed with the equality, range, and interval
encodings, and asserts that ``evaluate()`` — RangeEval-Opt for range
encoding, the equality/interval evaluators otherwise — agrees with a naive
scan of the raw column for all six operators, including the boundary
constants ``v = 0`` and ``v = C - 1`` and out-of-range codes the
evaluators must short-circuit.  All randomness is seeded, so the sweep is
deterministic.
"""

from __future__ import annotations

import importlib.util
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shaped_vector
from repro.bitmaps import BITMAP_CLASSES, Bitmap, BitVector, bitmap_class, wah
from repro.bitmaps.compressed import WahBitVector
from repro.bitmaps.roaring import RoaringBitmap
from repro.core.decomposition import Base, integer_nth_root_ceil
from repro.core.encoding import EncodingScheme, interval_window
from repro.core.evaluation import (
    OPERATORS,
    Predicate,
    evaluate,
    range_eval,
    range_eval_opt,
)
from repro.core.evaluation import threshold_all
from repro.core.index import BitmapIndex
from repro.engine import IndexSpec, QueryEngine, QueryOptions
from repro.engine.sharding import ShardExport, shard_bounds
from repro.errors import CorruptFileError, EngineConfigError, InvalidPredicateError
from repro.query.expression import parse_expression
from repro.query.predicate import AttributePredicate
from repro.relation.relation import Relation
from repro.stats import ExecutionStats
from repro.storage import IndexStore
from repro.experiments.disk import SimulatedDisk
from repro.storage.store import (
    _HEADER,
    _index_attr_spec,
    _packed_attr_spec,
    _payload_start,
    _relation_chunks,
)
from repro.experiments.schemes import open_scheme, write_index
from repro.workloads.generators import clustered_values, uniform_values, zipf_values

NUM_ROWS = 400
CARDINALITIES = [7, 24, 60]
ENCODINGS = [EncodingScheme.EQUALITY, EncodingScheme.RANGE, EncodingScheme.INTERVAL]


def random_base(cardinality: int, n: int, rng: np.random.Generator) -> Base:
    """A random well-defined n-component base covering ``cardinality``."""
    root = max(2, integer_nth_root_ceil(cardinality, n))
    bases = [root] * n
    # Perturb components while preserving coverage: grow one, then try to
    # shrink another (keeping every b_i >= 2 and the product >= C).
    for _ in range(4):
        i = int(rng.integers(0, n))
        bases[i] += int(rng.integers(0, 3))
        j = int(rng.integers(0, n))
        shrunk = bases.copy()
        shrunk[j] = max(2, shrunk[j] - 1)
        if int(np.prod(shrunk)) >= cardinality:
            bases = shrunk
    assert int(np.prod(bases)) >= cardinality
    return Base(tuple(bases))


def boundary_values(cardinality: int, rng: np.random.Generator) -> list[int]:
    """Constants to probe: bounds, interior, and out-of-range on both sides."""
    interior = sorted(
        int(v) for v in rng.integers(1, max(2, cardinality - 1), size=3)
    )
    return [0, cardinality - 1, -1, -5, cardinality, cardinality + 3, *interior]


def cases():
    rng = np.random.default_rng(20260806)
    for cardinality in CARDINALITIES:
        for n in (1, 2, 3):
            base = random_base(cardinality, n, rng)
            seed = int(rng.integers(0, 2**31))
            for encoding in ENCODINGS:
                yield pytest.param(
                    cardinality,
                    base,
                    encoding,
                    seed,
                    id=f"C{cardinality}-{base}-{encoding.value}",
                )


@pytest.mark.parametrize("cardinality,base,encoding,seed", list(cases()))
def test_evaluate_matches_naive_scan(cardinality, base, encoding, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, cardinality, NUM_ROWS)
    # Pin the boundary codes so v = 0 and v = C-1 actually select rows.
    values[0], values[1] = 0, cardinality - 1
    index = BitmapIndex(values, cardinality, base=base, encoding=encoding)
    for op in OPERATORS:
        for v in boundary_values(cardinality, rng):
            predicate = Predicate(op, v)
            got = evaluate(index, predicate)
            expected = predicate.matches(values)
            assert np.array_equal(got.to_bools(), expected), (
                f"{encoding.value} base={base} failed on A {op} {v}"
            )


#: The compressed serving codecs differentially checked against dense.
COMPRESSED_CODECS = {"wah": WahBitVector, "roaring": RoaringBitmap}


def _op_counts(stats: ExecutionStats) -> tuple[int, int, int, int, int]:
    return (stats.ands, stats.ors, stats.xors, stats.nots, stats.scans)


@pytest.mark.parametrize("codec", sorted(COMPRESSED_CODECS))
@pytest.mark.parametrize("cardinality,base,encoding,seed", list(cases()))
def test_compressed_path_matches_dense(cardinality, base, encoding, seed, codec):
    """Compressed-domain execution is observationally identical to dense.

    Same random base x encoding sweep as the naive-scan differential, once
    per compressed codec: the compressed source must return bit-identical
    RIDs *and* charge the exact same operation counts (the evaluators
    share one code path over all three algebras, so any divergence is a
    genericization bug).
    """
    rng = np.random.default_rng(seed)
    values = rng.integers(0, cardinality, NUM_ROWS)
    values[0], values[1] = 0, cardinality - 1
    nulls = rng.random(NUM_ROWS) < 0.1
    index = BitmapIndex(
        values, cardinality, base=base, encoding=encoding, nulls=nulls
    )
    compressed = index.with_codec(codec)
    for op in OPERATORS:
        for v in boundary_values(cardinality, rng):
            predicate = Predicate(op, v)
            dense_stats, comp_stats = ExecutionStats(), ExecutionStats()
            dense = evaluate(index, predicate, stats=dense_stats)
            comp = evaluate(compressed, predicate, stats=comp_stats)
            assert isinstance(comp, COMPRESSED_CODECS[codec])
            assert comp.count() == dense.count()
            assert np.array_equal(dense.indices(), comp.indices()), (
                f"{encoding.value} base={base} {codec}: RIDs diverge on A {op} {v}"
            )
            assert _op_counts(dense_stats) == _op_counts(comp_stats), (
                f"{encoding.value} base={base} {codec}: op counts diverge on "
                f"A {op} {v}: dense={_op_counts(dense_stats)} "
                f"compressed={_op_counts(comp_stats)}"
            )


@pytest.mark.parametrize(
    "cardinality,n", [(7, 1), (24, 2), (60, 2), (60, 3)]
)
def test_range_eval_and_opt_agree(cardinality, n):
    """The baseline RangeEval and RangeEval-Opt are observationally equal."""
    rng = np.random.default_rng(cardinality * 10 + n)
    base = random_base(cardinality, n, rng)
    values = rng.integers(0, cardinality, NUM_ROWS)
    index = BitmapIndex(values, cardinality, base=base)
    for op in OPERATORS:
        for v in boundary_values(cardinality, rng):
            predicate = Predicate(op, v)
            assert range_eval(index, predicate) == range_eval_opt(index, predicate)


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_nulls_masked_out(encoding):
    """NULL rows never match any predicate, under every encoding."""
    rng = np.random.default_rng(99)
    cardinality = 24
    values = rng.integers(0, cardinality, NUM_ROWS)
    nulls = rng.random(NUM_ROWS) < 0.15
    base = Base((5, 5))
    index = BitmapIndex(values, cardinality, base=base, encoding=encoding, nulls=nulls)
    for op in OPERATORS:
        for v in (0, 3, cardinality - 1, -1, cardinality):
            predicate = Predicate(op, v)
            got = evaluate(index, predicate).to_bools()
            expected = predicate.matches(values) & ~nulls
            assert np.array_equal(got, expected), f"{encoding.value} A {op} {v}"


# ----------------------------------------------------------------------
# Three-way dense / WAH / Roaring differential harness
# ----------------------------------------------------------------------

#: Workload generators the three-way harness sweeps (name -> factory).
WORKLOADS = {
    "uniform": lambda n, c, seed: uniform_values(n, c, seed=seed),
    "zipf": lambda n, c, seed: zipf_values(n, c, skew=1.2, seed=seed),
    "clustered": lambda n, c, seed: clustered_values(n, c, run_length=40, seed=seed),
}


def _three_way_sources(index: BitmapIndex) -> dict:
    return {
        "dense": index,
        "wah": index.with_codec("wah"),
        "roaring": index.with_codec("roaring"),
    }


def _assert_three_way_agree(index: BitmapIndex, predicates, label: str) -> None:
    """All three codecs return identical RIDs, popcounts, and op counts."""
    sources = _three_way_sources(index)
    for predicate in predicates:
        results, ops = {}, {}
        for codec, source in sources.items():
            stats = ExecutionStats()
            out = evaluate(source, predicate, stats=stats)
            results[codec] = out
            ops[codec] = _op_counts(stats)
        dense = results["dense"]
        for codec in ("wah", "roaring"):
            assert results[codec].count() == dense.count(), (
                f"{label}: {codec} popcount diverges on {predicate}"
            )
            assert np.array_equal(results[codec].indices(), dense.indices()), (
                f"{label}: {codec} RIDs diverge on {predicate}"
            )
            assert ops[codec] == ops["dense"], (
                f"{label}: {codec} op counts diverge on {predicate}: "
                f"{ops[codec]} != {ops['dense']}"
            )


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_three_way_over_workloads(workload, encoding):
    """Dense/WAH/Roaring agree on every generated workload x encoding."""
    cardinality = 24
    values = WORKLOADS[workload](NUM_ROWS, cardinality, 7)
    rng = np.random.default_rng(101)
    index = BitmapIndex(
        values, cardinality, base=Base((5, 5)), encoding=encoding
    )
    predicates = [
        Predicate(op, v)
        for op in OPERATORS
        for v in boundary_values(cardinality, rng)
    ]
    _assert_three_way_agree(index, predicates, f"{workload}/{encoding.value}")


@pytest.mark.parametrize("algorithm", ["range_eval", "range_eval_opt"])
def test_three_way_per_evaluator(algorithm):
    """Both range evaluators stay three-way identical, not just 'auto'."""
    values = uniform_values(NUM_ROWS, 60, seed=3)
    index = BitmapIndex(values, 60, base=Base((4, 4, 4)))
    sources = _three_way_sources(index)
    rng = np.random.default_rng(11)
    for op in OPERATORS:
        for v in boundary_values(60, rng):
            outs = {
                codec: evaluate(source, Predicate(op, v), algorithm=algorithm)
                for codec, source in sources.items()
            }
            for codec in ("wah", "roaring"):
                assert np.array_equal(
                    outs[codec].indices(), outs["dense"].indices()
                ), f"{algorithm}/{codec} diverges on A {op} {v}"


@pytest.mark.parametrize("backend", ["inline", "threads", "processes"])
@pytest.mark.parametrize("algorithm", ["range_eval", "range_eval_opt"])
def test_named_algorithm_reaches_every_leaf(algorithm, backend):
    """``QueryOptions.algorithm`` costs the same however a leaf arrives.

    Regression: only the predicate-object path honoured the option; the
    same leaf inside a connective, under ``count()``, or shipped to the
    process workers as an expression silently ran RangeEval-Opt.
    """
    rng = np.random.default_rng(5)
    relation = Relation.from_dict("wide", {"a": rng.integers(0, 100, 2048)})
    base = Base((10, 10))
    want = ExecutionStats()
    evaluate(
        BitmapIndex(relation.column("a").codes, 100, base=base),
        Predicate("<=", 37),
        algorithm=algorithm,
        stats=want,
    )
    options = QueryOptions(algorithm=algorithm)
    with QueryEngine(
        cache_capacity=0, backend=backend, max_workers=2, shards=2
    ) as engine:
        engine.register(relation, base=base)
        leaf = AttributePredicate("a", "<=", 37)
        as_predicate = engine.query(leaf, options=options).stats
        # "a != 1000" matches every row without touching the index, so
        # the conjunction costs the leaf plus its one AND.
        in_connective = engine.query("a <= 37 and a != 1000", options=options).stats
        in_connective.ands -= 1
        counted = engine.count("a <= 37", options=options).stats
        for stats in (as_predicate, in_connective, counted):
            assert stats.as_dict() == want.as_dict(), f"{algorithm}/{backend}"
        # An algorithm the index encoding cannot serve is the same typed
        # error on every path.
        wrong = QueryOptions(algorithm="equality_eval")
        for run in (
            lambda: engine.query(leaf, options=wrong),
            lambda: engine.query("a <= 37 and a != 1000", options=wrong),
            lambda: engine.count("a <= 37", options=wrong),
        ):
            with pytest.raises(InvalidPredicateError, match="equality-encoded"):
                run()


@pytest.mark.parametrize("scheme", ["BS", "CS", "IS"])
@pytest.mark.parametrize("file_codec", [None, "wah", "roaring"])
def test_three_way_over_storage_schemes(scheme, file_codec):
    """Every stored scheme serves identical results under all three codecs.

    Sweeps the file codec too, so the zero-decode fast paths (wah file
    served as WAH, roaring file served as Roaring) are differentially
    pinned against the decode-and-reencode paths.
    """
    cardinality = 24
    values = clustered_values(NUM_ROWS, cardinality, run_length=25, seed=13)
    index = BitmapIndex(values, cardinality, base=Base((5, 5)))
    disk = SimulatedDisk()
    write_index(disk, "t.a", index, scheme=scheme, codec=file_codec)
    rng = np.random.default_rng(17)
    predicates = [
        Predicate(op, v)
        for op in OPERATORS
        for v in boundary_values(cardinality, rng)
    ]
    baseline = {
        str(p): evaluate(index, p).indices() for p in predicates
    }
    for serving in ("dense", "wah", "roaring"):
        reader = open_scheme(disk, "t.a", compressed=serving)
        for predicate in predicates:
            got = evaluate(reader, predicate)
            assert np.array_equal(got.indices(), baseline[str(predicate)]), (
                f"{scheme}/{file_codec or 'raw'} served as {serving} "
                f"diverges on {predicate}"
            )
            reader.reset_cache()


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_three_way_after_maintenance(encoding):
    """Every codec serves the successor of an insert/update/delete alike.

    A successor shares the bitmaps an edit did not touch and copies the
    rest; a shared bitmap written in place, or a copy left unedited, would
    show as exactly the divergence a three-way re-query catches.
    """
    cardinality = 24
    values = uniform_values(NUM_ROWS, cardinality, seed=23)
    index = BitmapIndex(values, cardinality, base=Base((5, 5)), encoding=encoding)
    rng = np.random.default_rng(29)
    predicates = [
        Predicate(op, v)
        for op in OPERATORS
        for v in (0, 7, cardinality - 1)
    ]
    # Query once through every codec to populate the encoded memos.
    _assert_three_way_agree(index, predicates, f"pre-maintenance/{encoding.value}")

    index, _ = index.append(rng.integers(0, cardinality, 50))
    _assert_three_way_agree(index, predicates, f"post-append/{encoding.value}")

    for rid in (0, 5, NUM_ROWS + 10):
        index, _ = index.update(rid, int(rng.integers(0, cardinality)))
    _assert_three_way_agree(index, predicates, f"post-update/{encoding.value}")

    for rid in (1, 17, NUM_ROWS + 3):
        index, _ = index.delete(rid)
    _assert_three_way_agree(index, predicates, f"post-delete/{encoding.value}")


def test_three_way_under_query_skew():
    """Skewed query constants (hot values, boundaries) stay three-way equal."""
    cardinality = 60
    values = zipf_values(NUM_ROWS, cardinality, skew=1.5, seed=31)
    index = BitmapIndex(values, cardinality, base=Base((8, 8)))
    rng = np.random.default_rng(37)
    # Zipf-skewed constants concentrate on the same hot small values the
    # data does, plus the exact boundary codes.
    hot = np.minimum(
        rng.zipf(1.6, size=12) - 1, cardinality - 1
    ).astype(np.int64)
    constants = sorted({0, cardinality - 1, *[int(v) for v in hot]})
    predicates = [Predicate(op, v) for op in OPERATORS for v in constants]
    _assert_three_way_agree(index, predicates, "query-skew")


@pytest.mark.parametrize("cardinality", CARDINALITIES)
def test_skewed_distributions(cardinality):
    """Differential check under heavy skew (near-constant columns)."""
    rng = np.random.default_rng(cardinality)
    # 90% of rows share one value; the rest are uniform.
    hot = int(rng.integers(0, cardinality))
    values = np.where(
        rng.random(NUM_ROWS) < 0.9,
        hot,
        rng.integers(0, cardinality, NUM_ROWS),
    )
    for encoding in ENCODINGS:
        index = BitmapIndex(values, cardinality, base=Base((4, 4, 4)), encoding=encoding)
        for op in OPERATORS:
            predicate = Predicate(op, hot)
            got = evaluate(index, predicate)
            assert np.array_equal(got.to_bools(), predicate.matches(values))


# ---------------------------------------------------------------------------
# XOR / threshold / aggregate differential
# ---------------------------------------------------------------------------


def _assert_connectives_three_way(index: BitmapIndex, label: str) -> None:
    """XOR and k-of-N thresholds stay three-way identical over an index.

    Operands are equality bitmaps of distinct values fetched through each
    codec's own source; the oracle counts the dense operands' booleans.
    Charged op counts must also match across codecs (XOR charges one
    ``xor``, a non-trivial threshold charges ``N - 1`` ``or``s, both
    data-independent).
    """
    sources = _three_way_sources(index)
    operand_values = [0, 3, 7, 11]
    for codec, source in sources.items():
        operands = [
            evaluate(source, Predicate("=", v)) for v in operand_values
        ]
        dense_ops = [
            evaluate(sources["dense"], Predicate("=", v))
            for v in operand_values
        ]
        counts = np.sum([o.to_bools() for o in dense_ops], axis=0)

        xor_stats = ExecutionStats()
        xor_stats.xors += 1
        got = operands[0] ^ operands[1]
        want = dense_ops[0].to_bools() ^ dense_ops[1].to_bools()
        assert np.array_equal(got.to_bools(), want), f"{label}: {codec} xor"
        assert xor_stats.xors == 1

        for k in (0, 1, 2, len(operands), len(operands) + 2):
            stats = ExecutionStats()
            result = threshold_all(list(operands), k, stats)
            assert np.array_equal(result.to_bools(), counts >= k), (
                f"{label}: {codec} threshold k={k} diverges"
            )
            expected_ors = (
                len(operands) - 1 if 0 < k <= len(operands) else 0
            )
            assert stats.ors == expected_ors, (
                f"{label}: {codec} threshold k={k} charged {stats.ors} ors"
            )


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_threshold_xor_three_way_after_maintenance(encoding):
    """XOR/threshold kernels survive append/update/delete identically.

    Each codec's view of the successor re-encodes the maintained truth,
    and the k-way threshold kernels run over it — any stale or
    mis-merged container diverges from the dense counting oracle here.
    """
    cardinality = 24
    values = uniform_values(NUM_ROWS, cardinality, seed=47)
    index = BitmapIndex(
        values, cardinality, base=Base((5, 5)), encoding=encoding
    )
    rng = np.random.default_rng(53)
    _assert_connectives_three_way(index, f"pre-maintenance/{encoding.value}")

    index, _ = index.append(rng.integers(0, cardinality, 50))
    _assert_connectives_three_way(index, f"post-append/{encoding.value}")

    for rid in (0, 5, NUM_ROWS + 10):
        index, _ = index.update(rid, int(rng.integers(0, cardinality)))
    _assert_connectives_three_way(index, f"post-update/{encoding.value}")

    for rid in (1, 17, NUM_ROWS + 3):
        index, _ = index.delete(rid)
    _assert_connectives_three_way(index, f"post-delete/{encoding.value}")


def _aggregate_fixture():
    rng = np.random.default_rng(59)
    n = 3000
    return Relation.from_dict(
        "sales",
        {
            "region": rng.integers(0, 5, n),
            "status": rng.integers(0, 3, n),
            "qty": rng.integers(0, 40, n),
        },
    )


AGG_EXPRS = [
    "region = 1 xor status = 2",
    "atleast(2, region = 1, status = 0, qty <= 20)",
    "atleast(1, region = 4, qty > 35)",
    "not (region = 0) and atleast(2, status = 1, qty < 10, region >= 3)",
]


@pytest.mark.parametrize("codec", ["dense", "wah", "roaring"])
def test_aggregate_counts_shard_invariant(codec):
    """count/group_count are identical across shard counts 1/2/7 vs inline.

    Shards return local popcounts and the merge is a summation; the
    merged logical op counts (shard 0's, by the stats-merge contract)
    must equal the inline run's — threshold/XOR charges are
    data-independent, so sharding cannot change them.
    """
    relation = _aggregate_fixture()
    with QueryEngine(codec=codec, backend="inline") as inline:
        inline.register(relation)
        want = {}
        for text in AGG_EXPRS:
            result = inline.count(text)
            groups = inline.group_count(text, "status")
            want[text] = (
                result.count,
                groups.groups,
                (result.stats.ors, result.stats.xors, result.stats.nots),
            )
            # The pushdown agrees with the RID-materializing path.
            assert result.count == len(inline.query(text).rids)
    for shards in (1, 2, 7):
        with QueryEngine(
            codec=codec, backend="processes", shards=shards
        ) as engine:
            engine.register(relation)
            for text in AGG_EXPRS:
                count, groups, logical_ops = want[text]
                got = engine.count(text)
                assert got.count == count, f"shards={shards}: {text}"
                got_groups = engine.group_count(text, "status")
                assert got_groups.groups == groups, f"shards={shards}: {text}"
                assert (
                    got.stats.ors,
                    got.stats.xors,
                    got.stats.nots,
                ) == logical_ops, f"shards={shards}: {text} op counts diverge"


def test_aggregates_track_maintained_values():
    """count/group_count stay truthful as the underlying rows churn.

    Simulated maintenance — append, update, delete — rebuilds the served
    relation each step; the pushed-down counts must match a numpy
    recount of the current rows every time.
    """
    rng = np.random.default_rng(61)
    region = rng.integers(0, 5, 500)
    qty = rng.integers(0, 40, 500)

    def check():
        relation = Relation.from_dict(
            "t", {"region": region, "qty": qty}
        )
        with QueryEngine(codec="roaring") as engine:
            engine.register(relation)
            for text in ("region = 2 xor qty > 30", "atleast(2, region <= 1, qty < 20)"):
                mask = parse_expression(text).mask(relation)
                assert engine.count(text).count == int(mask.sum()), text
                groups = engine.group_count(text, "region").groups
                for value, counted in groups.items():
                    assert counted == int((mask & (region == value)).sum())

    check()
    region = np.concatenate([region, rng.integers(0, 5, 80)])  # append
    qty = np.concatenate([qty, rng.integers(0, 40, 80)])
    check()
    region[[0, 17, 300]] = [4, 0, 2]  # update in place
    qty[[5, 99]] = [39, 0]
    check()
    keep = np.ones(len(region), dtype=bool)  # delete rows
    keep[[3, 250, 410]] = False
    region, qty = region[keep], qty[keep]
    check()


# ----------------------------------------------------------------------
# One Bitmap protocol, one registry
# ----------------------------------------------------------------------


def _conformance_vectors():
    rng = np.random.default_rng(424242)
    yield BitVector.zeros(0)
    yield BitVector.ones(77)
    yield BitVector.from_bools(rng.random(1000) < 0.3)  # short runs
    yield BitVector.from_bools(np.repeat(rng.random(40) < 0.5, 5000))  # long runs
    yield BitVector.from_indices(200_000, [0, 65_535, 65_536, 199_999])


@pytest.mark.parametrize("codec,cls", list(BITMAP_CLASSES.items()))
class TestBitmapConformance:
    """Every registered representation answers the same five names."""

    def test_registry_and_protocol(self, codec, cls):
        assert cls.codec == codec
        assert bitmap_class(cls.codec) is cls
        assert isinstance(cls.zeros(10), Bitmap)

    def test_conversions_and_payload_round_trip(self, codec, cls):
        for vector in _conformance_vectors():
            bitmap = cls.from_bitvector(vector)
            assert isinstance(bitmap, cls)
            assert bitmap.to_bitvector() == vector
            assert cls.from_payload(bitmap.to_payload(), vector.nbits) == bitmap
            assert np.array_equal(bitmap.indices(), vector.indices())
        assert BitVector.from_bitvector(vector) is vector
        assert vector.to_bitvector() is vector

    def test_dense_payload_is_zero_copy(self, codec, cls):
        buf = bytearray(cls.from_bitvector(BitVector.ones(130)).to_payload())
        bitmap = cls.from_payload(memoryview(buf), 130)
        for i in range(len(buf)):
            buf[i] = 0
        # Dense and Roaring bitmaps are views of the caller's buffer, which
        # was just zeroed (the Roaring container keeps its parsed size, one
        # value); WAH copied its runs out.
        assert bitmap.count() == {"dense": 0, "roaring": 1, "wah": 130}[codec]

    def test_payload_of_another_length_is_corrupt(self, codec, cls):
        payload = cls.from_bitvector(BitVector.ones(200)).to_payload()
        for nbits in (100, 2000):
            with pytest.raises(CorruptFileError):
                cls.from_payload(payload, nbits)
        for damaged in (payload[: len(payload) // 2], payload + payload):
            with pytest.raises(CorruptFileError):
                cls.from_payload(damaged, 200)

    def test_set_bit_past_the_length_is_corrupt(self, codec, cls):
        # A payload of ``longer`` bits with ``row`` set, read back as
        # ``nbits`` rows that fill the same bytes and words: a bit in the
        # tail group, a later group, or past a long fill.
        cases = [(100, 101, 100), (61, 64, 63), (31, 32, 31), (199_997, 200_000, 199_999)]
        for nbits, longer, row in cases:
            payload = cls.from_bitvector(BitVector.from_indices(longer, [row])).to_payload()
            with pytest.raises(CorruptFileError):
                cls.from_payload(payload, nbits)

    @settings(max_examples=40, deadline=None)
    @given(
        # Up to four 65,536-row chunks: an exact multiple, a partial tail;
        # word edges, and 248 bits: one 8-group row of WAH's group bytes.
        nbits=st.sampled_from(
            [0, 1, 30, 31, 32, 62, 63, 64, 65, 248, 249, 1000, 65_537, 131_072, 200_000]
        ),
        shapes=st.tuples(
            *[st.sampled_from(["literal", "fill", "sparse", "tenth", "patchy"])] * 3
        ),
        seed=st.integers(0, 2**31),
    )
    def test_every_kernel_matches_the_dense_oracle_whatever_the_operand_shape(
        self, codec, cls, nbits, shapes, seed
    ):
        # Literal-heavy, fill-heavy, sparse and chunk-wise mixed operands
        # (with chunks wholly absent and wholly full): a compressed class
        # may hold each differently — for Roaring, all 3 x 3 pairs of
        # container kinds meet — and must answer the same.
        x, y, z = (
            shaped_vector(nbits, shape, seed + i) for i, shape in enumerate(shapes)
        )
        a, b, c = (cls.from_bitvector(v) for v in (x, y, z))
        cases = [
            (a & b, x & y),
            (a | b, x | y),
            (a ^ b, x ^ y),
            (~a, ~x),
            (cls.threshold_many([a, b, c], 2), BitVector.threshold_many([x, y, z], 2)),
            (((a | b) & ~c) ^ a, ((x | y) & ~z) ^ x),  # a chain of results
        ]
        if hasattr(cls, "and_many"):
            cases += [
                (cls.and_many([a, b, c]), x & y & z),
                (cls.or_many([a, b, c]), x | y | z),
            ]
        if hasattr(cls, "andnot"):
            cases += [(a.andnot(b), x.andnot(y)), (c.andnot(a), z.andnot(x))]
        for got, want in cases:
            assert isinstance(got, cls)
            assert got.to_bitvector() == want
            assert got.count() == want.count()
            assert np.array_equal(got.indices(), want.indices())
            assert got.indices().dtype == np.int64
            assert np.array_equal(got.to_bools(), want.to_bools())
            # However it was computed, a result is stored as if built fresh.
            fresh = cls.from_bitvector(want)
            assert got.to_payload() == fresh.to_payload()
            assert got.nbytes == fresh.nbytes
        assert a.and_count(b) == (x & y).count()
        assert a.and_count(c) == (x & z).count()

    def test_materialize_calls_no_kernel(self, codec, cls, monkeypatch):
        # ``indices()`` is timed apart from the kernels, whose calls are
        # counted per query: materializing must not call one.
        path = Path(__file__).parents[1] / "benchmarks" / "e2e" / "layers.py"
        spec = importlib.util.spec_from_file_location("e2e_layers_kernels", path)
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        vectors = list(_conformance_vectors())
        bitmaps = [cls.from_bitvector(v) for v in vectors]
        pairs = list(zip(bitmaps, vectors))
        pairs += [(a & b, x & y) for (a, x), (b, y) in zip(pairs, pairs[1:]) if len(x) == len(y)]
        pairs += [(~a, ~x) for a, x in pairs[:len(vectors)]]

        def kernel(*args, **kwargs):
            raise AssertionError("a kernel ran")

        for name in layers.KERNELS:
            if hasattr(cls, name):
                monkeypatch.setattr(cls, name, kernel)
        with pytest.raises(AssertionError):
            bitmaps[1].count()
        for got, want in pairs:
            assert np.array_equal(got.indices(), want.indices())

    @pytest.mark.parametrize("with_nulls", [False, True])
    @pytest.mark.parametrize("bases", [(2, 2, 2), (10, 10), (257,)])
    @pytest.mark.parametrize("encoding", list(EncodingScheme))
    def test_packed_payloads_match_int64_digit_bitmaps(
        self, codec, cls, encoding, bases, with_nulls
    ):
        # The build compares narrow digit arrays; the reference below is
        # the definition: int64 digits by ``%`` and ``//``, one
        # ``from_bools`` per stored slot, read back out of the packed image.
        rng = np.random.default_rng(sum(bases))
        base = Base(bases)
        values = rng.integers(0, base.capacity, 3000)
        nulls = rng.random(3000) < 0.1 if with_nulls else None
        index = BitmapIndex(values, base.capacity, base, encoding, nulls=nulls)
        image = b"".join(_relation_chunks("t", 3000, {"a": _index_attr_spec(index, codec)})[0])
        meta = json.loads(image[_HEADER.size : _payload_start(image)])["attributes"]["a"]

        def packed(entry):
            start = _payload_start(image) + entry[0]
            return image[start : start + entry[1]]

        def fresh(bools):
            return cls.from_bitvector(BitVector.from_bools(bools)).to_payload()

        rest = np.where(nulls, 0, values) if with_nulls else values.astype(np.int64)
        for b, component in zip(reversed(bases), meta["components"]):
            digits, rest = rest % b, rest // b
            window = interval_window(b)
            want = {
                EncodingScheme.RANGE: {j: digits <= j for j in range(b - 1)},
                EncodingScheme.EQUALITY: {
                    j: digits == j for j in range(1 if b == 2 else 0, b)
                },
                EncodingScheme.INTERVAL: {
                    j: (digits >= j) & (digits < j + window) for j in range(window)
                },
            }[encoding]
            assert sorted(component["slots"], key=int) == [str(j) for j in want]
            for j, bools in want.items():
                assert packed(component["slots"][str(j)]) == fresh(bools), (b, j)
        if with_nulls:
            assert packed(meta["nonnull"]) == fresh(~nulls)
        else:
            assert meta["nonnull"] is None


#: Row counts around every codec's word geometry: WAH's 31-bit groups and
#: its byte padding, dense's 64-bit words, Roaring's 65,536-row chunks.
EDGE_NBITS = [1, 30, 31, 32, 63, 64, 65, 1984, 65535, 65536, 65537]


@st.composite
def packed_columns(draw):
    """A codec, an encoding, a 1-3 component base with one 256-wide
    component (its digits fill ``uint8``), a rank column over that base
    (sorted or not) and an optional NULL mask."""
    others = draw(st.lists(st.sampled_from([2, 3, 5, 10]), max_size=2))
    bases = list(others)
    bases.insert(draw(st.integers(0, len(others))), 256)
    base = Base(tuple(bases))
    nbits = draw(st.sampled_from(EDGE_NBITS) | st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ranks = rng.integers(0, base.capacity, nbits)
    if draw(st.booleans()):
        ranks.sort()  # long runs: fills, run containers
    nulls = rng.random(nbits) < 0.2 if draw(st.booleans()) else None
    if nulls is not None:
        ranks[nulls] = 0
    codec = draw(st.sampled_from(list(BITMAP_CLASSES)))
    return codec, draw(st.sampled_from(ENCODINGS)), base, ranks, nulls


@settings(max_examples=30, deadline=None)
@given(packed_columns())
def test_layout_payloads_match_a_conversion_per_slot(column):
    # The packer cuts every slot straight from its digit column in the
    # codec's word geometry; the reference is the definition — int64
    # digits, one ``from_bools`` and one conversion per stored slot.
    codec, encoding, base, ranks, nulls = column
    spec = _packed_attr_spec(ranks, base.capacity, base, encoding, codec, 8, nulls=nulls)
    cls = bitmap_class(codec)

    def fresh(bools):
        return cls.from_bitvector(BitVector.from_bools(bools)).to_payload()

    rest, want = ranks.astype(np.int64), {}
    for i in range(1, base.n + 1):
        b = base.component(i)
        digits, rest = rest % b, rest // b
        window = interval_window(b)
        slots = {
            EncodingScheme.RANGE: {j: digits <= j for j in range(b - 1)},
            EncodingScheme.EQUALITY: {j: digits == j for j in range(1 if b == 2 else 0, b)},
            EncodingScheme.INTERVAL: {
                j: (digits >= j) & (digits < j + window) for j in range(window)
            },
        }[encoding]
        want.update({(i, j): bools for j, bools in slots.items()})
    assert sorted(spec["bitmaps"]) == sorted(want)
    for key, bools in want.items():
        assert bytes(spec["bitmaps"][key]) == fresh(bools), key
    if nulls is None:
        assert spec["nonnull"] is None
    else:
        assert bytes(spec["nonnull"]) == fresh(~nulls)


def _reference_parse(blob):
    """A WAH payload parsed word by word: ``(orig_len, canonical runs)``,
    the canonical form being :func:`~repro.bitmaps.wah._canonical`'s."""
    if len(blob) < 8:
        raise CorruptFileError("shorter than its header")
    if (len(blob) - 8) % 4:
        raise CorruptFileError("not word-aligned")
    (orig_len,) = struct.unpack_from("<Q", blob)
    values, ends = [], []
    for word in np.frombuffer(blob, dtype="<u4", offset=8).tolist():
        count, value = 1, word
        if word >> 31:
            count, value = word & wah._MAX_RUN, wah._LITERAL_MASK if word >> 30 & 1 else 0
        if count:
            values.append(value)
            ends.append((ends[-1] if ends else 0) + count)
    expected = wah._expected_groups(orig_len)
    total = ends[-1] if ends else 0
    if total != expected:
        raise CorruptFileError("fewer bits" if total < expected else "more groups than")
    runs = (np.array(values, dtype=np.uint32), np.array(ends, dtype=np.int64))
    return orig_len, wah._canonical(runs, expected)


_LITERAL = st.sampled_from([0, 1, 0x55555555, wah._LITERAL_MASK]) | st.integers(
    0, wah._LITERAL_MASK
)
_FILL = st.builds(
    lambda ones, count: wah._FILL_FLAG | (wah._FILL_VALUE_FLAG if ones else 0) | count,
    st.booleans(),
    st.sampled_from([0, 1, 2]) | st.integers(0, 40),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_LITERAL | _FILL, max_size=40), st.integers(-2, 2), st.booleans())
def test_parse_runs_agrees_with_a_word_by_word_parse(words, skew, torn):
    # Hand-made payloads an encoder never writes — equal adjacent fills,
    # zero-length fills, literals that are all zeros or all ones, bodies a
    # group short or over — parse to the reference's run list, or raise
    # the reference's error.
    groups = sum(w & wah._MAX_RUN if w >> 31 else 1 for w in words)
    orig_len = max(0, groups * 31 // 8 + skew)
    blob = struct.pack("<Q", orig_len) + np.array(words, dtype="<u4").tobytes()
    if torn:
        blob = blob[:-1]
    try:
        want = _reference_parse(blob)
    except CorruptFileError as exc:
        with pytest.raises(CorruptFileError, match=str(exc)):
            wah._parse_runs(blob)
        return
    got_len, (values, ends) = wah._parse_runs(blob)
    want_len, (want_values, want_ends) = want
    assert got_len == want_len
    assert values.dtype == np.uint32 and np.array_equal(values, want_values)
    if want_ends is None:
        assert ends is None
    else:
        assert ends.dtype == np.int64 and np.array_equal(ends, want_ends)


def test_unknown_codec_is_one_typed_error_at_every_door(tmp_path):
    rng = np.random.default_rng(5)
    relation = Relation.from_dict("t", {"a": rng.integers(0, 9, 300)})
    index = BitmapIndex(relation.column("a").codes, 9)
    disk = SimulatedDisk()
    write_index(disk, "idx", index, scheme="BS")
    spec_engine = QueryEngine(backend="inline")
    spec_engine.register(relation, overrides={"a": IndexSpec(codec="lz4")})
    doors = {
        "QueryEngine(codec=)": lambda: QueryEngine(codec="lz4"),
        "IndexSpec(codec=)": lambda: spec_engine.count("a = 3"),
        "IndexStore.build(codec=)": lambda: IndexStore(str(tmp_path)).build(
            relation, codec="lz4"
        ),
        "BitmapIndex.with_codec": lambda: index.with_codec("lz4"),
        "open_scheme(compressed=)": lambda: open_scheme(disk, "idx", compressed="lz4"),
        "ShardExport": lambda: ShardExport(index, shard_bounds(index.nbits, 2), "lz4"),
    }
    for door, call in doors.items():
        with pytest.raises(EngineConfigError, match="lz4"):
            call()
        assert issubclass(EngineConfigError, ValueError), door
