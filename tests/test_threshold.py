"""Property suite for threshold (k-of-N), XOR, and aggregate pushdown.

Hypothesis-driven laws pin the compressed-domain kernels to a naive
numpy oracle across all three codecs:

- ``THRESHOLD(1, ...) == OR`` and ``THRESHOLD(N, ...) == AND``;
- ``XOR == (A OR B) ANDNOT (A AND B)``;
- monotonicity in ``k`` (raising the threshold never adds rows);
- the edge cases ``k <= 0`` (all rows), ``k > N`` (no rows), a single
  operand, and empty operand lists (rejected at construction).

The engine half asserts the *pushdown* contract: ``count`` /
``group_count`` answer from popcounts — their traces carry an
``aggregate.pushdown`` phase and no ``materialize`` phase — and agree
with the RID-materializing query path bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmaps.bitvector import BitVector
from repro.bitmaps.compressed import WahBitVector
from repro.bitmaps.roaring import RoaringBitmap
from repro.core.evaluation import threshold_all
from repro.engine import QueryEngine
from repro.errors import InvalidPredicateError
from repro.query.expression import Threshold, Xor, parse_expression
from repro.query.options import QueryOptions
from repro.relation.relation import Relation
from repro.stats import ExecutionStats

pytestmark = pytest.mark.threshold


def _encode(codec: str, bools: np.ndarray):
    dense = BitVector.from_bools(bools)
    if codec == "dense":
        return dense
    if codec == "wah":
        return WahBitVector.from_bitvector(dense)
    return RoaringBitmap.from_bitvector(dense)


def _operands(nbits: int, n: int, seed: int) -> list[np.ndarray]:
    """n seeded boolean operand columns mixing densities and run shapes."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        density = (0.02, 0.4, 0.85, 0.999)[i % 4]
        bools = rng.random(nbits) < density
        if i % 2:
            # Runs: sorting a chunk produces long fills for WAH/Roaring.
            half = nbits // 2
            bools[:half] = np.sort(bools[:half])
        out.append(bools)
    return out


CODECS = ["dense", "wah", "roaring"]
TRACED = QueryOptions(trace=True)

# Lengths probing word/group/container boundaries: WAH groups are 31
# bits, dense words 64, Roaring chunks 65536.
LENGTHS = st.sampled_from([1, 31, 62, 64, 100, 1000, 65536, 70000])


class TestThresholdKernels:
    @pytest.mark.parametrize("codec", CODECS)
    @settings(max_examples=30, deadline=None)
    @given(
        nbits=LENGTHS,
        n=st.integers(min_value=1, max_value=5),
        k=st.integers(min_value=-1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_counting_oracle(self, codec, nbits, n, k, seed):
        columns = _operands(nbits, n, seed)
        vectors = [_encode(codec, bools) for bools in columns]
        result = threshold_all(vectors, k, ExecutionStats())
        oracle = np.sum(columns, axis=0) >= k
        assert type(result) is type(vectors[0])
        np.testing.assert_array_equal(result.indices(), np.nonzero(oracle)[0])

    @pytest.mark.parametrize("codec", CODECS)
    @settings(max_examples=20, deadline=None)
    @given(
        nbits=LENGTHS,
        n=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_one_is_or_and_n_is_and(self, codec, nbits, n, seed):
        columns = _operands(nbits, n, seed)
        vectors = [_encode(codec, bools) for bools in columns]
        union = threshold_all(list(vectors), 1, ExecutionStats())
        inter = threshold_all(list(vectors), n, ExecutionStats())
        acc_or, acc_and = vectors[0], vectors[0]
        for v in vectors[1:]:
            acc_or = acc_or | v
            acc_and = acc_and & v
        np.testing.assert_array_equal(union.indices(), acc_or.indices())
        np.testing.assert_array_equal(inter.indices(), acc_and.indices())

    @pytest.mark.parametrize("codec", CODECS)
    @settings(max_examples=20, deadline=None)
    @given(
        nbits=LENGTHS,
        n=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_monotone_in_k(self, codec, nbits, n, seed):
        """Raising k only ever removes rows: results nest as k grows."""
        vectors = [_encode(codec, b) for b in _operands(nbits, n, seed)]
        previous = None
        for k in range(0, n + 2):
            rids = set(
                threshold_all(list(vectors), k, ExecutionStats())
                .indices()
                .tolist()
            )
            if previous is not None:
                assert rids <= previous, f"k={k} grew the result"
            previous = rids

    @pytest.mark.parametrize("codec", CODECS)
    @settings(max_examples=20, deadline=None)
    @given(
        nbits=LENGTHS,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_xor_is_or_minus_and(self, codec, nbits, seed):
        a_bools, b_bools = _operands(nbits, 2, seed)
        a, b = _encode(codec, a_bools), _encode(codec, b_bools)
        xor = a ^ b
        identity = (a | b) & ~(a & b)
        np.testing.assert_array_equal(xor.indices(), identity.indices())
        np.testing.assert_array_equal(
            xor.indices(), np.nonzero(a_bools ^ b_bools)[0]
        )

    @pytest.mark.parametrize("codec", CODECS)
    @settings(max_examples=20, deadline=None)
    @given(
        nbits=LENGTHS,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_and_count_is_fused_intersection_popcount(self, codec, nbits, seed):
        """The aggregate-pushdown primitive equals (a & b).count()."""
        a_bools, b_bools = _operands(nbits, 2, seed)
        a, b = _encode(codec, a_bools), _encode(codec, b_bools)
        assert a.and_count(b) == (a & b).count()
        assert a.and_count(b) == int(np.sum(a_bools & b_bools))

    def test_clamps_charge_no_ops(self):
        vectors = [_encode("wah", b) for b in _operands(1000, 3, 9)]
        for k, expected in ((0, 1000), (-2, 1000), (4, 0)):
            stats = ExecutionStats()
            result = threshold_all(list(vectors), k, stats)
            assert result.count() == expected
            assert stats.ors == 0
        charged = ExecutionStats()
        threshold_all(list(vectors), 2, charged)
        assert charged.ors == len(vectors) - 1

    def test_mixed_codecs_raise_type_error(self):
        # Like AND and OR, the kernel combines one representation only;
        # both query doors refuse a mixed query before it gets here.
        columns = _operands(500, 3, 21)
        codecs = ["dense", "wah", "roaring"]
        for shift in range(3):
            order = codecs[shift:] + codecs[:shift]
            vectors = [_encode(codec, bools) for codec, bools in zip(order, columns)]
            with pytest.raises(TypeError):
                threshold_all(vectors, 2, ExecutionStats())

    def test_threshold_node_rejects_bad_shapes(self):
        leaf = parse_expression("a = 1")
        with pytest.raises(InvalidPredicateError):
            Threshold(2, ())
        with pytest.raises(InvalidPredicateError):
            Threshold(1.5, (leaf,))
        with pytest.raises(InvalidPredicateError):
            parse_expression("atleast(2)")
        with pytest.raises(InvalidPredicateError):
            parse_expression("atleast(1.5, a = 1)")


class TestExpressionLayer:
    @pytest.fixture(scope="class")
    def relation(self):
        rng = np.random.default_rng(42)
        n = 4000
        return Relation.from_dict(
            "t",
            {
                "a": rng.integers(0, 6, n),
                "b": rng.integers(0, 4, n),
                "c": rng.integers(0, 50, n),
            },
        )

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize(
        "text",
        [
            "a = 1 xor b = 2",
            "atleast(2, a = 1, b <= 1, c < 25)",
            "threshold(1, a = 0, b = 3)",
            "atleast(3, a = 1, b <= 1, c < 25)",
            "atleast(0, a = 1, b = 2)",
            "atleast(9, a = 1, b = 2)",
            "not (a = 1 xor b = 2) and c >= 10",
            "atleast(2, a in (1, 3), b between 1 and 2, not c > 40)",
        ],
    )
    def test_engine_matches_mask(self, relation, codec, text):
        with QueryEngine(codec=codec) as engine:
            engine.register(relation)
            rids = engine.query(text).rids
        expression = parse_expression(text)
        np.testing.assert_array_equal(
            rids, np.nonzero(expression.mask(relation))[0]
        )

    def test_xor_precedence_binds_tighter_than_or(self):
        e = parse_expression("a = 1 or b = 2 xor c = 3")
        assert str(e) == "(a = 1 or (b = 2 xor c = 3))"
        assert isinstance(parse_expression("a = 1 xor b = 2 and c = 3"), Xor)

    def test_threshold_names_stay_usable_as_columns(self):
        """ATLEAST is contextual: only a call shape makes a threshold."""
        e = parse_expression("atleast = 3")
        assert e.attributes() == {"atleast"}

    def test_explain_walks_threshold_and_xor(self, relation):
        """EXPLAIN's cost prediction descends into the new node types."""
        with QueryEngine(codec="wah") as engine:
            engine.register(relation)
            report = engine.explain("atleast(2, a <= 4, b <= 2, c < 25) xor a = 3")
        predicates = [leaf["predicate"] for leaf in report.predicted_leaves]
        assert len(predicates) == 4
        assert report.matches_prediction


class TestAggregatePushdown:
    @pytest.fixture(scope="class")
    def relation(self):
        rng = np.random.default_rng(7)
        n = 5000
        return Relation.from_dict(
            "sales",
            {
                "region": rng.integers(0, 5, n),
                "status": rng.integers(0, 3, n),
                "qty": rng.integers(0, 40, n),
            },
        )

    EXPR = "atleast(2, region = 1, status = 0, qty <= 20)"

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("backend", ["inline", "threads", "processes"])
    def test_count_agrees_with_materializing_path(
        self, relation, codec, backend
    ):
        with QueryEngine(
            codec=codec, backend=backend, shards=3, max_workers=3
        ) as engine:
            engine.register(relation)
            result = engine.count(self.EXPR, options=TRACED)
            rids = engine.query(self.EXPR).rids
            assert result.count == len(rids)
            groups = engine.group_count(self.EXPR, "region", options=TRACED)
        values = relation.column("region").values
        for value, counted in groups.groups.items():
            assert counted == int(np.isin(rids, np.nonzero(values == value)[0]).sum())
        assert groups.count == len(rids)
        for outcome in (result, groups):
            names = [span.name for span in outcome.trace.spans]
            assert "aggregate.pushdown" in names
            assert "materialize" not in names

    def test_pushdown_never_materializes_rids(self, relation):
        """The op-count contract: counts come from popcounts alone."""
        with QueryEngine(codec="wah") as engine:
            engine.register(relation)
            query_result = engine.query(self.EXPR, options=TRACED)
            count_result = engine.count(self.EXPR, options=TRACED)
        query_spans = [s.name for s in query_result.trace.spans]
        count_spans = [s.name for s in count_result.trace.spans]
        assert "materialize" in query_spans  # the RID path does build RIDs
        assert "materialize" not in count_spans
        assert "aggregate.pushdown" in count_spans
        # Same logical work up to the final popcount: identical charged
        # bitmap ops on the evaluate phase.
        assert count_result.stats.ors == query_result.stats.ors
        assert count_result.stats.nots == query_result.stats.nots

    def test_shard_counts_merge_by_summation(self, relation):
        with QueryEngine(codec="dense", backend="inline") as inline:
            inline.register(relation)
            want = inline.count(self.EXPR).count
            want_groups = inline.group_count(self.EXPR, "status").groups
        for shards in (1, 2, 7):
            with QueryEngine(
                codec="dense", backend="processes", shards=shards
            ) as engine:
                engine.register(relation)
                assert engine.count(self.EXPR).count == want
                assert (
                    engine.group_count(self.EXPR, "status").groups
                    == want_groups
                )

    def test_group_count_unindexed_column_rejected(self, relation):
        with QueryEngine() as engine:
            engine.register(relation, attributes=["region", "qty"])
            with pytest.raises(Exception):
                engine.group_count("qty <= 20", "missing")


class TestGroupCountNulls:
    """Regression: group_count under ``nulls=`` tracking matches naive.

    A row whose grouping value is NULL must land in *no* group (SQL
    ``GROUP BY`` drops NULL keys from value groups), and the group sum —
    not the overall match count — reflects that.  The per-code equality
    bitmaps are null-masked inside ``evaluate``; a pushdown that instead
    partitioned the result bitmap arithmetically (e.g. subtracting
    complements) would resurrect the NULL rows and fail here.
    """

    @pytest.mark.parametrize("codec", CODECS)
    def test_null_rows_land_in_no_group(self, codec):
        from repro.core.index import BitmapIndex

        rng = np.random.default_rng(11)
        n = 2000
        region = rng.integers(0, 4, n)
        qty = rng.integers(0, 30, n)
        nulls = rng.random(n) < 0.15  # region is NULL on these rows
        relation = Relation.from_dict("t", {"region": region, "qty": qty})
        with QueryEngine(codec=codec) as engine:
            engine.register(relation)
            column = relation.column("region")
            # Pre-seed the registry with a nulls-tracking index for the
            # grouping column; the engine serves whatever is registered.
            engine.registration("t").indexes.get_or_build(
                "region",
                lambda: BitmapIndex(
                    column.codes,
                    cardinality=column.cardinality,
                    nulls=nulls,
                    keep_values=False,
                ),
            )
            text = "atleast(1, qty <= 10, qty >= 28)"
            result = engine.group_count(text, "region")
        mask = (qty <= 10) | (qty >= 28)
        for value in range(4):
            naive = int((mask & (region == value) & ~nulls).sum())
            assert result.groups[value] == naive, value
        assert result.count == int((mask & ~nulls).sum())
        assert result.count < int(mask.sum())  # the NULL rows are gone
