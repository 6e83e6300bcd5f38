"""Tests for the query observability layer: traces, EXPLAIN, unified API.

Covers the tentpole invariants:

- tracing is opt-in: untraced results carry ``trace=None`` and identical
  counters to traced runs (the instrumentation only observes);
- every layer emits its spans (fetch/op/phase at minimum; cache/buffer
  on the cached paths);
- EXPLAIN's predicted scan count (the paper's cost model) equals the
  traced actual scan count on an uncached run — for both the dense and
  the WAH-compressed execution paths — and equals ``scans + hits`` on a
  warm cache;
- the unified ``QueryEngine.query`` accepts all three query forms and the
  expression path routes every bitmap fetch through the shared cache.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.engine.engine import IndexSpec, QueryEngine
from repro.errors import QueryTimeoutError
from repro.query.executor import bitmap_index_for, execute
from repro.query.expression import Comparison, Expression, parse_expression
from repro.query.options import QueryOptions, normalize_query
from repro.query.predicate import AttributePredicate
from repro.relation.relation import Relation
from repro.stats import ExecutionStats
from repro.storage.store import IndexStore
from repro.trace import QueryTrace, explain

NUM_ROWS = 2000
TRACED = QueryOptions(trace=True)

EIGHT_LEAF_QUERY = (
    "quantity between 10 and 30 and region in (1, 2, 5) "
    "and not atleast(2, quantity < 5, region = 3, quantity >= 40)"
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def relation(rng) -> Relation:
    return Relation.from_dict(
        "sales",
        {
            "region": rng.integers(0, 8, NUM_ROWS),
            "quantity": rng.integers(0, 50, NUM_ROWS),
        },
    )


def make_engine(relation, **kwargs) -> QueryEngine:
    engine = QueryEngine(**kwargs)
    engine.register(relation)
    return engine


# ----------------------------------------------------------------------
# Tracing basics
# ----------------------------------------------------------------------


class TestQueryTrace:
    def test_untraced_result_has_no_trace(self, relation):
        engine = make_engine(relation)
        result = engine.query("quantity <= 25")
        assert result.trace is None
        assert result.stats.trace is None

    def test_traced_predicate_has_spans_of_each_layer(self, relation):
        engine = make_engine(relation, cache_capacity=0)
        result = engine.query("quantity <= 25", options=TRACED)
        trace = result.trace
        assert trace is not None
        kinds = {span.kind for span in trace.spans}
        assert "plan" in kinds  # engine dispatch
        assert "phase" in kinds  # evaluate / materialize
        assert "fetch" in kinds  # physical index fetch
        assert trace.count("fetch") == result.stats.scans

    def test_traced_expression_has_op_spans(self, relation):
        engine = make_engine(relation, cache_capacity=0)
        result = engine.query(
            "quantity <= 25 and (region = 3 or region = 7)", options=TRACED
        )
        trace = result.trace
        assert trace is not None
        assert trace.count("op") == result.stats.ops
        assert trace.count("fetch") == result.stats.scans

    @pytest.mark.parametrize("codec", ["dense", "wah"])
    def test_connectives_are_timed_op_spans_like_any_operation(self, relation, codec):
        # One counted operation: a connective of the tree and an operation
        # inside an evaluator are charged and timed by the same functions,
        # so the op spans account for every charged operation (a k-way
        # merge is one span charging ``count``) and none is a marker event.
        engine = make_engine(relation, cache_capacity=0, codec=codec)
        result = engine.query(EIGHT_LEAF_QUERY, options=TRACED)
        ops = result.trace.spans_of("op")
        assert sum(s.attrs.get("count", 1) for s in ops) == result.stats.ops
        assert result.trace.count("op") == result.stats.ops - 1  # atleast: 2 ORs
        assert result.trace.count("fetch") == result.stats.scans
        assert not [s for s in ops if "layer" in s.attrs]
        assert all(s.attrs["nbits"] == NUM_ROWS for s in ops)

    @pytest.mark.parametrize("encoding", [EncodingScheme.RANGE, EncodingScheme.EQUALITY])
    def test_group_counts_charges_its_ands_as_op_spans(self, relation, encoding):
        # ``group_counts`` has a route for a one-component range-encoded
        # grouping column (running differences of fused intersect-popcounts)
        # and one for every other shape; each charges one AND per popcount.
        engine = QueryEngine(cache_capacity=0)
        engine.register(relation, overrides={"region": IndexSpec(encoding=encoding)})
        result = engine.group_count("quantity <= 25", "region", options=TRACED)
        ands = [s for s in result.trace.spans_of("op") if s.name == "and"]
        assert len(ands) == result.stats.ands >= 7
        assert result.trace.count("op") == result.stats.ops

    def test_untraced_span_is_one_shared_null_context(self):
        stats = ExecutionStats()
        first = stats.span("evaluate", kind="phase", mode="predicate")
        assert first is ExecutionStats().span("decode", kind="decode")
        with first as span:
            assert span is None
        assert stats.trace is None

    def test_trace_does_not_change_counters(self, relation):
        plain = make_engine(relation, cache_capacity=0)
        traced = make_engine(relation, cache_capacity=0)
        text = "quantity between 10 and 30 and region in (1, 2, 5)"
        a = plain.query(text)
        b = traced.query(text, options=TRACED)
        assert np.array_equal(a.rids, b.rids)
        assert a.stats.as_dict() == b.stats.as_dict()

    def test_cache_hits_emit_cache_spans(self, relation):
        engine = make_engine(relation, cache_capacity=64)
        engine.query("quantity <= 25")  # warm the cache
        result = engine.query("quantity <= 25", options=TRACED)
        assert result.stats.buffer_hits > 0
        assert result.trace.count("cache") == result.stats.buffer_hits
        assert result.stats.scans == 0

    def test_format_and_as_dict(self, relation):
        engine = make_engine(relation, cache_capacity=0)
        trace = engine.query("quantity <= 25", options=TRACED).trace
        text = trace.format()
        assert "trace:" in text and "fetch" in text
        payload = trace.as_dict()
        assert payload["label"] == "quantity <= 25"
        assert payload["summary"]["fetch"]["count"] == trace.count("fetch")
        assert len(payload["spans"]) == len(trace.spans)

    def test_nested_spans_track_depth(self):
        trace = QueryTrace(label="t")
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        inner, outer = trace.spans  # recorded on exit, inner first
        assert inner.name == "inner" and inner.depth == 1
        assert outer.name == "outer" and outer.depth == 0
        assert outer.duration >= inner.duration


class TestStandaloneEntryPointTracing:
    def test_executor_options_trace(self, relation):
        index = bitmap_index_for(relation, "quantity")
        result = execute(
            relation,
            AttributePredicate("quantity", "<=", 25),
            {"quantity": index},
            options=QueryOptions(trace=True, verify=True),
        )
        names = [span.name for span in result.trace.spans]
        assert names.count("index.fetch") == result.stats.scans
        assert {"evaluate", "materialize", "verify"} <= set(names)

    def test_deadline_reaches_every_standalone_entry_point(self, relation):
        # One per-query record (QueryOptions.new_stats) for every query
        # form of the one engine-free door: a spent budget stops each at
        # the evaluator seam.
        indexes = {
            "quantity": bitmap_index_for(relation, "quantity"),
            "region": bitmap_index_for(relation, "region"),
        }
        spent = QueryOptions(deadline_ms=0)
        for query in (
            AttributePredicate("quantity", "<=", 10),
            "quantity <= 10 and region = 3",
        ):
            with pytest.raises(QueryTimeoutError, match="evaluate"):
                execute(relation, query, indexes, options=spent)
            execute(relation, query, indexes, options=QueryOptions(deadline_ms=60_000.0))
        # The budget is each query's own: a query without one runs without one.
        stats = execute(relation, "quantity <= 10", indexes).stats
        assert stats.deadline is None and stats.scans == 1


# ----------------------------------------------------------------------
# The unified query API
# ----------------------------------------------------------------------


class TestUnifiedQueryAPI:
    def test_three_forms_agree_and_match_ground_truth(self, relation):
        text = "quantity <= 25"
        truth = np.nonzero(relation.column("quantity").values <= 25)[0]
        forms = (
            text,
            AttributePredicate("quantity", "<=", 25),
            parse_expression(text),
        )
        for codec in ("dense", "wah", "roaring"):
            # One engine per form, so every run is equally cold.
            results = []
            for form in forms:
                engine = make_engine(relation, codec=codec)
                results.append(engine.query(form, options=TRACED))
                assert list(engine.snapshot()["by_mode"]) == ["predicate"]
            for result in results:
                assert np.array_equal(result.rids, truth)
                assert result.stats.as_dict() == results[0].stats.as_dict()
                phases = [s.name for s in result.trace.spans_of("phase")]
                assert phases == [
                    s.name for s in results[0].trace.spans_of("phase")
                ]
                assert {"evaluate", "materialize"} <= set(phases)

    def test_normalize_query_returns_an_expression_for_every_form(self):
        leaf = Comparison("quantity", "<=", 25)
        for form in ("quantity <= 25", AttributePredicate("quantity", "<=", 25), leaf):
            assert normalize_query(form) == leaf
        tree = parse_expression("quantity <= 25 and region = 3")
        assert normalize_query(tree) is tree
        assert isinstance(normalize_query(tree), Expression)

    def test_boolean_expression_matches_ground_truth(self, relation):
        engine = make_engine(relation)
        text = "quantity <= 25 and (region = 3 or region = 7)"
        result = engine.query(text)
        quantity = relation.column("quantity").values
        region = relation.column("region").values
        truth = np.nonzero(
            (quantity <= 25) & ((region == 3) | (region == 7))
        )[0]
        assert np.array_equal(result.rids, truth)

    def test_expression_fetches_route_through_shared_cache(self, relation):
        engine = make_engine(relation, cache_capacity=256)
        text = "quantity <= 25 and region in (1, 2)"
        cold = engine.query(text)
        assert cold.stats.scans > 0
        warm = engine.query(text)
        assert warm.stats.scans == 0
        # every fetch of the warm run is a hit; the cold run may already
        # have intra-query hits when leaves share a bitmap slot
        assert warm.stats.buffer_hits == cold.stats.scans + cold.stats.buffer_hits
        assert engine.cache.hits >= warm.stats.buffer_hits
        assert np.array_equal(cold.rids, warm.rids)

    def test_query_batch_mixes_forms(self, relation):
        engine = make_engine(relation, max_workers=2)
        results = engine.query_batch(
            [
                "quantity <= 25",
                AttributePredicate("region", "=", 3),
                ("sales", "quantity > 40 or region = 0"),
            ]
        )
        assert len(results) == 3
        truth = np.nonzero(relation.column("region").values == 3)[0]
        assert np.array_equal(results[1].rids, truth)

    def test_options_verify_catches_nothing_on_correct_path(self, relation):
        engine = make_engine(relation)
        result = engine.query(
            "quantity <= 25 and region = 3",
            options=QueryOptions(verify=True),
        )
        assert result.count > 0

    def test_submit_aliases_are_gone(self, relation):
        engine = make_engine(relation, backend="inline")
        assert not hasattr(engine, "submit")
        assert not hasattr(engine, "submit_batch")
        predicate = AttributePredicate("quantity", "<=", 25)
        one = engine.query(predicate)
        batch = engine.query_batch([predicate, predicate])
        assert np.array_equal(one.rids, batch[0].rids)

    def test_legacy_verify_keyword_is_rejected(self, relation):
        index = bitmap_index_for(relation, "quantity")
        with pytest.raises(TypeError):
            execute(
                relation,
                AttributePredicate("quantity", "<=", 25),
                {"quantity": index},
                verify=True,
            )

    def test_options_carry_verify(self, relation):
        index = bitmap_index_for(relation, "quantity")
        result = execute(
            relation,
            AttributePredicate("quantity", "<=", 25),
            {"quantity": index},
            options=QueryOptions(verify=True, trace=True),
        )
        truth = np.nonzero(relation.column("quantity").values <= 25)[0]
        assert np.array_equal(result.rids, truth)
        assert result.trace is not None
        names = [span.name for span in result.trace.spans]
        assert "verify" in names


# ----------------------------------------------------------------------
# EXPLAIN: predicted (cost model) vs. actual (traced counters)
# ----------------------------------------------------------------------


class TestExplain:
    @pytest.mark.parametrize("compressed", [False, True])
    def test_predicted_equals_actual_scans_uncached(self, relation, compressed):
        # The acceptance invariant: on an uncached run, the paper's
        # cost-model scan count equals the traced actual scan count —
        # identically for dense and WAH-compressed execution.
        engine = make_engine(
            relation, cache_capacity=0, codec="wah" if compressed else "dense"
        )
        report = engine.explain("quantity <= 25")
        assert report.predicted_scans is not None
        assert report.actual["buffer_hits"] == 0
        assert report.actual["scans"] == report.predicted_scans
        assert report.matches_prediction
        assert report.compressed is compressed
        assert report.trace is not None
        assert report.trace.count("fetch") == report.actual["scans"]

    @pytest.mark.parametrize("compressed", [False, True])
    def test_multi_component_range_predicate(self, rng, compressed):
        relation = Relation.from_dict(
            "wide", {"a": rng.integers(0, 100, NUM_ROWS)}
        )
        engine = QueryEngine(
            cache_capacity=0, codec="wah" if compressed else "dense"
        )
        engine.register(relation, base=Base((10, 10)))
        report = engine.explain("a <= 37")
        assert report.predicted_scans is not None
        assert report.predicted_scans > 1  # multi-component range scan
        assert report.actual["scans"] == report.predicted_scans

    def test_report_names_the_codec_the_query_ran_over(self, relation, tmp_path):
        # Not the engine default ("dense" in both engines below): the
        # codec the run resolved — the stored one, or the attribute's
        # spec's — as its dispatch span and metrics say.
        store = IndexStore(str(tmp_path))
        store.build(relation, codec="wah")
        store.close()
        with repro.open_store(str(tmp_path)) as served, QueryEngine() as memory:
            memory.register(relation, overrides={"quantity": IndexSpec(codec="roaring")})
            for engine, codec in ((served, "wah"), (memory, "roaring")):
                report = engine.explain("quantity <= 25")
                (dispatch,) = report.trace.spans_of("plan")
                assert dispatch.attrs["codec"] == codec
                assert report.bitmap_codec == codec
                assert report.compressed
                assert report.matches_prediction

    def test_warm_cache_invariant_scans_plus_hits(self, relation):
        engine = make_engine(relation, cache_capacity=256)
        engine.query("quantity <= 25")  # warm
        report = engine.explain("quantity <= 25")
        assert report.actual["scans"] == 0
        assert report.actual["buffer_hits"] == report.predicted_scans
        assert report.effective_fetches == report.predicted_scans
        assert report.matches_prediction

    def test_expression_report_sums_leaves(self, relation):
        engine = make_engine(relation, cache_capacity=0)
        report = engine.explain("quantity between 10 and 20 and region in (1, 2)")
        # between -> 2 leaves, in -> 2 leaves
        assert len(report.predicted_leaves) == 4
        assert report.mode == "expression"
        assert report.predicted_scans == sum(
            leaf["scans"] for leaf in report.predicted_leaves
        )
        assert report.effective_fetches == report.predicted_scans

    def test_predicted_leaves_follow_the_tree_left_to_right(self, relation):
        # Order and fields as recorded before the leaf walk became
        # Expression.leaves(): BETWEEN and IN count as the comparisons
        # they stand for, NOT and ATLEAST pass their operands through.
        engine = make_engine(relation, cache_capacity=0)
        report = engine.explain(EIGHT_LEAF_QUERY)
        expected = [
            ("quantity >= 10", ">=", 10, 1),
            ("quantity <= 30", "<=", 30, 1),
            ("region = 1", "=", 1, 2),
            ("region = 2", "=", 2, 2),
            ("region = 5", "=", 5, 2),
            ("quantity < 5", "<", 5, 1),
            ("region = 3", "=", 3, 2),
            ("quantity >= 40", ">=", 40, 1),
        ]
        assert report.predicted_leaves == [
            {
                "predicate": text,
                "attribute": text.split()[0],
                "code_op": op,
                "code": code,
                "base": "Base(<50>)" if text.startswith("quantity") else "Base(<8>)",
                "encoding": "range",
                "scans": scans,
            }
            for text, op, code, scans in expected
        ]
        assert report.matches_prediction

    def test_report_format_mentions_prediction_and_verdict(self, relation):
        engine = make_engine(relation, cache_capacity=0)
        report = engine.explain("quantity <= 25")
        text = report.format()
        assert "EXPLAIN" in text
        assert "predicted (cost model)" in text
        assert "verdict: cost model matches observation" in text
        assert str(report) == text
        payload = report.as_dict()
        assert payload["predicted_scans"] == report.predicted_scans
        assert payload["trace"]["label"] == "quantity <= 25"

    def test_explain_does_not_pollute_metrics(self, relation):
        engine = make_engine(relation)
        engine.explain("quantity <= 25")
        assert engine.metrics.snapshot()["queries"] == 0
        engine.query("quantity <= 25")
        assert engine.metrics.snapshot()["queries"] == 1

    def test_free_explain_over_raw_indexes(self, relation):
        indexes = {
            "quantity": bitmap_index_for(relation, "quantity"),
            "region": bitmap_index_for(relation, "region"),
        }
        report = explain(relation, "quantity <= 25 and region = 3", indexes)
        assert report.predicted_scans is not None
        assert report.effective_fetches == report.predicted_scans
        truth = np.nonzero(
            (relation.column("quantity").values <= 25)
            & (relation.column("region").values == 3)
        )[0]
        assert report.rows == len(truth)

    def test_interval_encoding_predicts_its_scans(self, rng):
        relation = Relation.from_dict("t", {"a": rng.integers(0, 20, 500)})
        engine = QueryEngine(cache_capacity=0)
        engine.register(relation, base=Base((5, 4)), encoding=EncodingScheme.INTERVAL)
        for query in ("a <= 7", "a > 12", "a = 3", "a != 19", "a >= 0 and a < 11"):
            report = engine.explain(query)
            assert report.predicted_scans > 0, query
            assert report.actual["scans"] == report.predicted_scans, query
            assert report.matches_prediction, query
            assert "n/a" not in report.format()


# ----------------------------------------------------------------------
# Metrics export (engine level)
# ----------------------------------------------------------------------


class TestEngineMetricsExport:
    def test_snapshot_breakdowns(self, relation):
        engine = make_engine(relation)
        engine.query("quantity <= 25")
        engine.query("quantity <= 25 and region = 3")
        snap = engine.snapshot()
        assert snap["queries"] == 2
        assert snap["by_relation"]["sales"]["queries"] == 2
        assert snap["by_mode"]["predicate"]["queries"] == 1
        assert snap["by_mode"]["expression"]["queries"] == 1

    def test_snapshot_text_exposition(self, relation):
        engine = make_engine(relation)
        engine.query("quantity <= 25")
        engine.query("region = 3 or region = 7")
        text = engine.snapshot_text()
        assert text.endswith("\n")
        assert "repro_queries_total 2" in text
        assert 'repro_relation_queries_total{relation="sales"} 2' in text
        assert 'repro_mode_queries_total{mode="predicate"} 1' in text
        assert 'repro_mode_queries_total{mode="expression"} 1' in text
        assert "repro_scans_total" in text
        assert "repro_cache_entries" in text
        assert 'repro_relation_cache_misses_total{relation="sales"}' in text
        # every exposition line is "name[{labels}] value" or a comment
        for line in text.strip().splitlines():
            assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2

    def test_cache_snapshot_groups_by_relation(self, relation):
        engine = make_engine(relation, cache_capacity=64)
        engine.query("quantity <= 25")
        engine.query("quantity <= 25")
        groups = engine.cache.snapshot()["groups"]
        assert "sales" in groups
        assert groups["sales"]["hits"] > 0
        assert groups["sales"]["misses"] > 0
