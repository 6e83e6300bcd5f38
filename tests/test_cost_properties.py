"""The paper's cost model as properties, over random designs and predicates.

- (a) A cold evaluation charges exactly the scans
  :func:`~repro.core.costmodel.scans_for_predicate` predicts, for every
  encoding and algorithm, constants outside the domain included — and
  charges them, with the same operations and answer, on dense, WAH and
  Roaring sources alike.
- (b) Through :meth:`QueryEngine.explain`, the prediction accounts for
  every fetch: physical scans on a cold engine, scans plus cache hits on
  a warm one.
- (c) RangeEval-Opt never reads or computes more than RangeEval.

CI reruns (a) under ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import costmodel
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.evaluation import OPERATORS, Predicate, evaluate
from repro.core.index import BitmapIndex
from repro.engine.engine import IndexSpec, QueryEngine
from repro.query.expression import Comparison
from repro.query.options import QueryOptions
from repro.relation.relation import Relation
from repro.stats import ExecutionStats

CODECS = ("dense", "wah", "roaring")
ALGORITHMS = {
    EncodingScheme.RANGE: ("auto", "range_eval", "range_eval_opt"),
    EncodingScheme.EQUALITY: ("auto", "equality_eval"),
    EncodingScheme.INTERVAL: ("auto", "interval_eval"),
}

bases = st.lists(st.integers(2, 9), min_size=1, max_size=3).map(lambda bs: Base(tuple(bs)))


@st.composite
def predicates(draw, encodings=tuple(EncodingScheme)):
    """``(base, C, encoding, algorithm, op, v)`` with ``v`` two past each
    end of the domain."""
    base = draw(bases)
    cardinality = draw(st.integers(2, base.capacity))
    encoding = draw(st.sampled_from(encodings))
    algorithm = draw(st.sampled_from(ALGORITHMS[encoding]))
    op = draw(st.sampled_from(OPERATORS))
    value = draw(st.integers(-2, cardinality + 1))
    return base, cardinality, encoding, algorithm, op, value


def _index(base: Base, cardinality: int, encoding: EncodingScheme) -> BitmapIndex:
    values = np.random.default_rng(cardinality).integers(0, cardinality, 70)
    return BitmapIndex(values, cardinality, base, encoding)


@settings(database=None, deadline=None)
@given(case=predicates())
def test_cold_scans_are_the_rule_on_every_codec(case):
    """Property (a)."""
    base, cardinality, encoding, algorithm, op, value = case
    index = _index(base, cardinality, encoding)
    predicted = costmodel.scans_for_predicate(
        base, cardinality, op, value, encoding, algorithm
    )
    runs = []
    for codec in CODECS:
        stats = ExecutionStats()
        answer = evaluate(index.with_codec(codec), Predicate(op, value), algorithm, stats)
        assert stats.scans == predicted, codec
        runs.append((answer.indices().tolist(), stats.as_dict()))
    dense = runs[0]
    assert all(run == dense for run in runs[1:])
    assert dense[0] == index.naive_eval(op, value).indices().tolist()


RELATION_ROWS = 300
#: One attribute per encoding, each on a two-component base; ``i``'s
#: capacity exceeds its cardinality.
DESIGNS = {
    "r": IndexSpec(Base((5, 4)), EncodingScheme.RANGE),
    "e": IndexSpec(Base((4, 5)), EncodingScheme.EQUALITY),
    "i": IndexSpec(Base((6, 4)), EncodingScheme.INTERVAL),
}


@pytest.fixture(scope="module")
def engines():
    """A cold (uncached) and a warm engine per codec over the same relation."""
    rng = np.random.default_rng(38)
    columns = {
        name: rng.permutation(np.append(np.arange(20), rng.integers(0, 20, RELATION_ROWS - 20)))
        for name in DESIGNS
    }
    relation = Relation.from_dict("t", columns)
    with contextlib.ExitStack() as stack:
        served = {}
        for codec in CODECS:
            served[codec] = cold, warm = tuple(
                stack.enter_context(QueryEngine(cache_capacity=capacity, codec=codec))
                for capacity in (0, 256)
            )
            for engine in (cold, warm):
                engine.register(relation, overrides=DESIGNS)
        yield served


@settings(database=None, deadline=None)
@given(
    attribute=st.sampled_from(sorted(DESIGNS)),
    op=st.sampled_from(OPERATORS),
    value=st.integers(-2, 21),
    codec=st.sampled_from(CODECS),
    data=st.data(),
)
def test_explain_accounts_for_every_fetch(engines, attribute, op, value, codec, data):
    """Property (b)."""
    cold, warm = engines[codec]
    algorithm = data.draw(st.sampled_from(ALGORITHMS[DESIGNS[attribute].encoding]))
    options = QueryOptions(algorithm=algorithm)
    leaf = Comparison(attribute, op, value)
    report = cold.explain(leaf, options=options)
    assert report.actual["buffer_hits"] == 0
    assert report.actual["scans"] == report.predicted_scans
    assert report.matches_prediction
    warm.query(leaf, options=options)
    report = warm.explain(leaf, options=options)
    assert report.actual["scans"] + report.actual["buffer_hits"] == report.predicted_scans
    assert report.matches_prediction


@settings(database=None, deadline=None)
@given(case=predicates(encodings=(EncodingScheme.RANGE,)))
def test_range_eval_opt_never_costs_more(case):
    """Property (c)."""
    base, cardinality, _, _, op, value = case
    index = _index(base, cardinality, EncodingScheme.RANGE)
    costs = {}
    for algorithm in ("range_eval", "range_eval_opt"):
        stats = ExecutionStats()
        evaluate(index, Predicate(op, value), algorithm, stats)
        costs[algorithm] = stats
    assert costs["range_eval_opt"].scans <= costs["range_eval"].scans
    assert costs["range_eval_opt"].ops <= costs["range_eval"].ops
