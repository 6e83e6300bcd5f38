"""Tests for the weighted cost model and the query-skew ablation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import costmodel
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.evaluation import OPERATORS, Predicate, evaluate
from repro.core.index import BitmapIndex
from repro.errors import InvalidPredicateError
from repro.experiments import ablation_query_skew
from repro.stats import ExecutionStats


class TestWeightedScans:
    @pytest.mark.parametrize(
        "base", [Base((24,)), Base((6, 4)), Base((2, 3, 4))], ids=str
    )
    @pytest.mark.parametrize(
        "encoding,algorithm",
        [
            (EncodingScheme.RANGE, "range_eval_opt"),
            (EncodingScheme.RANGE, "range_eval"),
            (EncodingScheme.EQUALITY, "equality_eval"),
        ],
    )
    def test_uniform_weights_reduce_to_expected_scans(
        self, base, encoding, algorithm
    ):
        c = 24
        uniform = np.ones(c)
        weighted = costmodel.expected_scans_weighted(
            base, c, uniform, encoding, algorithm
        )
        plain = costmodel.expected_scans(base, c, encoding, algorithm)
        assert weighted == pytest.approx(plain)

    def test_point_mass_matches_per_predicate_costs(self):
        base = Base((6, 4))
        c = 24
        v = 13
        weights = np.zeros(c)
        weights[v] = 1.0
        weighted = costmodel.expected_scans_weighted(base, c, weights)
        ops = ("<", "<=", "=", "!=", ">=", ">")
        expected = sum(
            costmodel.scans_for_predicate(base, c, op, v) for op in ops
        ) / len(ops)
        assert weighted == pytest.approx(expected)

    def test_weight_validation(self):
        base = Base((6, 4))
        with pytest.raises(InvalidPredicateError):
            costmodel.expected_scans_weighted(base, 24, np.ones(10))
        with pytest.raises(InvalidPredicateError):
            costmodel.expected_scans_weighted(base, 24, -np.ones(24))
        with pytest.raises(InvalidPredicateError):
            costmodel.expected_scans_weighted(base, 24, np.zeros(24))

    def test_interval_weights_each_constant_by_its_evaluation(self):
        # One weight per constant: the expectation is the evaluator's own
        # scans of the six queries on that constant, weighted.
        base, c = Base((6, 4)), 24
        index = BitmapIndex(np.arange(c), c, base, EncodingScheme.INTERVAL)
        per_value = np.zeros(c)
        for v in range(c):
            for op in OPERATORS:
                stats = ExecutionStats()
                evaluate(index, Predicate(op, v), stats=stats)
                per_value[v] += stats.scans / len(OPERATORS)
        weights = np.random.default_rng(5).random(c)
        weighted = costmodel.expected_scans_weighted(
            base, c, weights, EncodingScheme.INTERVAL
        )
        assert weighted == pytest.approx((per_value * weights).sum() / weights.sum())

    def test_skew_toward_boundary_values_lowers_cost(self):
        # Constants at digit boundaries scan fewer bitmaps; loading the
        # weight onto v = 0 must not cost more than uniform.
        base = Base((6, 4))
        c = 24
        point = np.zeros(c)
        point[0] = 1.0
        assert costmodel.expected_scans_weighted(
            base, c, point
        ) <= costmodel.expected_scans(base, c)


class TestSkewAblation:
    def test_knee_near_optimal_under_skew(self):
        result = ablation_query_skew.run(quick=True, cardinality=36)
        for row in result.rows:
            assert row[4] <= 10.0  # degradation percent

    def test_zero_skew_matches_uniform_model(self):
        result = ablation_query_skew.run(
            quick=True, cardinality=36, skews=(0.0,)
        )
        (row,) = result.rows
        from repro.core.optimize import knee_base

        assert row[1] == pytest.approx(
            costmodel.expected_scans(knee_base(36), 36)
        )
