"""Tests for the experiment measurement helpers."""

from __future__ import annotations

import pytest

from repro.core.decomposition import Base
from repro.core.evaluation import Predicate
from repro.experiments.measure import aggregate_costs, average_scans_and_ops
from repro.experiments.disk import SimulatedDisk
from repro.experiments.schemes import write_index
from repro.workloads.queries import full_query_space

from conftest import make_index


@pytest.fixture
def index():
    return make_index(num_rows=100, cardinality=20, base=Base((5, 4)), seed=2)


class TestAggregateCosts:
    def test_counts_queries(self, index):
        totals, count, elapsed = aggregate_costs(
            index, full_query_space(20)
        )
        assert count == 120
        assert totals.scans > 0
        assert elapsed == 0.0  # not timed

    def test_timed_mode(self, index):
        _, _, elapsed = aggregate_costs(
            index, full_query_space(20), timed=True
        )
        assert elapsed > 0.0

    def test_empty_queries(self, index):
        totals, count, elapsed = aggregate_costs(index, [])
        assert count == 0
        assert totals.scans == 0

    def test_reset_cache_charges_per_query(self, index):
        disk = SimulatedDisk()
        scheme = write_index(disk, "idx", index, "CS")
        queries = [Predicate("<=", 7), Predicate("<=", 7)]
        with_reset, _, _ = aggregate_costs(
            scheme, queries, reset_cache=True
        )
        scheme.reset_cache()
        without_reset, _, _ = aggregate_costs(
            scheme, queries, reset_cache=False
        )
        # Without per-query resets the second query reuses the cached
        # component scans, reading fewer bytes.
        assert without_reset.bytes_read < with_reset.bytes_read


class TestAverageScansAndOps:
    def test_matches_totals(self, index):
        scans, ops = average_scans_and_ops(index, full_query_space(20))
        totals, count, _ = aggregate_costs(index, full_query_space(20))
        assert scans == pytest.approx(totals.scans / count)
        assert ops == pytest.approx(totals.ops / count)

    def test_empty_is_zero(self, index):
        assert average_scans_and_ops(index, []) == (0.0, 0.0)

    def test_algorithm_forwarded(self, index):
        opt_scans, _ = average_scans_and_ops(
            index, full_query_space(20), "range_eval_opt"
        )
        base_scans, _ = average_scans_and_ops(
            index, full_query_space(20), "range_eval"
        )
        assert opt_scans < base_scans
