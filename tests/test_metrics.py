"""Tests for the engine metrics: bounded latency reservoir and snapshots.

The regression pinned here: ``EngineMetrics`` used to append every query
latency to an unbounded list, a slow memory leak in a long-lived serving
engine.  The :class:`~repro.engine.metrics.LatencyReservoir` keeps a
fixed-size uniform sample (exact while ``count <= capacity``) with exact
count/sum/max, and the percentile estimates stay accurate.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.metrics import EngineMetrics, LatencyReservoir, percentile
from repro.stats import ExecutionStats


class TestLatencyReservoir:
    def test_memory_stays_bounded(self):
        # The regression test: far more records than capacity, sample
        # size (the only unbounded state the old list had) stays capped.
        reservoir = LatencyReservoir(capacity=128)
        for i in range(50_000):
            reservoir.add(i / 1000.0)
        assert len(reservoir) == 128
        assert reservoir.count == 50_000

    def test_exact_aggregates_regardless_of_sampling(self):
        reservoir = LatencyReservoir(capacity=16)
        values = [float(i) for i in range(1000)]
        for v in values:
            reservoir.add(v)
        assert reservoir.count == 1000
        assert reservoir.total == pytest.approx(sum(values))
        assert reservoir.max == 999.0
        assert reservoir.mean == pytest.approx(sum(values) / 1000)

    def test_exact_percentiles_below_capacity(self):
        reservoir = LatencyReservoir(capacity=2048)
        values = [float(i) for i in range(500)]
        for v in values:
            reservoir.add(v)
        # Sample IS the full history: bit-identical to the exact ranks.
        p50, p95, p99 = reservoir.percentiles((0.50, 0.95, 0.99))
        exact = sorted(values)
        assert p50 == percentile(exact, 0.50)
        assert p95 == percentile(exact, 0.95)
        assert p99 == percentile(exact, 0.99)

    def test_sampled_percentiles_stay_accurate(self):
        # Uniform stream over [0, 1): sampled quantiles must land near
        # the true ones even with a 64x-overflowed reservoir.
        reservoir = LatencyReservoir(capacity=1024)
        n = 65_536
        for i in range(n):
            reservoir.add((i * 0.6180339887498949) % 1.0)
        p50, p95, _ = reservoir.percentiles((0.50, 0.95, 0.99))
        assert p50 == pytest.approx(0.50, abs=0.05)
        assert p95 == pytest.approx(0.95, abs=0.05)

    def test_empty_percentiles_are_zero(self):
        reservoir = LatencyReservoir()
        assert reservoir.percentiles((0.5, 0.99)) == [0.0, 0.0]
        assert reservoir.mean == 0.0

    def test_clear(self):
        reservoir = LatencyReservoir(capacity=8)
        for i in range(100):
            reservoir.add(float(i))
        reservoir.clear()
        assert reservoir.count == 0
        assert len(reservoir) == 0
        assert reservoir.total == 0.0
        assert reservoir.max == 0.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LatencyReservoir(capacity=0)


class TestEngineMetrics:
    def test_snapshot_shape_unchanged(self):
        metrics = EngineMetrics()
        metrics.record(0.010, ExecutionStats(scans=3, ands=2))
        snap = metrics.snapshot()
        assert snap["queries"] == 1
        assert snap["failures"] == 0
        assert set(snap["latency_ms"]) == {"mean", "p50", "p95", "p99", "max"}
        assert snap["stats"]["scans"] == 3
        assert snap["stats"]["ops"] == 2

    def test_bounded_under_many_records(self):
        metrics = EngineMetrics(reservoir_size=64)
        for i in range(10_000):
            metrics.record(i / 1e6, ExecutionStats(scans=1))
        snap = metrics.snapshot()
        assert snap["queries"] == 10_000
        assert snap["stats"]["scans"] == 10_000
        assert len(metrics._latencies) == 64
        # max and mean are exact even though percentiles are sampled
        assert snap["latency_ms"]["max"] == pytest.approx(9.999)
        assert snap["latency_ms"]["mean"] == pytest.approx(
            1e3 * sum(i / 1e6 for i in range(10_000)) / 10_000
        )

    def test_small_workload_percentiles_exact(self):
        metrics = EngineMetrics()
        latencies = [0.001 * (i + 1) for i in range(100)]
        for latency in latencies:
            metrics.record(latency, ExecutionStats())
        snap = metrics.snapshot()
        exact = sorted(latencies)
        assert snap["latency_ms"]["p50"] == pytest.approx(
            1e3 * percentile(exact, 0.50)
        )
        assert snap["latency_ms"]["p99"] == pytest.approx(
            1e3 * percentile(exact, 0.99)
        )

    def test_breakdowns_by_relation_and_access_path(self):
        metrics = EngineMetrics()
        metrics.record(
            0.001,
            ExecutionStats(scans=2, bytes_read=10),
            relation="a",
            mode="predicate",
        )
        metrics.record(
            0.003,
            ExecutionStats(scans=1, ands=1, buffer_hits=4),
            relation="b",
            mode="expression",
        )
        metrics.record(
            0.002, ExecutionStats(scans=5), relation="a", mode="expression"
        )
        snap = metrics.snapshot()
        assert snap["by_relation"]["a"]["queries"] == 2
        assert snap["by_relation"]["a"]["scans"] == 7
        assert snap["by_relation"]["b"]["buffer_hits"] == 4
        assert snap["by_mode"]["predicate"]["queries"] == 1
        assert snap["by_mode"]["expression"]["queries"] == 2
        # unlabeled records still fold into the global aggregate only
        metrics.record(0.001, ExecutionStats(scans=1))
        snap = metrics.snapshot()
        assert snap["queries"] == 4
        assert snap["by_relation"]["a"]["queries"] == 2

    def test_reset_clears_breakdowns_and_reservoir(self):
        metrics = EngineMetrics()
        metrics.record(0.001, ExecutionStats(scans=1), relation="a")
        metrics.record_failure()
        metrics.reset()
        snap = metrics.snapshot()
        assert snap["queries"] == 0
        assert snap["failures"] == 0
        assert snap["by_relation"] == {}
        assert snap["latency_ms"]["max"] == 0.0

    def test_snapshot_text_families(self):
        metrics = EngineMetrics()
        metrics.record(
            0.002,
            ExecutionStats(scans=3, ands=1, bytes_read=64, buffer_hits=2),
            relation='with"quote',
            mode="predicate",
        )
        text = metrics.snapshot_text()
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_queries_total 1" in text
        assert "repro_scans_total 3" in text
        assert "repro_ops_total 1" in text
        assert 'repro_query_latency_ms{quantile="p99"}' in text
        # label values are escaped per the exposition format
        assert 'repro_relation_scans_total{relation="with\\"quote"} 3' in text
        assert text.endswith("\n")

    def test_thread_safety_of_record(self):
        metrics = EngineMetrics(reservoir_size=32)

        def worker():
            for _ in range(2000):
                metrics.record(0.001, ExecutionStats(scans=1), relation="r")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = metrics.snapshot()
        assert snap["queries"] == 16_000
        assert snap["stats"]["scans"] == 16_000
        assert snap["by_relation"]["r"]["queries"] == 16_000
        assert len(metrics._latencies) == 32
