"""Tests for the bitmap buffer pool (pinned and LRU policies)."""

from __future__ import annotations

import pytest

from repro.core import costmodel
from repro.core.buffering import BufferAssignment, optimal_assignment
from repro.core.decomposition import Base
from repro.core.evaluation import Predicate, evaluate
from repro.errors import BufferConfigError
from repro.stats import ExecutionStats
from repro.storage.buffer import BufferPool, _pinned_slots
from repro.experiments.disk import SimulatedDisk
from repro.experiments.schemes import write_index
from repro.workloads.queries import full_query_space

from conftest import make_index

BASE = Base((8, 7))
CARDINALITY = 50


@pytest.fixture
def index():
    return make_index(num_rows=150, cardinality=CARDINALITY, base=BASE, seed=11)


class TestPinnedPolicy:
    def test_results_unchanged(self, index):
        pool = BufferPool(index, capacity=5)
        for predicate in full_query_space(CARDINALITY):
            got = evaluate(pool, predicate)
            assert got == index.naive_eval(predicate.op, predicate.value)

    def test_hits_recorded(self, index):
        pool = BufferPool(index, capacity=5)
        total = ExecutionStats()
        for predicate in full_query_space(CARDINALITY):
            stats = ExecutionStats()
            evaluate(pool, predicate, stats=stats)
            total.merge(stats)
        assert total.buffer_hits > 0
        assert pool.hits == total.buffer_hits
        assert 0 < pool.hit_rate < 1

    def test_measured_scans_close_to_eq5(self, index):
        """The pinned pool's measured average tracks the Eq. 5 model."""
        for m in (0, 2, 5, 9):
            pool = BufferPool(index, capacity=m)
            total = 0
            count = 0
            for predicate in full_query_space(CARDINALITY):
                stats = ExecutionStats()
                evaluate(pool, predicate, stats=stats)
                total += stats.scans
                count += 1
            measured = total / count
            assignment = optimal_assignment(BASE, m)
            model = costmodel.time_range_buffered(BASE, assignment.counts)
            assert measured == pytest.approx(model, abs=0.35)

    def test_explicit_assignment(self, index):
        assignment = BufferAssignment(BASE, (6, 0))
        pool = BufferPool(index, assignment=assignment)
        stats = ExecutionStats()
        evaluate(pool, Predicate("=", 0), stats=stats)
        assert stats.scans + stats.buffer_hits >= 1

    def test_assignment_base_must_match(self, index):
        assignment = BufferAssignment(Base((10, 5)), (0, 0))
        with pytest.raises(BufferConfigError):
            BufferPool(index, assignment=assignment)

    def test_needs_assignment_or_capacity(self, index):
        with pytest.raises(BufferConfigError):
            BufferPool(index)

    def test_wraps_storage_scheme(self, index):
        disk = SimulatedDisk()
        scheme = write_index(disk, "idx", index, "cBS")
        pool = BufferPool(scheme, capacity=6)
        for v in (0, 10, 49):
            got = evaluate(pool, Predicate("<=", v))
            assert got == index.naive_eval("<=", v)
            pool.reset_cache()

    def test_preload_not_charged_to_disk_queries(self, index):
        disk = SimulatedDisk()
        scheme = write_index(disk, "idx", index, "BS")
        reads_before = disk.stats.reads
        BufferPool(scheme, capacity=4)
        # Preload reads happen but are not charged to any query stats.
        assert disk.stats.reads == reads_before + 4


class TestLRUPolicy:
    def test_results_unchanged(self, index):
        pool = BufferPool(index, capacity=4, policy="lru")
        for predicate in full_query_space(CARDINALITY):
            got = evaluate(pool, predicate)
            assert got == index.naive_eval(predicate.op, predicate.value)

    def test_eviction(self, index):
        pool = BufferPool(index, capacity=1, policy="lru")
        stats = ExecutionStats()
        pool.fetch(1, 0, stats)
        pool.fetch(1, 0, stats)  # hit
        pool.fetch(1, 1, stats)  # evicts (1, 0)
        pool.fetch(1, 0, stats)  # miss again
        assert pool.hits == 1
        assert pool.misses == 3

    def test_zero_capacity_never_caches(self, index):
        pool = BufferPool(index, capacity=0, policy="lru")
        stats = ExecutionStats()
        pool.fetch(1, 0, stats)
        pool.fetch(1, 0, stats)
        assert pool.hits == 0

    def test_zero_capacity_is_pure_passthrough(self, index):
        """Regression: capacity == 0 must mean 'no caching', not a 1-ish LRU.

        Every fetch is a recorded miss served by the source, nothing is
        ever stored, and results stay correct — the engine's shared cache
        relies on these semantics to disable caching cleanly.
        """
        pool = BufferPool(index, capacity=0, policy="lru")
        fetches = 0
        for predicate in full_query_space(CARDINALITY):
            stats = ExecutionStats()
            got = evaluate(pool, predicate, stats=stats)
            assert got == index.naive_eval(predicate.op, predicate.value)
            assert stats.buffer_hits == 0
            fetches += stats.scans
        assert len(pool.cache) == 0
        assert pool.hits == 0
        assert pool.misses == fetches
        assert pool.hit_rate == 0.0

    def test_capacity_required(self, index):
        with pytest.raises(BufferConfigError):
            BufferPool(index, policy="lru")

    def test_concurrent_fetches_keep_counters_consistent(self, index):
        """The LRU pool is shared by engine workers; counters must not race."""
        from concurrent.futures import ThreadPoolExecutor

        pool = BufferPool(index, capacity=3, policy="lru")
        slots = [(1, s) for s in index.stored_slots(1)]
        slots += [(2, s) for s in index.stored_slots(2)]
        per_thread = 50

        def storm(seed: int) -> int:
            stats = ExecutionStats()
            for k in range(per_thread):
                component, slot = slots[(seed + k) % len(slots)]
                bitmap = pool.fetch(component, slot, stats)
                assert bitmap == index.components[component - 1].bitmap(slot)
            return per_thread

        with ThreadPoolExecutor(max_workers=8) as executor:
            total = sum(executor.map(storm, range(8)))
        assert pool.hits + pool.misses == total
        assert len(pool.cache) <= 3

    def test_repeated_workload_hits_grow(self, index):
        pool = BufferPool(index, capacity=20, policy="lru")
        for _ in range(2):
            for predicate in full_query_space(CARDINALITY):
                evaluate(pool, predicate)
        assert pool.hit_rate > 0.4


class TestPolicyValidation:
    def test_unknown_policy(self, index):
        with pytest.raises(BufferConfigError):
            BufferPool(index, capacity=1, policy="clock")


class TestPinnedSlotSelection:
    def test_subset_of_stored(self):
        slots = _pinned_slots((0, 1, 2, 3, 4, 5), 3)
        assert slots <= {0, 1, 2, 3, 4, 5}
        assert len(slots) == 3

    def test_all_when_count_exceeds(self):
        assert _pinned_slots((0, 1), 5) == {0, 1}

    def test_zero(self):
        assert _pinned_slots((0, 1), 0) == set()
