"""Tests for the user-facing Table facade."""

from __future__ import annotations

import doctest
import json

import numpy as np
import pytest

import repro.table as table_module
from repro.core.decomposition import Base
from repro.core.optimize import knee_base
from repro.errors import OptimizationError
from repro.stats import ExecutionStats
from repro.storage.disk import SimulatedDisk
from repro.storage.fsdisk import FileSystemDisk
from repro.table import Table, TableError


@pytest.fixture
def table(rng) -> Table:
    return Table(
        "sales",
        {
            "region": rng.integers(0, 25, 2000),
            "channel": rng.integers(0, 4, 2000),
            "amount": rng.integers(1, 1000, 2000),
        },
    )


def _truth(table: Table, mask: np.ndarray) -> np.ndarray:
    return np.nonzero(mask)[0]


class TestIndexManagement:
    def test_default_index_is_the_knee(self, table):
        index = table.create_index("region")
        assert index.base == knee_base(25)
        assert "region" in table.catalog.bitmap_indexes

    def test_explicit_base(self, table):
        index = table.create_index("region", base=Base((5, 5)))
        assert index.base == Base((5, 5))

    def test_objective_forwarded(self, table):
        index = table.create_index("region", objective="space")
        assert index.base == Base.binary(25)

    def test_rid_index(self, table):
        index = table.create_rid_index("region")
        assert index.cardinality == 25

    def test_analyze_registers_histogram(self, table):
        histogram = table.analyze("amount", buckets=8)
        assert table.catalog.histograms["amount"] is histogram

    def test_design_indexes_under_budget(self, table):
        bases = table.design_indexes(
            40, weights={"region": 2.0}, attributes=["region", "channel"]
        )
        assert set(bases) == {"region", "channel"}
        total = sum(
            table.catalog.bitmap_indexes[a].num_bitmaps for a in bases
        )
        assert total <= 40

    def test_design_indexes_infeasible_budget(self, table):
        with pytest.raises(OptimizationError):
            table.design_indexes(2, attributes=["region", "channel"])

    def test_repr(self, table):
        table.create_index("region")
        assert "region" in repr(table)


class TestSelect:
    def test_conjunction_goes_through_optimizer(self, table):
        table.create_index("region")
        table.create_index("channel")
        rids = table.select("region <= 10 and channel = 2")
        values = table.relation
        mask = (values.column("region").values <= 10) & (
            values.column("channel").values == 2
        )
        assert np.array_equal(rids, _truth(table, mask))
        assert "P" in table.explain("region <= 10 and channel = 2")

    def test_general_expression_uses_bitmaps(self, table):
        table.create_index("region")
        table.create_index("channel")
        text = "region in (1, 5, 9) or not channel <= 2"
        rids = table.select(text)
        r = table.relation.column("region").values
        c = table.relation.column("channel").values
        mask = np.isin(r, [1, 5, 9]) | ~(c <= 2)
        assert np.array_equal(rids, _truth(table, mask))
        assert table.explain(text) == "bitmap expression evaluation"

    def test_missing_index_falls_back_to_scan(self, table):
        # 'amount' has no index; a disjunction referencing it scans.
        text = "amount <= 100 or amount >= 900"
        rids = table.select(text)
        a = table.relation.column("amount").values
        assert np.array_equal(rids, _truth(table, (a <= 100) | (a >= 900)))
        assert "full scan" in table.explain(text)

    def test_stats_merged(self, table):
        table.create_index("region")
        stats = ExecutionStats()
        table.select("region <= 10", stats=stats)
        assert stats.scans + stats.bytes_read > 0

    def test_select_without_any_index_still_correct(self, table):
        rids = table.select("region = 3")
        mask = table.relation.column("region").values == 3
        assert np.array_equal(rids, _truth(table, mask))


class TestAggregate:
    def test_full_column(self, table):
        amounts = table.relation.column("amount").values
        assert table.aggregate("amount", "sum") == int(amounts.sum())
        assert table.aggregate("amount", "count") == len(amounts)
        assert table.aggregate("amount", "min") == int(amounts.min())
        assert table.aggregate("amount", "max") == int(amounts.max())
        assert table.aggregate("amount", "avg") == pytest.approx(
            float(amounts.mean())
        )

    def test_with_where(self, table):
        table.create_index("region")
        amounts = table.relation.column("amount").values
        mask = table.relation.column("region").values <= 10
        assert table.aggregate("amount", "sum", where="region <= 10") == int(
            amounts[mask].sum()
        )

    def test_aggregator_cached(self, table):
        table.aggregate("amount", "sum")
        first = table._aggregators["amount"]
        table.aggregate("amount", "max")
        assert table._aggregators["amount"] is first

    def test_unknown_function(self, table):
        with pytest.raises(TableError):
            table.aggregate("amount", "median")

    def test_non_integer_measure_rejected(self, rng):
        table = Table("t", {"x": rng.random(10)})
        with pytest.raises(TableError):
            table.aggregate("x", "sum")


class TestPersistence:
    @pytest.mark.parametrize("disk_kind", ["simulated", "filesystem"])
    def test_save_load_round_trip(self, table, tmp_path, disk_kind):
        table.create_index("region")
        table.create_index("channel", base=Base((4,)))
        disk = (
            SimulatedDisk()
            if disk_kind == "simulated"
            else FileSystemDisk(str(tmp_path / "db"))
        )
        table.save(disk, "sales")
        loaded = Table.load(disk, "sales")
        assert loaded.num_rows == table.num_rows
        assert loaded.column_names() == table.column_names()
        assert set(loaded.catalog.bitmap_indexes) == {"region", "channel"}
        assert loaded.catalog.bitmap_indexes["channel"].base == Base((4,))
        original = table.select("region <= 10 and channel = 2")
        restored = loaded.select("region <= 10 and channel = 2")
        assert np.array_equal(original, restored)

    def test_load_bad_manifest(self, table):
        disk = SimulatedDisk()
        table.create_index("region")
        table.save(disk, "t")
        manifest = json.loads(disk.read("t/table"))
        assert set(manifest["indexed"]["region"]) == {"base", "encoding"}
        assert disk.list_files("t/indexes") == []
        base = manifest["indexed"]["region"]["base"]
        broken = [b"{broken"] + [
            json.dumps(doc).encode()
            for doc in (
                {k: v for k, v in manifest.items() if k != "indexed"},
                dict(manifest, indexed=["region"]),  # names without designs
                dict(manifest, indexed={"region": {"encoding": "range"}}),
                dict(manifest, indexed={"region": {"base": [1], "encoding": "range"}}),
                dict(manifest, indexed={"region": {"base": base, "encoding": "?"}}),
            )
        ]
        for raw in broken:
            disk.write("t/table", raw)
            with pytest.raises(TableError):
                Table.load(disk, "t")


def test_module_doctest():
    results = doctest.testmod(table_module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0
