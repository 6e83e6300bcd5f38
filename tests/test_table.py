"""Tests for the user-facing Table facade."""

from __future__ import annotations

import doctest
import json
import os

import numpy as np
import pytest

import repro.table as table_module
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.index import BitmapIndex
from repro.core.optimize import knee_base
from repro.errors import (
    CorruptFileError,
    FileMissingError,
    InjectedFaultError,
    OptimizationError,
    ReproError,
)
from repro.faults import FaultPlan, FaultSpec
from repro.query.expression import AGGREGATES
from repro.stats import ExecutionStats
from repro.storage.fsdisk import atomic_write, frame, to_quarantine, unframe
from repro.table import _MAGIC, _REDUCE, Table, TableError

from conftest import assert_aggregates


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
        assert table.engine.registration("sales").indexes.peek("region") is index

    def test_explicit_base(self, table):
        index = table.create_index("region", base=Base((5, 5)))
        assert index.base == Base((5, 5))

    def test_objective_forwarded(self, table):
        index = table.create_index("region", objective="space")
        assert index.base == Base.binary(25)

    def test_design_indexes_under_budget(self, table):
        bases = table.design_indexes(
            40, weights={"region": 2.0}, attributes=["region", "channel"]
        )
        assert set(bases) == {"region", "channel"}
        total = sum(
            table.engine.registration("sales").indexes.peek(a).num_bitmaps for a in bases
        )
        assert total <= 40

    def test_design_indexes_infeasible_budget(self, table):
        with pytest.raises(OptimizationError):
            table.design_indexes(2, attributes=["region", "channel"])

    def test_recreated_index_replaces_the_served_one(self, table):
        table.create_index("region", base=Base((5, 5)))
        truth = table.select("region <= 10")
        index = table.create_index("region", encoding=EncodingScheme.EQUALITY)
        assert index.encoding is EncodingScheme.EQUALITY
        assert table.engine.registration("sales").indexes.peek("region") is index
        assert np.array_equal(table.select("region <= 10"), truth)

    def test_repr(self, table):
        table.create_index("region")
        assert "region" in repr(table)


class TestSelect:
    def test_conjunction_goes_through_the_engine(self, table):
        table.create_index("region")
        table.create_index("channel")
        rids = table.select("region <= 10 and channel = 2")
        values = table.relation
        mask = (values.column("region").values <= 10) & (
            values.column("channel").values == 2
        )
        assert np.array_equal(rids, _truth(table, mask))
        assert table.explain("region <= 10 and channel = 2").startswith("EXPLAIN")

    def test_general_expression_uses_bitmaps(self, table):
        table.create_index("region")
        table.create_index("channel")
        text = "region in (1, 5, 9) or not channel <= 2"
        rids = table.select(text)
        r = table.relation.column("region").values
        c = table.relation.column("channel").values
        mask = np.isin(r, [1, 5, 9]) | ~(c <= 2)
        assert np.array_equal(rids, _truth(table, mask))
        assert table.explain(text).startswith("EXPLAIN")

    def test_covered_select_is_recorded_by_the_engine(self, table):
        table.create_index("region")
        before = table.engine.snapshot()["queries"]
        table.select("region <= 10")
        assert table.engine.snapshot()["queries"] == before + 1
        table.select("amount <= 10")  # not covered: a scan, not the engine
        assert table.engine.snapshot()["queries"] == before + 1
        assert "engine.dispatch" in table.explain("region <= 10")

    def test_missing_index_falls_back_to_scan(self, table):
        # 'amount' has no index; an expression referencing it scans, even
        # a conjunction whose other side is indexed.
        table.create_index("region")
        a = table.relation.column("amount").values
        r = table.relation.column("region").values
        for text, mask in (
            ("amount <= 100 or amount >= 900", (a <= 100) | (a >= 900)),
            ("region <= 10 and amount <= 5", (r <= 10) & (a <= 5)),
        ):
            assert np.array_equal(table.select(text), _truth(table, mask))
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

    @staticmethod
    def answered(table, monkeypatch) -> list:
        """The traced results of every ``engine.aggregate`` call ``table`` makes."""
        answered = []
        serve = table.engine.aggregate

        def traced(*args, **kwargs):
            kwargs["options"] = kwargs["options"].with_(trace=True)
            answered.append(serve(*args, **kwargs))
            return answered[-1]

        monkeypatch.setattr(table.engine, "aggregate", traced)
        return answered

    def test_covered_aggregate_is_answered_by_the_engine(self, table, monkeypatch):
        table.create_index("region")
        table.create_index("channel")
        table.create_index("amount")
        answered = self.answered(table, monkeypatch)
        regions = table.relation.column("region").values
        amounts = table.relation.column("amount").values
        mask = table.relation.column("channel").values <= 1
        assert table.aggregate("region", "sum", where="channel <= 1") == int(
            regions[mask].sum()
        )
        assert table.aggregate("amount", "max") == int(amounts.max())
        assert len(answered) == 2
        for result in answered:
            phases = {span.name for span in result.trace.spans_of("phase")}
            assert "aggregate.pushdown" in phases
            assert "materialize" not in phases

    def test_gapped_sum_is_reduced_by_numpy(self, table, monkeypatch):
        # 'amount' misses some of 1..999: the engine would weigh one
        # count per value, so SUM and AVG reduce the raw column instead.
        table.create_index("region")
        table.create_index("amount")
        answered = self.answered(table, monkeypatch)
        amounts = table.relation.column("amount").values
        mask = table.relation.column("region").values <= 10
        assert len(np.unique(amounts)) < amounts.max() - amounts.min() + 1
        assert table.aggregate("amount", "sum", where="region <= 10") == int(
            amounts[mask].sum()
        )
        assert table.aggregate("amount", "avg") == pytest.approx(float(amounts.mean()))
        assert answered == []
        assert table.aggregate("amount", "min", where="region <= 10") == int(
            amounts[mask].min()
        )
        assert len(answered) == 1

    def test_every_aggregate_has_a_scan_reducer(self):
        assert set(_REDUCE) == set(AGGREGATES)

    def test_unknown_function(self, table):
        with pytest.raises(TableError):
            table.aggregate("amount", "median")

    def test_non_integer_measure_rejected(self, rng):
        table = Table("t", {"x": rng.random(10)})
        with pytest.raises(TableError):
            table.aggregate("x", "sum")

    def test_empty_integer_column(self):
        """No rows: SUM is 0, COUNT 0, and MIN, MAX and AVG raise, as they
        do for a ``where`` that selects nothing."""
        table = Table("t", {"a": np.array([], dtype=np.int64)})
        assert_aggregates(lambda fn: table.aggregate("a", fn), np.array([], dtype=np.int64))


def rewrite(path: str, edit) -> None:
    """Re-frame the table file at ``path`` with ``edit(manifest, body)``'s
    manifest and body: damage behind an intact checksum."""
    with open(path, "rb") as handle:
        head, _, body = unframe(_MAGIC, handle.read(), path).partition(b"\n")
    manifest, body = edit(json.loads(head), body)
    with open(path, "wb") as handle:
        handle.write(frame(_MAGIC, json.dumps(manifest).encode() + b"\n" + body))


def cut(path: str, nbytes: int) -> None:
    with open(path, "rb+") as handle:
        handle.truncate(nbytes)


def flip(path: str, offset: int) -> None:
    with open(path, "rb+") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0xFF]))


def without(key: str):
    return lambda path: rewrite(
        path, lambda manifest, body: ({k: v for k, v in manifest.items() if k != key}, body)
    )


class TestPersistence:
    @pytest.fixture
    def path(self, tmp_path) -> str:
        return str(tmp_path / "sales.rbt")

    def test_save_load_round_trip(self, table, path):
        table.create_index("region")
        table.create_index("channel", base=Base((4,)))
        table.save(path)
        loaded = Table.load(path)
        assert loaded.num_rows == table.num_rows
        assert loaded.column_names() == table.column_names()
        assert "indexed=['channel', 'region']" in repr(loaded)
        original = table.select("region <= 10 and channel = 2")
        restored = loaded.select("region <= 10 and channel = 2")
        assert np.array_equal(original, restored)
        assert loaded.engine.registration("sales").indexes.peek("channel").base == Base((4,))

    def test_load_builds_no_index_until_the_first_query(self, table, path, monkeypatch):
        table.create_index("region")
        table.create_index("channel", base=Base((4,)))
        table.save(path)
        truth = table.select("region <= 10")
        built = []
        init = BitmapIndex.__init__

        def counting_init(index, *args, **kwargs):
            built.append(index)
            init(index, *args, **kwargs)

        monkeypatch.setattr(BitmapIndex, "__init__", counting_init)
        loaded = Table.load(path)
        assert built == []
        assert np.array_equal(loaded.select("region <= 10"), truth)
        assert built == [loaded.engine.registration("sales").indexes.peek("region")]

    def test_load_bad_manifest(self, table, path):
        table.create_index("region")
        table.save(path)
        with open(path, "rb") as handle:
            head = unframe(_MAGIC, handle.read(), path).partition(b"\n")[0]
        manifest = json.loads(head)
        assert set(manifest["indexed"]["region"]) == {"base", "encoding"}
        base = manifest["indexed"]["region"]["base"]
        broken = [
            {k: v for k, v in manifest.items() if k != "indexed"},
            dict(manifest, indexed=["region"]),  # names without designs
            dict(manifest, indexed={"region": {"encoding": "range"}}),
            dict(manifest, indexed={"region": {"base": [1], "encoding": "range"}}),
            dict(manifest, indexed={"region": {"base": base, "encoding": "?"}}),
            dict(manifest, indexed={"nowhere": {"base": base, "encoding": "range"}}),
        ]
        for doc in broken:
            table.save(path)
            rewrite(path, lambda _, body, doc=doc: (doc, body))
            with pytest.raises(TableError):
                Table.load(path)
        with open(path, "wb") as handle:
            handle.write(frame(_MAGIC, b"{broken\n"))
        with pytest.raises(TableError):
            Table.load(path)

    @pytest.mark.parametrize(
        "damage, error, match",
        [
            (without("columns"), TableError, "columns"),
            (without("name"), TableError, "name"),
            (
                lambda path: rewrite(
                    path, lambda manifest, body: (manifest, bytes(len(body)))
                ),
                TableError,
                "pickled",
            ),
            (lambda path: cut(path, os.path.getsize(path) // 2), CorruptFileError, "torn"),
            (lambda path: cut(path, 2), CorruptFileError, "header"),
            (lambda path: flip(path, 20), CorruptFileError, "checksum mismatch"),
            (lambda path: flip(path, 0), CorruptFileError, "header"),
            (os.remove, FileMissingError, "no such table file"),
        ],
        ids=[
            "no-columns",
            "no-name",
            "garbage-columns",
            "truncated",
            "truncated-header",
            "flipped-byte",
            "damaged-header",
            "missing",
        ],
    )
    def test_damaged_save_is_a_typed_error(self, table, path, damage, error, match):
        table.create_index("region")
        table.save(path)
        damage(path)
        with pytest.raises(error, match=match) as caught:
            Table.load(path)
        assert isinstance(caught.value, ReproError)

    def test_save_writes_one_framed_file(self, table, path, tmp_path):
        table.create_index("region")
        table.save(path)
        assert os.listdir(tmp_path) == ["sales.rbt"]
        with open(path, "rb") as handle:
            raw = handle.read()
        assert raw.startswith(_MAGIC)
        head = unframe(_MAGIC, raw, path).partition(b"\n")[0]
        assert json.loads(head)["name"] == "sales"
        loaded = Table.load(path)
        for cname in table.column_names():
            assert np.array_equal(
                loaded.relation.column(cname).values,
                table.relation.column(cname).values,
            )

    def test_save_leaves_no_temp_residue(self, table, path, tmp_path):
        for _ in range(3):
            table.save(path)
        assert os.listdir(tmp_path) == ["sales.rbt"]

    def test_second_save_replaces_the_first(self, table, path, rng):
        table.save(path)
        Table("other", {"x": rng.integers(0, 5, 10)}).save(path)
        loaded = Table.load(path)
        assert loaded.name == "other"
        assert loaded.num_rows == 10

    def test_atomic_write_crash_keeps_old_table_file(self, table, path, tmp_path):
        table.save(path)
        plan = FaultPlan([FaultSpec("disk.write", "error")])
        with pytest.raises(InjectedFaultError):
            atomic_write(path, [frame(_MAGIC, b"{}\n")], plan, path)
        # The replace never happened and the temp file is cleaned up.
        assert os.listdir(tmp_path) == ["sales.rbt"]
        assert Table.load(path).num_rows == table.num_rows

    def test_save_creates_missing_directories(self, table, tmp_path):
        path = str(tmp_path / "a" / "b" / "sales.rbt")
        table.save(path)
        assert Table.load(path).num_rows == table.num_rows

    def test_quarantine_moves_file_aside(self, table, path, tmp_path):
        table.save(path)
        flip(path, 20)
        shelter = to_quarantine(str(tmp_path), path, "sales.rbt")
        assert not os.path.exists(path)
        assert os.path.dirname(shelter) == str(tmp_path / ".quarantine")
        with pytest.raises(CorruptFileError):
            Table.load(shelter)
        # The path is free for a rebuild.
        table.save(path)
        assert Table.load(path).num_rows == table.num_rows

    def test_quarantine_suffixes_a_taken_name(self, table, path, tmp_path):
        shelters = []
        for _ in range(2):
            table.save(path)
            shelters.append(to_quarantine(str(tmp_path), path, "sales.rbt"))
        assert not os.path.exists(path)
        assert [os.path.basename(s) for s in shelters] == ["sales.rbt", "sales.rbt.1"]
        assert Table.load(shelters[1]).num_rows == table.num_rows


def test_module_doctest():
    results = doctest.testmod(table_module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0
