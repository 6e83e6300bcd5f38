"""End-to-end lifecycle integration test.

One scenario exercising the whole stack in sequence: generate a
warehouse, design indexes under a budget, query through every path,
aggregate, maintain (append/update/delete), persist to a real filesystem,
reload, and verify everything still agrees with ground truth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Table
from repro.core.evaluation import COMPARE, Predicate, evaluate
from repro.core.index import BitmapIndex
from repro.experiments.disk import SimulatedDisk
from repro.experiments.schemes import open_scheme, write_index
from repro.storage.buffer import BufferPool
from repro.workloads.generators import zipf_values
from repro.workloads.tpcd import lineitem_relation


def test_warehouse_lifecycle(tmp_path):
    # --- build ---------------------------------------------------------
    rng = np.random.default_rng(2024)
    table = Table(
        "warehouse",
        {
            "region": rng.integers(0, 40, 5000),
            "category": zipf_values(5000, 12, skew=1.2, seed=9),
            "units": rng.integers(1, 200, 5000),
        },
    )
    table.design_indexes(
        30, weights={"region": 2.0}, attributes=["region", "category"]
    )

    # --- query through the table's engine -------------------------------
    queries = [
        "region <= 19 and category = 1",
        "region in (0, 5, 39) or category >= 10",
        "not region <= 19",
        "category between 2 and 4",
    ]
    before = {text: table.select(text) for text in queries}
    for text, rids in before.items():
        from repro.query.expression import parse_expression

        truth = np.nonzero(parse_expression(text).mask(table.relation))[0]
        assert np.array_equal(rids, truth), text

    # --- aggregate -----------------------------------------------------
    units = table.relation.column("units").values
    mask = table.relation.column("region").values <= 19
    assert table.aggregate("units", "sum", where="region <= 19") == int(
        units[mask].sum()
    )

    # --- persist and reload from a real directory ----------------------
    path = str(tmp_path / "warehouse_v1.rbt")
    table.save(path)
    restored = Table.load(path)
    for text in queries:
        assert np.array_equal(restored.select(text), before[text]), text

    # --- maintain a served index in place and keep it exact -------------
    index = restored.engine.registration("warehouse").indexes.peek("region")
    assert isinstance(index, BitmapIndex)
    codes = np.append(restored.relation.column("region").codes, [0, 39, 17])
    index.append(np.array([0, 39, 17]))
    index.update(0, 39)
    codes[0] = 39
    index.delete(1)
    live = np.arange(len(codes)) != 1
    for op in ("<=", "=", "!="):
        for v in (0, 17, 39):
            truth = np.nonzero(COMPARE[op](codes, v) & live)[0]
            assert np.array_equal(evaluate(index, Predicate(op, v)).indices(), truth)


def test_storage_and_buffering_stack():
    """Index -> compressed disk files -> buffer pool -> evaluation."""
    relation = lineitem_relation(4000, seed=3)
    column = relation.column("quantity")
    index = BitmapIndex(column.codes, column.cardinality)
    disk = SimulatedDisk()
    write_index(disk, "qty", index, "cBS")

    reopened = open_scheme(disk, "qty")
    pool = BufferPool(reopened, capacity=6)
    for predicate in (Predicate("<=", 10), Predicate("=", 25), Predicate(">", 40)):
        got = evaluate(pool, predicate)
        assert got == index.naive_eval(predicate.op, predicate.value)
        pool.reset_cache()
    assert pool.hits > 0 or pool.misses > 0


def test_quick_report_is_clean():
    """The claim audit doubles as the repository's smoke test."""
    from repro.experiments.claims import verify_all

    checks = verify_all(quick=True)
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randomized_stack_consistency(seed, tmp_path):
    """Random small tables: select results survive save/load exactly."""
    rng = np.random.default_rng(seed)
    table = Table(
        "t",
        {
            "a": rng.integers(0, 15, 400),
            "b": rng.integers(0, 6, 400),
        },
    )
    table.create_index("a")
    table.create_index("b")
    text = "a <= 7 or (b = 2 and not a = 3)"
    expected = table.select(text)
    path = str(tmp_path / f"t{seed}.rbt")
    table.save(path)
    assert np.array_equal(Table.load(path).select(text), expected)
