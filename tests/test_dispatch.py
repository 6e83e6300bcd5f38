"""The process dispatch's repair path keeps what it does not own.

A torn or corrupt shared-memory publication is repaired by unlinking the
*export* only: the index in the registry — in-place maintenance
included — survives, and the retry cuts the shards from it again.  So a
recovered query stays bit-identical to a fault-free one even when the
index has drifted from the column codes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import RetryPolicy
from repro.faults import FaultPlan, FaultSpec
from repro.relation.relation import Relation

NUM_ROWS = 2_003
QUERIES = ("quantity < 10", "quantity >= 40 or region = 3")


@pytest.fixture(scope="module")
def relation() -> Relation:
    rng = np.random.default_rng(23)
    return Relation.from_dict(
        "orders",
        {
            "quantity": rng.integers(0, 50, NUM_ROWS),
            "region": rng.integers(0, 8, NUM_ROWS),
        },
    )


@pytest.mark.parametrize(
    "kind, reason", [("error", "shm-attach"), ("corrupt", "shard-corrupt")]
)
def test_shm_fault_after_maintenance_matches_inline(engines, relation, kind, reason):
    retry = RetryPolicy(max_retries=2, base_delay_seconds=0.0)
    inline, processes = engines(relation, max_workers=2, shards=2, cache_capacity=0, retry=retry)
    processes.query_batch(QUERIES)  # build + publish
    index = processes.registration("orders").indexes.peek("quantity")
    for engine in (inline, processes):
        maintained = engine._index_for(engine.registration("orders"), "quantity")
        for rid, value in ((0, 49), (NUM_ROWS - 1, 0), (17, 3)):
            maintained.update(rid, value)
        maintained.delete(5)
    # Arm the fault only now, so it hits the post-maintenance
    # publication (the dispatch reads the engine's knobs live).
    plan = processes.fault_plan = FaultPlan([FaultSpec("shm.attach", kind, nth=1)])
    process = processes.query_batch(QUERIES)
    assert plan.injections, "the fault never fired"
    for query, a, b in zip(QUERIES, inline.query_batch(QUERIES), process):
        assert np.array_equal(a.rids, b.rids), query
    # Repaired, not rebuilt.
    assert processes.registration("orders").indexes.peek("quantity") is index
    resilience = processes.snapshot()["resilience"]
    assert resilience["retries"].get(reason, 0) >= 1, resilience
    assert resilience["degradations"] == []
