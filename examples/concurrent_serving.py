"""Serve a mixed predicate batch through the concurrent QueryEngine.

Registers a two-attribute relation with the engine, runs the same
80-query batch sequentially and with a 4-thread pool, verifies the
results are bit-identical, and prints the engine's metrics snapshot —
latency percentiles, cache hit rate, and build-once registry counters.

Run with::

    PYTHONPATH=src python examples/concurrent_serving.py
"""

from __future__ import annotations

import numpy as np

from repro import QueryEngine
from repro.query.predicate import AttributePredicate
from repro.relation.relation import Relation

NUM_ROWS = 200_000
NUM_QUERIES = 80
OPS = ("<", "<=", "=", "!=", ">=", ">")


def build_relation(num_rows: int) -> Relation:
    rng = np.random.default_rng(11)
    return Relation.from_dict(
        "sales",
        {
            "store": rng.integers(0, 200, num_rows),
            "quantity": rng.integers(0, 50, num_rows),
        },
    )


def build_batch(relation: Relation, count: int) -> list[AttributePredicate]:
    rng = np.random.default_rng(7)
    attributes = sorted(relation.columns)
    batch = []
    for _ in range(count):
        attribute = attributes[int(rng.integers(0, len(attributes)))]
        op = OPS[int(rng.integers(0, len(OPS)))]
        cardinality = relation.column(attribute).cardinality
        value = int(rng.integers(0, cardinality))
        batch.append(AttributePredicate(attribute, op, value))
    return batch


def main() -> None:
    relation = build_relation(NUM_ROWS)
    batch = build_batch(relation, NUM_QUERIES)

    engine = QueryEngine(cache_capacity=128, max_workers=4)
    engine.register(relation, components=2)
    built = engine.warm()  # prebuild indexes off the query path
    print(f"registered {relation.name!r} ({relation.num_rows} rows), "
          f"prebuilt {built} indexes")

    sequential = [engine.query(q) for q in batch]
    engine.reset_metrics()
    engine.reset_cache()
    concurrent = engine.query_batch(batch)  # uses the engine's pool

    identical = all(
        np.array_equal(s.rids, c.rids) for s, c in zip(sequential, concurrent)
    )
    print(f"4-thread results bit-identical to sequential: {identical}")

    snap = engine.snapshot()
    print(f"queries served:  {snap['queries']}")
    print(f"latency ms:      p50={snap['latency_ms']['p50']:.2f}  "
          f"p95={snap['latency_ms']['p95']:.2f}")
    print(f"cache hit rate:  {snap['cache']['hit_rate']:.2%} "
          f"({snap['cache']['hits']} hits / {snap['cache']['misses']} misses)")
    print(f"index builds:    {snap['registry']['builds']} "
          f"(reused {snap['registry']['reuses']} times)")


if __name__ == "__main__":
    main()
