"""An OLAP mini-dashboard: plan costs + bitmap indexes + index aggregates.

Puts the whole library to work on one fact table:

1. the multi-attribute allocator splits a disk budget across three
   dimension columns (Section 6-8 machinery, per column);
2. the designed indexes, and the measure column as the paper's
   Bit-Sliced index (base-2 range encoding), are persisted in an index
   store and served by ``repro.open_store``, which answers each
   dashboard query, priced beside it as plans P1 and P3 (the
   introduction's plan analysis);
3. ``engine.aggregate`` computes SUM/AVG/MIN/MAX of the measure over
   each query's selection from the stored bitmaps alone: no raw rows
   are kept, and no RID list is built;
4. the engine answers the dashboard's breakdown panel with pushed-down
   aggregates: ``group_count`` over a threshold expression returns
   per-channel counts from popcounts alone.

Run:  python examples/olap_dashboard.py
"""

from __future__ import annotations

import math
import tempfile

import numpy as np

import repro
from repro import AttributeSpec, Base, IndexStore, allocate_budget
from repro.query.expression import parse_expression
from repro.query.plans import plan_p1_cost, plan_p3_bitmap_cost, plan_p3_ridlist_cost
from repro.relation.relation import Relation
from repro.relation.rid_index import RIDListIndex

NUM_ROWS = 40_000
BITMAP_BUDGET = 60  # total bitmaps across all dimension indexes


def build_fact_table() -> Relation:
    rng = np.random.default_rng(7)
    return Relation.from_dict(
        "sales",
        {
            "store": rng.integers(0, 200, NUM_ROWS),     # high cardinality
            "product": rng.integers(0, 50, NUM_ROWS),    # medium
            "channel": rng.integers(0, 4, NUM_ROWS),     # tiny
            "amount": rng.integers(1, 5000, NUM_ROWS),   # the measure
        },
    )


def main() -> None:
    relation = build_fact_table()
    print(f"fact table: {relation.num_rows:,} rows\n")

    # 1. Split the bitmap budget across the dimensions by query share.
    specs = [
        AttributeSpec("store", 200, weight=3.0),    # queried most often
        AttributeSpec("product", 50, weight=2.0),
        AttributeSpec("channel", 4, weight=1.0),
    ]
    design = allocate_budget(specs, BITMAP_BUDGET)
    print(f"physical design under a {BITMAP_BUDGET}-bitmap budget:")
    for name in ("store", "product", "channel"):
        base = design.indexes[name]
        print(f"  {name:8s} -> base {str(base):22s} "
              f"({design.budgets[name]} bitmaps)")
    print(f"  weighted expected scans/query: {design.expected_scans:.3f}\n")

    rid_indexes = {
        name: RIDListIndex(relation.column(name).values) for name in design.indexes
    }
    bases = dict(design.indexes, amount=Base.binary(relation.column("amount").cardinality))

    queries = [
        ["store <= 99", "channel = 2"],
        ["product <= 24"],
        ["store = 17"],
        ["product >= 40", "channel <= 1"],
    ]
    with tempfile.TemporaryDirectory() as root:
        with IndexStore(root) as store:
            store.build(relation, codec="wah", base=bases)
        with repro.open_store(root) as engine:
            dashboard(engine, queries, relation, rid_indexes)


def dashboard(engine, queries, relation, rid_indexes) -> None:
    # 2. + 3. Answer the dashboard queries, price their plans, aggregate.
    for texts in queries:
        predicates = [parse_expression(t) for t in texts]
        query = " and ".join(texts)
        result = engine.query(query)
        fetched = result.stats.scans + result.stats.buffer_hits
        costs = [
            plan_p1_cost(relation),
            plan_p3_ridlist_cost(
                [rid_indexes[p.attribute] for p in predicates],
                [(p.op, p.value) for p in predicates],
            ),
            plan_p3_bitmap_cost(
                relation.num_rows, math.ceil(fetched / len(predicates)), len(predicates)
            ),
        ]
        print(f"query: {' AND '.join(texts)}")
        print("  plans: " + ", ".join(f"{c.plan}={c.bytes_read:,} B" for c in costs))
        if result.count:
            panel = {
                fn: engine.aggregate(query, "amount", fn).value
                for fn in ("sum", "avg", "min", "max")
            }
            print(f"  rows: {result.count:,}   "
                  f"SUM(amount) = {panel['sum']:,}   "
                  f"AVG = {panel['avg']:,.1f}   "
                  f"MIN = {panel['min']}   "
                  f"MAX = {panel['max']}")
        else:
            print("  rows: 0")
        print()

    # 4. The breakdown panel: per-channel counts of "interesting" sales
    #    (at least 2 of 3 signals), pushed down to popcounts.
    breakdown = "atleast(2, store <= 99, product <= 24, channel >= 2)"
    per_channel = engine.group_count(breakdown, by="channel")
    print(f"breakdown: {breakdown} by channel")
    print(f"  total rows: {per_channel.count:,} (no RIDs materialized)")
    for channel, matched in sorted(per_channel.groups.items()):
        print(f"  channel {channel}: {matched:,}")


if __name__ == "__main__":
    main()
