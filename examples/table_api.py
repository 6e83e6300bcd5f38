"""The high-level Table API: design, query, aggregate, persist.

Everything the other examples do by hand — index design, expression
evaluation through the query engine, aggregation, storage —
through the one object a downstream user would actually hold.

Run:  python examples/table_api.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro import Table

NUM_ROWS = 25_000


def main() -> None:
    rng = np.random.default_rng(11)
    table = Table(
        "orders",
        {
            "customer": rng.integers(0, 500, NUM_ROWS),
            "priority": rng.integers(0, 5, NUM_ROWS),
            "month": rng.integers(0, 12, NUM_ROWS),
            "total": rng.integers(10, 10_000, NUM_ROWS),
        },
    )
    print(table, "\n")

    # Design indexes for the three dimension columns under one budget;
    # 'customer' gets the largest share because it is queried most.
    bases = table.design_indexes(
        70,
        weights={"customer": 3.0, "priority": 1.0, "month": 1.5},
        attributes=["customer", "priority", "month"],
    )
    for name, base in sorted(bases.items()):
        print(f"index on {name:9s}: base {base}")
    print()

    queries = [
        "priority <= 2 and month between 3 and 8",
        "customer = 123",
        "customer in (1, 2, 3) or priority = 4",
        "not month <= 9 and priority != 0",
    ]
    for text in queries:
        rids = table.select(text)
        print(f"{text!r}")
        report = table.engine.explain(text)
        print(f"  plan: {report.plan}, {report.predicted_scans} bitmap scans "
              f"predicted, {report.effective_fetches} fetched")
        print(f"  rows: {len(rids):,}")
        if len(rids):
            print(f"  SUM(total) = {table.aggregate('total', 'sum', where=text):,}"
                  f"   AVG = {table.aggregate('total', 'avg', where=text):,.0f}")
        print()

    # Persist to one checksummed file and reload.
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "orders_v1.rbt")
        table.save(path)
        restored = Table.load(path)
        size = os.path.getsize(path)
    same = np.array_equal(
        table.select(queries[0]), restored.select(queries[0])
    )
    print(f"persisted {size:,} bytes; reload "
          f"returns identical results: {same}")


if __name__ == "__main__":
    main()
