"""A data-warehouse column, stored and queried three ways.

Builds the paper's data set 1 (a TPC-D-shaped Lineitem.quantity column),
designs the knee index for it, serializes the index under the Bitmap-,
Component-, and Index-level storage schemes (plain and compressed), and
compares disk footprint and query cost — a condensed version of the
Section 9 study.

Run:  python examples/warehouse_compression.py
"""

from __future__ import annotations

from repro import evaluate
from repro.core.optimize import knee_base
from repro.experiments.disk import SimulatedDisk
from repro.experiments.schemes import write_index
from repro.query.executor import bitmap_index_for
from repro.stats import ExecutionStats
from repro.workloads import dataset1, restricted_query_space

NUM_ROWS = 30_000


def main() -> None:
    relation, spec = dataset1(num_rows=NUM_ROWS)
    cardinality = spec.attribute_cardinality
    print(f"data set: {spec.relation}.{spec.attribute}, "
          f"N={spec.relation_cardinality}, C={cardinality}")

    base = knee_base(cardinality)
    index = bitmap_index_for(relation, spec.attribute, base=base)
    print(f"knee index: base {base}, {index.num_bitmaps} bitmaps, "
          f"{index.size_in_bits // 8:,} bytes uncompressed\n")

    print(f"{'scheme':8s} {'files':>6s} {'bytes':>10s} "
          f"{'avg scans':>10s} {'avg bytes/query':>16s}")
    disk = SimulatedDisk()
    for scheme_name in ("BS", "cBS", "CS", "cCS", "IS", "cIS"):
        scheme = write_index(disk, scheme_name, index, scheme_name)
        totals = ExecutionStats()
        count = 0
        for predicate in restricted_query_space(cardinality):
            stats = ExecutionStats()
            result = evaluate(scheme, predicate, stats=stats)
            expected = index.naive_eval(predicate.op, predicate.value)
            assert result == expected, "storage scheme disagreed with memory!"
            scheme.reset_cache()
            totals.merge(stats)
            count += 1
        print(f"{scheme_name:8s} {scheme.file_count:6d} "
              f"{scheme.stored_bytes:10,d} {totals.scans / count:10.2f} "
              f"{totals.bytes_read // count:16,d}")

    print("\ntakeaways (matching the paper's Section 9):")
    print("  - compressed component-level storage (cCS) is the smallest")
    print("  - bitmap-level storage reads only the bitmaps a query needs;")
    print("    CS/IS scan whole files and pay to extract bit columns")
    print("  - after decomposition, compression adds little (the bitmaps")
    print("    are already few and dense)")


if __name__ == "__main__":
    main()
