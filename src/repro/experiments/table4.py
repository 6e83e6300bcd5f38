"""Table 4 — compressibility of the three storage schemes.

For each data set the paper builds the n-component space-optimal index
for n = 1..6, stores it under every scheme, compresses with zlib, and
reports each compressed scheme's size as a percentage of the uncompressed
BS size.  Component-level storage compresses best: its rows are sorted
runs by construction (a range-encoded row is a 1-run followed by a 0-run),
whereas a BS bitmap's bit distribution follows the data.

An optional WAH column extends the study with the bitmap-specific codec.
"""

from __future__ import annotations

from repro.core.optimize import max_components, space_optimal_base
from repro.experiments.disk import SimulatedDisk
from repro.experiments.harness import ExperimentResult
from repro.experiments.schemes import write_index
from repro.query.executor import bitmap_index_for
from repro.relation.relation import Relation
from repro.workloads.tpcd import dataset1, dataset2


def compressibility_rows(
    relation: Relation,
    attribute: str,
    max_n: int = 6,
    include_wah: bool = False,
) -> list[list]:
    """(base, BS bytes, cBS%, cCS%, cIS% [, wBS%]) rows for one data set."""
    cardinality = relation.column(attribute).cardinality
    rows = []
    for n in range(1, min(max_n, max_components(cardinality)) + 1):
        base = space_optimal_base(cardinality, n)
        index = bitmap_index_for(relation, attribute, base=base)
        disk = SimulatedDisk()
        bs = write_index(disk, f"bs{n}", index, "BS")
        cbs = write_index(disk, f"cbs{n}", index, "cBS")
        ccs = write_index(disk, f"ccs{n}", index, "cCS")
        cis = write_index(disk, f"cis{n}", index, "cIS")
        bs_bytes = bs.stored_bytes
        row = [
            str(base),
            bs_bytes,
            100.0 * cbs.stored_bytes / bs_bytes,
            100.0 * ccs.stored_bytes / bs_bytes,
            100.0 * cis.stored_bytes / bs_bytes,
        ]
        if include_wah:
            wbs = write_index(disk, f"wbs{n}", index, "BS", codec="wah")
            row.append(100.0 * wbs.stored_bytes / bs_bytes)
        rows.append(row)
    return rows


def run(
    quick: bool = True,
    rows1: int | None = None,
    rows2: int | None = None,
    include_wah: bool = True,
) -> list[ExperimentResult]:
    """Reproduce Table 4 for both data sets."""
    n1 = rows1 if rows1 is not None else (10_000 if quick else 60_000)
    n2 = rows2 if rows2 is not None else (5_000 if quick else 15_000)
    datasets = [dataset1(num_rows=n1), dataset2(num_rows=n2)]
    headers = ["base", "BS bytes", "cBS %", "cCS %", "cIS %"]
    if include_wah:
        headers.append("wahBS %")
    results = []
    for relation, spec in datasets:
        result = ExperimentResult(
            "table4",
            f"Compressibility of storage schemes — {spec.name} "
            f"({spec.attribute}, C={spec.attribute_cardinality}, "
            f"N={spec.relation_cardinality})",
            headers,
        )
        for row in compressibility_rows(
            relation, spec.attribute, include_wah=include_wah
        ):
            result.add(*row)
        best = min(result.rows, key=lambda r: r[3])
        result.note(
            "paper: CS-indexes give the best compression for both data sets"
        )
        result.note(
            f"best cCS ratio here: {best[3]:.1f}% of BS at base {best[0]}"
        )
        results.append(result)
    return results
