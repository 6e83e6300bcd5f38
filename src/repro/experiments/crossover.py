"""Section 1 cost analysis — the bitmap vs RID-list crossover.

With 4-byte RIDs and one bitmap scanned per predicate, evaluating a
predicate through a bitmap index reads ``N / 8`` bytes while the RID-list
index reads ``4 n`` bytes (``n`` = result cardinality), so bitmaps win for
selectivities above ``1 / 32`` — the paper's ``N <= 32 n`` threshold.

This experiment measures both access paths on a uniform column, sweeping
selectivity through ``A <= v`` predicates, and locates the empirical
crossover.
"""

from __future__ import annotations


from repro.core.evaluation import Predicate, evaluate
from repro.core.index import BitmapIndex
from repro.experiments.disk import SimulatedDisk
from repro.experiments.harness import ExperimentResult
from repro.experiments.schemes import write_index
from repro.query.plans import ridlist_crossover_selectivity
from repro.relation.rid_index import RIDListIndex
from repro.stats import ExecutionStats
from repro.workloads.generators import uniform_values


def _sweep_values(cardinality: int) -> list[int]:
    """Predicate constants: dense near the crossover region, sparse after.

    With uniform values, ``A <= v`` selects ``(v+1)/C`` of the rows; the
    crossover sits near ``C/32``, so the sweep is value-by-value up to
    ``C/10`` and strided beyond.
    """
    dense = list(range(0, max(2, cardinality // 10)))
    sparse = list(range(max(2, cardinality // 10), cardinality,
                        max(1, cardinality // 20)))
    return dense + sparse


def run(
    quick: bool = True,
    num_rows: int | None = None,
    cardinality: int = 1000,
) -> ExperimentResult:
    """Reproduce the introduction's crossover analysis."""
    n_rows = num_rows if num_rows is not None else (20_000 if quick else 100_000)
    values = uniform_values(n_rows, cardinality, seed=5)
    index = BitmapIndex(values, cardinality)  # single-component Bit-Sliced
    disk = SimulatedDisk()
    stored = write_index(disk, "x", index, "BS")
    rid = RIDListIndex(values)

    result = ExperimentResult(
        "crossover",
        f"Bitmap vs RID-list bytes read (N={n_rows}, C={cardinality})",
        ["selectivity", "result rows", "bitmap bytes", "rid-list bytes",
         "winner"],
    )
    result.plot_axes = ("selectivity", "bytes read")
    crossover_seen = None
    sweep = _sweep_values(cardinality)
    display = set(sweep[:: max(1, len(sweep) // 20)])
    previous_winner = None
    for v in sweep:
        predicate = Predicate("<=", v)
        stats = ExecutionStats()
        bitmap_result = evaluate(stored, predicate, stats=stats)
        stored.reset_cache()
        matched = bitmap_result.count()
        rid_bytes = rid.bytes_for("<=", v)
        winner = "bitmap" if stats.bytes_read <= rid_bytes else "rid-list"
        if winner == "bitmap" and crossover_seen is None:
            crossover_seen = matched / n_rows
        if v in display or winner != previous_winner:
            result.add(
                round(matched / n_rows, 4), matched, stats.bytes_read,
                rid_bytes, winner,
            )
            result.add_point("bitmap", matched / n_rows, stats.bytes_read)
            result.add_point("rid-list", matched / n_rows, rid_bytes)
        previous_winner = winner
    theory = ridlist_crossover_selectivity()
    result.note(
        f"theoretical crossover at selectivity {theory:.4f} (= 1/32) per "
        f"scanned bitmap; first bitmap win observed at "
        f"{crossover_seen if crossover_seen is not None else 'n/a'}"
    )
    result.note(
        "bitmap bytes include the fixed per-file header of the storage "
        "format, so the empirical crossover sits marginally above 1/32"
    )
    return result
