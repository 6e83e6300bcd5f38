"""Ablation — maintenance cost across the design space.

The paper restricts itself to read-mostly environments because bitmap
maintenance is expensive, and notes that multi-index designs "might be
offset by the high update cost in OLTP applications".  This ablation
quantifies that: the average number of bitmaps touched by one random
value update, for each encoding, across the space-optimal family — next
to the RID-list baseline, which touches exactly two lists.

Expected shape: the Value-List (1-component equality) index touches 2
bitmaps like a RID list; range encoding pays ~b/3 touches per component
(every bitmap between the old and the new digit); decomposition shrinks
update cost along with space.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import EncodingScheme
from repro.core.index import BitmapIndex
from repro.core.optimize import max_components, space_optimal_base
from repro.experiments.harness import ExperimentResult
from repro.workloads.generators import uniform_values

ENCODINGS = (
    EncodingScheme.EQUALITY,
    EncodingScheme.RANGE,
    EncodingScheme.INTERVAL,
)


def average_update_touches(
    index: BitmapIndex, updates: int, seed: int = 0
) -> float:
    """Mean bitmaps touched over random (rid, new value) updates."""
    rng = np.random.default_rng(seed)
    total = 0
    for _ in range(updates):
        rid = int(rng.integers(0, index.nbits))
        value = int(rng.integers(0, index.cardinality))
        index, touched = index.update(rid, value)
        total += touched
    return total / updates


def run(
    quick: bool = True,
    cardinality: int | None = None,
    num_rows: int = 400,
    updates: int | None = None,
) -> ExperimentResult:
    """Average bitmaps touched per update, per encoding and base."""
    c = cardinality if cardinality is not None else (50 if quick else 100)
    n_updates = updates if updates is not None else (300 if quick else 2000)
    values = uniform_values(num_rows, c, seed=21)

    result = ExperimentResult(
        "ablation_updates",
        f"Bitmaps touched per value update (C={c}; RID-list baseline "
        f"touches 2 lists)",
        ["n", "base", "encoding", "stored bitmaps", "avg touches/update"],
    )
    for n in range(1, min(4, max_components(c)) + 1):
        base = space_optimal_base(c, n)
        for encoding in ENCODINGS:
            index = BitmapIndex(values.copy(), c, base, encoding)
            touches = average_update_touches(index, n_updates)
            result.add(
                n, str(base), encoding.value, index.num_bitmaps, touches
            )
    equality_single = next(
        row for row in result.rows if row[0] == 1 and row[2] == "equality"
    )
    result.note(
        f"the Value-List index touches {equality_single[4]:.2f} bitmaps per "
        f"update on average — the same order as the RID-list baseline's 2 "
        f"list edits; range encoding pays for its query speed at update time"
    )
    return result
