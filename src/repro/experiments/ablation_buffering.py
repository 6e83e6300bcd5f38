"""Ablation — the paper's pinned-optimal buffering vs LRU.

Section 10 assumes the buffer pins a fixed, optimally chosen set of
bitmaps (Theorem 10.1), whose expected scans Eq. 5 gives.  A real system
would more likely run LRU.  This ablation measures both on the same index
and query workload — the pinned set as a
:class:`~repro.storage.buffer.BufferPool`, LRU as the engine's own
:class:`~repro.engine.cache.CachedSource` over a
:class:`~repro.engine.cache.SharedBitmapCache` of ``m`` bitmaps — next to
the Eq. 5 prediction, and notes at which ``m`` each one wins.
"""

from __future__ import annotations

from repro.core import costmodel
from repro.core.buffering import optimal_assignment
from repro.core.evaluation import evaluate
from repro.core.index import BitmapIndex, BitmapSource
from repro.core.optimize import knee_base
from repro.engine.cache import CachedSource, SharedBitmapCache
from repro.experiments.harness import ExperimentResult
from repro.stats import ExecutionStats
from repro.storage.buffer import BufferPool
from repro.workloads.generators import uniform_values
from repro.workloads.queries import full_query_space


def _average_scans(pool: BitmapSource, cardinality: int, repeats: int) -> float:
    total = 0
    count = 0
    for _ in range(repeats):
        for predicate in full_query_space(cardinality):
            stats = ExecutionStats()
            evaluate(pool, predicate, stats=stats)
            total += stats.scans
            count += 1
    return total / count


def run(
    quick: bool = True,
    cardinality: int | None = None,
    buffers: tuple[int, ...] = (0, 2, 4, 8, 16),
    repeats: int = 2,
) -> ExperimentResult:
    """Average scans per query: pinned-optimal vs LRU vs the Eq. 5 model."""
    c = cardinality if cardinality is not None else (50 if quick else 100)
    base = knee_base(c)
    values = uniform_values(400, c, seed=13)
    index = BitmapIndex(values, c, base)

    result = ExperimentResult(
        "ablation_buffering",
        f"Pinned-optimal vs LRU buffering (C={c}, base {base})",
        ["m", "pinned scans", "lru scans", "Eq.5 model", "pinned <= lru"],
    )
    for m in buffers:
        pinned = BufferPool(index, capacity=m)
        lru = CachedSource(index, SharedBitmapCache(m), ())
        pinned_scans = _average_scans(pinned, c, repeats)
        lru_scans = _average_scans(lru, c, repeats)
        model = costmodel.time_range_buffered(
            base, optimal_assignment(base, m).counts
        )
        result.add(
            m, pinned_scans, lru_scans, model,
            "yes" if pinned_scans <= lru_scans + 0.05 else "no",
        )
    wins = {
        verdict: ", ".join(str(row[0]) for row in result.rows if row[4] == verdict)
        for verdict in ("yes", "no")
    }
    result.note(
        f"pinned-optimal matches or beats LRU at m = {wins['yes'] or 'none'}; "
        f"LRU is ahead at m = {wins['no'] or 'none'}"
    )
    return result
