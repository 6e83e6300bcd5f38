"""Figure 17 — space-time tradeoff under optimal bitmap buffering.

With ``m`` bitmaps of buffer memory and the Theorem 10.1 optimal
assignment, every index's expected scan count drops (Eq. 5); the paper
plots the resulting tradeoff graphs for several ``m`` and observes the
tradeoff improving with ``m``, with the time-optimal index following
Theorem 10.2's ``m``-component characterization.
"""

from __future__ import annotations

from repro.core import costmodel
from repro.core.buffering import buffered_time, time_optimal_base_buffered
from repro.core.optimize import (
    DesignPoint,
    enumerate_bases,
    find_knee,
    pareto_front,
)
from repro.experiments.harness import ExperimentResult

#: Buffer sizes of the reproduced figure.
DEFAULT_BUFFERS = (0, 1, 2, 4, 8, 16)


def buffered_front(cardinality: int, m: int) -> list[DesignPoint]:
    """Pareto front of (space, buffered time) over all tight designs."""
    points = [
        DesignPoint(
            base, costmodel.space_range(base), buffered_time(base, m)
        )
        for base in enumerate_bases(cardinality, tight_only=True)
    ]
    return pareto_front(points)


def run(
    quick: bool = True,
    cardinality: int | None = None,
    buffers: tuple[int, ...] = DEFAULT_BUFFERS,
) -> ExperimentResult:
    """Reproduce Figure 17: per-m Pareto summaries."""
    c = cardinality if cardinality is not None else (100 if quick else 1000)
    result = ExperimentResult(
        "fig17",
        f"Space-time tradeoff under optimal buffering (C={c})",
        ["m", "time-optimal base", "min time", "knee base", "knee space",
         "knee time", "pareto size"],
    )
    previous_best = float("inf")
    monotone = True
    result.plot_axes = ("space (bitmaps)", "time (expected scans)")
    for m in buffers:
        front = buffered_front(c, m)
        for p in front:
            result.add_point(f"m={m}", p.space, p.time)
        best_time = min(p.time for p in front)
        knee = find_knee(front) if len(front) >= 3 else front[0]
        theorem_base = time_optimal_base_buffered(c, m)
        result.add(
            m,
            str(theorem_base),
            best_time,
            str(knee.base),
            knee.space,
            knee.time,
            len(front),
        )
        if best_time > previous_best + 1e-12:
            monotone = False
        previous_best = best_time
    shape = "monotonically non-increasing" if monotone else "NOT monotone"
    result.note(
        f"minimum achievable time is {shape} "
        f"in m (paper: the tradeoff improves as m increases)"
    )
    result.note(
        "time-optimal base column is Theorem 10.2's m-component "
        "characterization <2, ..., 2, ceil(C/2^(m-1))>"
    )
    return result
