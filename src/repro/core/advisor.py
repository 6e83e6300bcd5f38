"""A physical-design advisor packaging the paper's guidelines.

The paper closes by calling its results "a useful first set of guidelines
for physical database design using bitmap indexes".  This module turns the
Section 6–10 machinery into one entry point: give it the attribute
cardinality, optionally a disk-space budget (in bitmaps) and a buffer size,
and it returns a concrete recommended design together with the rationale
that produced it.

:func:`recommend_codec` extends the guidelines beyond the paper to the
*representation* axis: given a bitmap's expected bit density and
clustering (mean run length of the set bits), it picks the serving codec —
``dense``, ``wah``, or ``roaring`` — either from a measured crossover map
(``benchmarks/bench_codec_crossover.py`` writes one; load it with
:func:`load_crossover_map`) or from the built-in rule distilled from that
benchmark's full-scale run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.bitmaps import BITMAP_CLASSES
from repro.core import costmodel
from repro.core.buffering import buffered_time, optimal_assignment
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.optimize import (
    global_space_optimal_base,
    global_time_optimal_base,
    knee_base,
    time_optimal_under_space,
    time_optimal_under_space_heuristic,
)
from repro.errors import OptimizationError

#: Below this candidate-space size the advisor runs the exact algorithm.
_EXACT_SEARCH_CARDINALITY = 256

#: The objectives the advisor knows how to optimize for.
OBJECTIVES = ("knee", "time", "space")


@dataclass(frozen=True)
class IndexDesign:
    """A recommended index design with its predicted costs."""

    base: Base
    encoding: EncodingScheme
    space_bitmaps: int
    expected_scans: float
    buffered_bitmaps: int
    rationale: str

    def __str__(self) -> str:
        return (
            f"base {self.base} ({self.encoding.value}-encoded): "
            f"{self.space_bitmaps} bitmaps, "
            f"{self.expected_scans:.3f} expected scans/query — "
            f"{self.rationale}"
        )


def recommend(
    cardinality: int,
    space_budget: int | None = None,
    buffer_bitmaps: int = 0,
    objective: str = "knee",
    exact: bool | None = None,
) -> IndexDesign:
    """Recommend a range-encoded index design.

    Parameters
    ----------
    cardinality:
        Attribute cardinality ``C``.
    space_budget:
        Maximum stored bitmaps ``M``; ``None`` means unconstrained.
    buffer_bitmaps:
        Bitmaps ``m`` that can stay memory-resident; the predicted scan
        count assumes the Theorem 10.1 optimal assignment.
    objective:
        ``'knee'`` (best space-time tradeoff, the default), ``'time'``
        (fastest queries), or ``'space'`` (smallest index).
    exact:
        Force the exact (``TimeOptAlg``) or heuristic (``TimeOptHeur``)
        space-constrained search; by default the exact search is used for
        small cardinalities only.

    Raises
    ------
    OptimizationError
        If the space budget cannot fit any well-defined index.
    """
    if objective not in OBJECTIVES:
        raise OptimizationError(
            f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
        )

    if objective == "space":
        base = global_space_optimal_base(cardinality)
        rationale = (
            "space-optimal index (Theorem 6.1): base-2 decomposition with "
            "the maximum number of components"
        )
    elif objective == "time":
        if space_budget is None:
            base = global_time_optimal_base(cardinality)
            rationale = (
                "time-optimal index (Theorem 6.1): single-component "
                "Bit-Sliced shape"
            )
        else:
            use_exact = (
                exact
                if exact is not None
                else cardinality <= _EXACT_SEARCH_CARDINALITY
            )
            if use_exact:
                base = time_optimal_under_space(space_budget, cardinality)
                rationale = (
                    f"time-optimal index within {space_budget} bitmaps "
                    f"(Algorithm TimeOptAlg, exact)"
                )
            else:
                base = time_optimal_under_space_heuristic(
                    space_budget, cardinality
                )
                rationale = (
                    f"time-optimal index within {space_budget} bitmaps "
                    f"(Algorithm TimeOptHeur, near-optimal)"
                )
    else:  # knee
        base = knee_base(cardinality)
        rationale = (
            "knee of the space-time tradeoff (Theorem 7.1): the most "
            "time-efficient 2-component space-optimal index"
        )
        if space_budget is not None and costmodel.space_range(base) > space_budget:
            base = time_optimal_under_space_heuristic(space_budget, cardinality)
            rationale = (
                f"knee exceeds the {space_budget}-bitmap budget; fell back "
                f"to Algorithm TimeOptHeur within the budget"
            )

    space = costmodel.space_range(base)
    if space_budget is not None and space > space_budget:
        raise OptimizationError(
            f"objective {objective!r} needs {space} bitmaps, over the "
            f"budget of {space_budget}"
        )
    if buffer_bitmaps > 0:
        scans = buffered_time(base, buffer_bitmaps)
        assignment = optimal_assignment(base, buffer_bitmaps)
        rationale += (
            f"; with {buffer_bitmaps} buffered bitmaps assigned "
            f"{assignment.counts} (Theorem 10.1)"
        )
    else:
        scans = costmodel.time_range(base)
    return IndexDesign(
        base=base,
        encoding=EncodingScheme.RANGE,
        space_bitmaps=space,
        expected_scans=scans,
        buffered_bitmaps=buffer_bitmaps,
        rationale=rationale,
    )


#: Codecs :func:`recommend_codec` can return.
CODEC_CHOICES = tuple(BITMAP_CLASSES)

#: From this bit density on, bits scattered in runs shorter than
#: :data:`_DENSE_RUN` compress less than the 2x floor the crossover
#: benchmark demands before leaving dense (its uniform 0.1 and 0.5 cells
#: both sit under a 1.0 compression ratio).
_DENSE_DENSITY = 0.05
_DENSE_RUN = 8

#: Run starts per row (``density / run``) on the committed 1M-row map.
#: Below the first a bitmap holds so few runs (under ~20 per 65,536-row
#: chunk) that both compressed codecs cost their fixed overhead per
#: operation, and WAH's is lower.  From the second on at least half of
#: WAH's 31-bit groups are literals, which it combines word-parallel — the
#: cheaper way once the bitmap is dense enough (:data:`_DENSE_DENSITY`)
#: that Roaring would hold it as many runs; a sparse one Roaring holds as
#: arrays, at a cost that follows the set bits.  In between WAH merges run
#: boundaries one by one while Roaring sweeps all its containers' runs in
#: one pass.
_FEW_RUN_STARTS = 3e-4
_LITERAL_RUN_STARTS = 5e-3


@dataclass(frozen=True)
class CodecChoice:
    """A recommended bitmap representation with its rationale."""

    codec: str
    rationale: str
    source: str  # 'builtin' rule or 'crossover_map'

    def __str__(self) -> str:
        return f"{self.codec} ({self.source}): {self.rationale}"


def load_crossover_map(path: str) -> list[dict]:
    """Load the winning-cell map written by ``bench_codec_crossover.py``.

    Returns the list of cell dicts (each with ``density``,
    ``effective_run``, and ``winner`` among other measurements), validated
    so :func:`recommend_codec` can trust it.
    """
    with open(path) as handle:
        payload = json.load(handle)
    cells = payload.get("crossover_map")
    if not isinstance(cells, list) or not cells:
        raise OptimizationError(
            f"{path!r} has no crossover_map; expected the output of "
            f"benchmarks/bench_codec_crossover.py"
        )
    for cell in cells:
        if not isinstance(cell, dict) or cell.get("winner") not in CODEC_CHOICES:
            raise OptimizationError(f"malformed crossover cell {cell!r} in {path!r}")
        for key in ("density", "effective_run"):
            value = cell.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                raise OptimizationError(
                    f"crossover cell in {path!r} has bad {key}={value!r}"
                )
    return cells


def _effective_run(density: float, clustering: float | None) -> float:
    """One numeric clustering axis covering the uniform case too.

    Uniformly scattered bits still form runs of mean ``1/(1-d)``, so a
    bitmap with no clustering structure maps onto the same axis as an
    explicitly clustered one.
    """
    if clustering is not None:
        return clustering
    return 1.0 / max(1e-9, 1.0 - density)


def recommend_codec(
    density: float,
    clustering: float | None = None,
    crossover_map: list[dict] | None = None,
) -> CodecChoice:
    """Pick the serving codec for a bitmap population.

    Parameters
    ----------
    density:
        Expected fraction of set bits per bitmap, in ``(0, 1]``.  For a
        C-cardinality equality-encoded index this is roughly ``1/C``;
        range-encoded bitmaps average ``1/2``.
    clustering:
        Mean run length (bits) of the set bits — large for sorted or
        chunk-loaded columns, ``None``/small for hash-distributed ones.
    crossover_map:
        Measured cells from :func:`load_crossover_map`; when given, the
        nearest cell (log-scale distance over density and run length)
        decides.  Without it a built-in rule distilled from the
        benchmark's full-scale run applies.
    """
    if not 0.0 < density <= 1.0:
        raise OptimizationError(f"density must be in (0, 1], got {density}")
    if clustering is not None and clustering < 1.0:
        raise OptimizationError(f"clustering must be >= 1 bit, got {clustering}")
    run = _effective_run(density, clustering)

    if crossover_map is not None:
        target = (math.log10(density), math.log10(run))
        best = min(
            crossover_map,
            key=lambda cell: (
                (math.log10(cell["density"]) - target[0]) ** 2
                + (math.log10(cell["effective_run"]) - target[1]) ** 2
            ),
        )
        return CodecChoice(
            codec=best["winner"],
            rationale=(
                f"nearest measured cell (density {best['density']}, run "
                f"{best['effective_run']}) was won by {best['winner']}"
            ),
            source="crossover_map",
        )

    if density >= _DENSE_DENSITY and run < _DENSE_RUN:
        return CodecChoice(
            codec="dense",
            rationale=(
                f"density {density:g} in runs of {run:.1f} bits compresses "
                f"under 2x; dense word-parallel ops are fastest"
            ),
            source="builtin",
        )
    starts = density / run
    if starts < _FEW_RUN_STARTS:
        return CodecChoice(
            codec="wah",
            rationale=(
                f"a run starts every {1 / starts:.0f} rows: so few runs that "
                f"the lower fixed cost per operation decides"
            ),
            source="builtin",
        )
    if starts >= _LITERAL_RUN_STARTS and density >= _DENSE_DENSITY:
        return CodecChoice(
            codec="wah",
            rationale=(
                f"a run starts every {1 / starts:.0f} rows at density "
                f"{density:g}: WAH combines its literal words in parallel, "
                f"Roaring would merge that many runs"
            ),
            source="builtin",
        )
    return CodecChoice(
        codec="roaring",
        rationale=(
            f"a run starts every {1 / starts:.0f} rows at density {density:g}: "
            f"too many for WAH's run-by-run merge; Roaring sweeps its "
            f"containers' runs in one pass and keeps scattered bits in arrays"
        ),
        source="builtin",
    )


def main(argv: list[str] | None = None) -> int:
    """Command-line advisor: ``python -m repro.core.advisor C [options]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.core.advisor",
        description="Recommend a bitmap-index design for one attribute.",
    )
    parser.add_argument("cardinality", type=int, help="attribute cardinality C")
    parser.add_argument(
        "--budget", type=int, default=None, help="max stored bitmaps M"
    )
    parser.add_argument(
        "--buffer", type=int, default=0, help="buffered bitmaps m"
    )
    parser.add_argument(
        "--objective", choices=OBJECTIVES, default="knee",
        help="design objective (default: knee)",
    )
    parser.add_argument(
        "--exact", action="store_true",
        help="force the exact constrained search (TimeOptAlg)",
    )
    args = parser.parse_args(argv)
    try:
        design = recommend(
            args.cardinality,
            space_budget=args.budget,
            buffer_bitmaps=args.buffer,
            objective=args.objective,
            exact=True if args.exact else None,
        )
    except OptimizationError as exc:
        print(f"error: {exc}")
        return 2
    print(design)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() tests
    raise SystemExit(main())
