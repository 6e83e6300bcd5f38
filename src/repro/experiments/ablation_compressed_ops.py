"""Ablation — compressed-domain algebra vs decompress-then-operate.

The paper's Section 9 pays full decompression on every compressed-bitmap
access (zlib can do nothing else).  Word-aligned codecs changed that
economics: AND/OR run directly on the WAH runs.  This ablation measures,
per value distribution, the wall time of

- ``compressed``: ``WahBitVector.__and__`` on the parsed run lists;
- ``decode+op``: WAH-decode both operands, then one uncompressed AND;
- ``uncompressed``: the plain in-memory AND (the lower bound).

Expected shape: on run-structured bitmaps the compressed-domain AND works
on a handful of runs and beats full decode by a wide margin; on random
bitmaps every group is a literal, so staying compressed saves no space
and the AND is a word-parallel pass over 32-bit group values (a few
times numpy's 64-bit word AND).
"""

from __future__ import annotations

import time

import numpy as np

from repro.bitmaps.bitvector import BitVector
from repro.bitmaps.compressed import WahBitVector
from repro.experiments.harness import ExperimentResult
from repro.workloads.generators import clustered_values, uniform_values


def _time(func, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        func()
    return 1000.0 * (time.perf_counter() - start) / repeats


def run(
    quick: bool = True,
    num_rows: int | None = None,
    repeats: int | None = None,
) -> ExperimentResult:
    """Per-distribution timings of the three AND strategies."""
    n_rows = num_rows if num_rows is not None else (100_000 if quick else 500_000)
    n_repeats = repeats if repeats is not None else (20 if quick else 50)

    distributions = {
        "uniform": uniform_values(n_rows, 100, seed=1),
        "clustered": clustered_values(n_rows, 100, run_length=128, seed=1),
        "sorted": np.sort(uniform_values(n_rows, 100, seed=1)),
    }

    result = ExperimentResult(
        "ablation_compressed_ops",
        f"Compressed-domain AND vs decode+AND (N={n_rows})",
        ["distribution", "wah words", "compressed ms", "decode+op ms",
         "uncompressed ms", "result count ok"],
    )
    for name, values in distributions.items():
        a = BitVector.from_bools(values <= 40)
        b = BitVector.from_bools(values <= 70)
        ca = WahBitVector.from_bitvector(a)
        cb = WahBitVector.from_bitvector(b)

        compressed_ms = _time(lambda: ca & cb, n_repeats)
        decode_ms = _time(
            lambda: ca.to_bitvector() & cb.to_bitvector(), n_repeats
        )
        plain_ms = _time(lambda: a & b, n_repeats)
        correct = (ca & cb).count() == (a & b).count()
        result.add(
            name, ca.num_words, compressed_ms, decode_ms, plain_ms,
            "yes" if correct else "NO",
        )

    by_name = {row[0]: row for row in result.rows}
    result.note(
        f"run-structured bitmaps: compressed AND touches "
        f"{by_name['sorted'][1]} words instead of "
        f"{(n_rows + 30) // 31} and runs "
        f"{by_name['sorted'][3] / max(by_name['sorted'][2], 1e-9):.0f}x "
        f"faster than decode+op"
    )
    result.note(
        "uniform bitmaps are all literals: staying compressed saves no "
        "space there, and the AND is a word-parallel pass over the group "
        "values"
    )
    return result
