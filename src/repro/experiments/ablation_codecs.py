"""Ablation — zlib (the paper's codec) vs WAH across data distributions.

The paper compresses bitmap files with zlib; the later bitmap literature
settled on word-aligned run-length codecs (WAH and descendants).  This
ablation stores the knee index of each synthetic column under BS with
both codecs and compares compressed size and decode cost.  The expected
shape: on clustered (run-structured) columns WAH competes with or beats
deflate at a fraction of the decode cost; on uniform random columns
deflate wins on ratio because WAH's literals carry a 1/32 overhead and
random bitmaps have few long runs.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.index import BitmapIndex
from repro.core.optimize import knee_base
from repro.experiments.compression import get_codec
from repro.experiments.disk import SimulatedDisk
from repro.experiments.harness import ExperimentResult
from repro.experiments.schemes import _unframe, write_index
from repro.workloads.generators import (
    clustered_values,
    uniform_values,
    zipf_values,
)

CODECS = ("zlib", "wah")


def _decode_seconds(scheme, disk: SimulatedDisk) -> float:
    """Wall time to decode every bitmap file of a scheme once."""
    codec = get_codec(scheme.codec.name)
    start = time.perf_counter()
    for path in scheme.data_files():
        payload, _, _, _ = _unframe(disk.read(path), path)
        codec.decode(payload)
    return time.perf_counter() - start


def run(
    quick: bool = True,
    num_rows: int | None = None,
    cardinality: int = 100,
) -> ExperimentResult:
    """Compressed size and decode time per codec per distribution."""
    n_rows = num_rows if num_rows is not None else (20_000 if quick else 100_000)
    distributions = {
        "uniform": uniform_values(n_rows, cardinality, seed=1),
        "zipf(1.2)": zipf_values(n_rows, cardinality, skew=1.2, seed=1),
        "clustered": clustered_values(n_rows, cardinality, run_length=64, seed=1),
        "sorted": np.sort(uniform_values(n_rows, cardinality, seed=1)),
    }
    base = knee_base(cardinality)

    result = ExperimentResult(
        "ablation_codecs",
        f"zlib vs WAH bitmap compression (N={n_rows}, C={cardinality}, "
        f"knee base {base})",
        ["distribution", "codec", "bytes", "% of raw", "decode ms"],
    )
    for name, values in distributions.items():
        index = BitmapIndex(values, cardinality, base)
        disk = SimulatedDisk()
        raw = write_index(disk, f"{name}/raw", index, "BS").stored_bytes
        for codec in CODECS:
            scheme = write_index(disk, f"{name}/{codec}", index, "BS", codec=codec)
            decode_ms = 1000.0 * _decode_seconds(scheme, disk)
            result.add(
                name,
                codec,
                scheme.stored_bytes,
                100.0 * scheme.stored_bytes / raw,
                decode_ms,
            )
    result.note(
        "ratio shape: WAH approaches deflate only on run-structured "
        "columns (clustered/sorted) and pays its 1/32 literal overhead on "
        "random ones — deflate wins on ratio, which is why the paper's "
        "zlib choice is sound for its uniform TPC-D columns"
    )
    result.note(
        "decode times compare a pure-Python WAH against C-implemented "
        "zlib, so they understate WAH; in C implementations WAH decodes "
        "an order of magnitude faster (it can even operate on compressed "
        "form directly)"
    )
    return result
