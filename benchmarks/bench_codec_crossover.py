"""Where each bitmap codec wins: a (density, clustering) crossover map.

Sweeps a grid of bit densities and clustering factors (mean run length of
the set bits; ``None`` = uniform random placement), builds each cell's
bitmaps in all three served representations — dense :class:`BitVector`,
:class:`WahBitVector`, and :class:`RoaringBitmap` — and times the AND+OR
pair every evaluator bottoms out in.  Results go to
``benchmarks/results/BENCH_codec_crossover.json``.

The map shows the three regimes the codecs split the plane into:

- **Clustered runs** (run length >= a few hundred bits) — WAH's
  word-aligned run-length coding is at home: smallest payloads, op cost
  proportional to runs.
- **Uniform scatter at low-to-moderate density** — WAH degenerates to one
  literal word per set region, so its op cost follows the number of set
  regions; Roaring's array/bitmap containers operate on 2^16-bit chunks
  with vectorized merges.  Which of the two is faster here changes from
  cell to cell (``roaring_vs_wah`` records the ratio), so only the
  structure of the map is asserted, not a ratio.
- **Dense uniform** (density high enough that compression buys < 2x) —
  plain dense word-parallel ops are fastest and compression saves no
  space, so ``dense`` is the honest recommendation.

Each cell records the per-codec payload bytes and op time plus three
verdicts: ``time_winner``, ``space_winner``, and the combined ``winner``
that :func:`repro.core.advisor.recommend_codec` consumes (dense only when
compression is pointless, otherwise the faster compressed codec).

Run standalone (full 1M-row scale)::

    PYTHONPATH=src python benchmarks/bench_codec_crossover.py

smoke mode (quick sizes, used by CI)::

    PYTHONPATH=src python benchmarks/bench_codec_crossover.py --smoke

or through pytest (quick sizes unless ``REPRO_BENCH_FULL=1``)::

    pytest benchmarks/bench_codec_crossover.py -q
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.bitmaps.bitvector import BitVector
from repro.bitmaps.compressed import WahBitVector
from repro.bitmaps.roaring import RoaringBitmap

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULT_FILE = os.path.join(RESULTS_DIR, "BENCH_codec_crossover.json")

QUICK = os.environ.get("REPRO_BENCH_FULL", "") == ""

#: Fraction of bits set in each generated bitmap.
DENSITIES = (0.0001, 0.001, 0.01, 0.1, 0.5)

#: Mean run length (bits) of the set-bit runs; None = uniform random.
CLUSTER_RUNS = (None, 64, 1024, 16384)

#: A codec must shrink the dense payload by at least this factor before
#: recommending it over plain dense ops (which are always fastest raw).
COMPRESSION_FLOOR = 2.0

REPEATS = 5
CODECS = ("dense", "wah", "roaring")


def clustered_bools(
    nbits: int, density: float, run: int | None, rng: np.random.Generator
) -> np.ndarray:
    """A 0/1 array with ``density`` ones in runs averaging ``run`` bits.

    ``run=None`` places each bit independently (uniform random).  For the
    clustered case, one-runs are geometric with mean ``run`` and the
    zero-gaps are geometric with the mean that yields the target density.
    """
    if run is None:
        return rng.random(nbits) < density
    gap = max(1.0, run * (1.0 - density) / density)
    n_runs = max(4, int(2 * nbits / (run + gap)))
    lengths = np.empty(2 * n_runs, dtype=np.int64)
    lengths[0::2] = rng.geometric(1.0 / gap, size=n_runs)
    lengths[1::2] = rng.geometric(1.0 / run, size=n_runs)
    values = np.zeros(2 * n_runs, dtype=bool)
    values[1::2] = True
    bits = np.repeat(values, lengths)
    while len(bits) < nbits:
        bits = np.concatenate([bits, bits])
    return bits[:nbits]


def best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _winner(cell: dict) -> str:
    """The recommendation verdict the advisor consumes (see module doc)."""
    if cell["compression_ratio"] < COMPRESSION_FLOOR:
        return "dense"
    return "wah" if cell["wah_ms"] <= cell["roaring_ms"] else "roaring"


def bench_cell(
    nbits: int, density: float, run: int | None, rng: np.random.Generator
) -> dict:
    a = clustered_bools(nbits, density, run, rng)
    b = clustered_bools(nbits, density, run, rng)
    da, db = BitVector.from_bools(a), BitVector.from_bools(b)
    wa, wb = WahBitVector.from_bitvector(da), WahBitVector.from_bitvector(db)
    ra, rb = RoaringBitmap.from_bools(a), RoaringBitmap.from_bools(b)

    # The three paths must agree bit-for-bit before any of them is timed.
    assert (wa & wb).to_bitvector() == (da & db)
    assert (ra & rb).to_bitvector() == (da & db)
    assert (wa | wb).to_bitvector() == (da | db)
    assert (ra | rb).to_bitvector() == (da | db)
    # A chained result seals only when its bytes are asked for: they must
    # still be those of the same bits built fresh, on both codecs.
    chained = RoaringBitmap.from_bitvector(~(da & db) | da)
    assert (~(ra & rb) | ra).to_payload() == chained.to_payload()
    chained_wah = WahBitVector.from_bitvector(~(da & db) | da)
    assert (~(wa & wb) | wa).to_payload() == chained_wah.to_payload()

    times = {
        "dense": best_of(lambda: (da & db, da | db)),
        "wah": best_of(lambda: (wa & wb, wa | wb)),
        "roaring": best_of(lambda: (ra & rb, ra | rb)),
    }
    nbytes = {"dense": da.nbytes, "wah": wa.nbytes, "roaring": ra.nbytes}
    cell = {
        "nbits": nbits,
        "density": density,
        "cluster_run": run,
        # Uniform placement still makes runs of mean 1/(1-d) bits; the
        # advisor's nearest-cell lookup needs one numeric axis for both.
        "effective_run": run if run is not None else round(1.0 / (1.0 - density), 2),
        "dense_bytes": nbytes["dense"],
        "wah_bytes": nbytes["wah"],
        "roaring_bytes": nbytes["roaring"],
        "compression_ratio": round(
            nbytes["dense"] / min(nbytes["wah"], nbytes["roaring"]), 2
        ),
        "dense_ms": round(times["dense"] * 1e3, 4),
        "wah_ms": round(times["wah"] * 1e3, 4),
        "roaring_ms": round(times["roaring"] * 1e3, 4),
        "roaring_vs_wah": round(times["wah"] / times["roaring"], 2),
        "time_winner": min(CODECS, key=lambda c: times[c]),
        "space_winner": min(CODECS, key=lambda c: nbytes[c]),
    }
    cell["winner"] = _winner(cell)
    return cell


def run(nbits: int) -> dict:
    rng = np.random.default_rng(42)
    cells = [
        bench_cell(nbits, density, run, rng)
        for density in DENSITIES
        for run in CLUSTER_RUNS
    ]
    uniform = [c for c in cells if c["cluster_run"] is None]
    headline = max(c["roaring_vs_wah"] for c in uniform)
    return {
        "benchmark": "codec_crossover",
        "config": {
            "nbits": nbits,
            "densities": list(DENSITIES),
            "cluster_runs": [r if r is not None else "uniform" for r in CLUSTER_RUNS],
            "compression_floor": COMPRESSION_FLOOR,
            "repeats": REPEATS,
            "quick": nbits < 1_000_000,
        },
        "crossover_map": cells,
        "headline_roaring_vs_wah_uniform": headline,
    }


def save(payload: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(RESULT_FILE, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def report(payload: dict) -> str:
    lines = [
        f"codec crossover at {payload['config']['nbits']} rows "
        f"(AND+OR, best of {payload['config']['repeats']}):",
        f"{'density':>8} {'cluster':>8} {'ratio':>7} {'dense ms':>9} "
        f"{'wah ms':>8} {'roar ms':>8} {'roar/wah':>9} {'winner':>8}",
    ]
    for cell in payload["crossover_map"]:
        cluster = cell["cluster_run"] if cell["cluster_run"] is not None else "uniform"
        lines.append(
            f"{cell['density']:>8} {cluster:>8} {cell['compression_ratio']:>7} "
            f"{cell['dense_ms']:>9} {cell['wah_ms']:>8} {cell['roaring_ms']:>8} "
            f"{cell['roaring_vs_wah']:>9} {cell['winner']:>8}"
        )
    lines.append(
        f"headline: roaring is {payload['headline_roaring_vs_wah_uniform']}x "
        f"wah on its best uniform-random cell"
    )
    return "\n".join(lines)


def test_codec_crossover():
    """The map covers all regimes: every cell has a winner, the plane splits."""
    payload = run(100_000 if QUICK else 1_000_000)
    save(payload)
    print()
    print(report(payload))
    assert all(cell["winner"] in CODECS for cell in payload["crossover_map"])
    winners = {cell["winner"] for cell in payload["crossover_map"]}
    # The plane genuinely splits.  At quick sizes fixed per-op overheads
    # decide the compressed cells, so the full three-way split is only
    # pinned at paper scale.
    assert "dense" in winners and len(winners) >= 2, winners
    if not QUICK:
        assert winners == set(CODECS), winners


def main(argv: list[str] | None = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(
        description="Map the (density, clustering) codec-crossover plane."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick sizes and no result file (CI sanity run)",
    )
    args = parser.parse_args(argv)
    nbits = 100_000 if args.smoke else 1_000_000
    payload = run(nbits)
    if not args.smoke:
        save(payload)
    print(report(payload))
    if not args.smoke:
        print(
            f"wrote {os.path.relpath(RESULT_FILE)}; best uniform roaring-vs-wah "
            f"{payload['headline_roaring_vs_wah_uniform']}x"
        )


if __name__ == "__main__":
    main()
