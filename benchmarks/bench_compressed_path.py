"""Compressed-domain execution vs. decode-then-operate.

Three measurements, written to
``benchmarks/results/BENCH_compressed_path.json``:

- ``bitmap_ops`` — AND/OR on stored WAH payloads across row counts and
  clustering factors (mean run length in bits).  ``compressed`` reads the
  payloads with ``WahBitVector.from_payload``, runs the compressed-domain
  operator and writes the result with ``to_payload``;
  ``decode_then_operate`` is the old path: decode both payloads to dense
  :class:`BitVector` and run the dense op.  On clustered bitmaps the
  compressed path wins because its cost is proportional to runs, not
  rows; on incompressible bitmaps it loses — which is exactly the
  crossover the ``ablation_compressed_ops`` experiment maps.
- ``kway_or`` — the k-way ``WahBitVector.or_many`` run merge (per Kaser
  & Lemire) vs. folding a two-operand OR pairwise, payload to payload,
  and vs. decoding everything dense.
- ``query_eval`` + ``cache_capacity`` — end-to-end ``evaluate()`` latency
  on a clustered 1M-row column through a dense index vs. its
  ``with_codec("wah")`` view (results verified bit-identical), and how many
  of the index's bitmaps one :class:`SharedBitmapCache` byte budget holds
  in each representation.

Run standalone (full scale)::

    PYTHONPATH=src python benchmarks/bench_compressed_path.py

or through pytest (quick sizes unless ``REPRO_BENCH_FULL=1``)::

    pytest benchmarks/bench_compressed_path.py -q
"""

from __future__ import annotations

import json
import operator
import os
import time

import numpy as np

from repro.bitmaps.bitvector import BitVector
from repro.bitmaps.compressed import WahBitVector
from repro.core.encoding import EncodingScheme
from repro.core.evaluation import OPERATORS, Predicate, evaluate
from repro.core.index import BitmapIndex
from repro.engine.cache import SharedBitmapCache
from repro.stats import ExecutionStats
from repro.experiments.disk import SimulatedDisk
from repro.experiments.schemes import open_scheme, write_index

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULT_FILE = os.path.join(RESULTS_DIR, "BENCH_compressed_path.json")

QUICK = os.environ.get("REPRO_BENCH_FULL", "") == ""

#: Mean run length in bits; None = uniform random (incompressible).  The
#: sweep brackets the crossover: short runs (128) lose to decode-then-
#: operate, long runs win by growing margins.
CLUSTER_FACTORS = (128, 512, 4096, 32768, None)
REPEATS = 5
KWAY = 8


def clustered_bools(
    nbits: int, factor: int | None, rng: np.random.Generator
) -> np.ndarray:
    """A random 0/1 array whose runs average ``factor`` bits long."""
    if factor is None:
        return rng.random(nbits) < 0.5
    lengths = rng.geometric(1.0 / factor, size=max(4, 2 * nbits // factor))
    values = np.zeros(len(lengths), dtype=bool)
    values[int(rng.integers(0, 2)) :: 2] = True
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


def encode(bits: np.ndarray) -> bytes:
    """The stored WAH payload of a boolean array."""
    return WahBitVector.from_bitvector(BitVector.from_bools(bits)).to_payload()


def stored_op(op, payloads: list[bytes], nbits: int) -> bytes:
    """``op`` over stored payloads, as a fetch meets them: each read by
    ``from_payload``, the result written by ``to_payload``."""
    return op(*[WahBitVector.from_payload(p, nbits) for p in payloads]).to_payload()


def decode(payload: bytes, nbits: int) -> BitVector:
    return WahBitVector.from_payload(payload, nbits).to_bitvector()


def bench_bitmap_ops(row_counts: tuple[int, ...]) -> list[dict]:
    rows = []
    rng = np.random.default_rng(42)
    for nbits in row_counts:
        for factor in CLUSTER_FACTORS:
            a = clustered_bools(nbits, factor, rng)
            b = clustered_bools(nbits, factor, rng)
            pa, pb = encode(a), encode(b)
            da = BitVector.from_bools(a)
            db = BitVector.from_bools(b)

            compressed_s = best_of(
                lambda: (
                    stored_op(operator.and_, [pa, pb], nbits),
                    stored_op(operator.or_, [pa, pb], nbits),
                )
            )
            decode_s = best_of(
                lambda: (
                    decode(pa, nbits) & decode(pb, nbits),
                    decode(pa, nbits) | decode(pb, nbits),
                )
            )
            # Sanity: the two paths agree bit-for-bit.
            assert decode(stored_op(operator.and_, [pa, pb], nbits), nbits) == da & db
            assert decode(stored_op(operator.or_, [pa, pb], nbits), nbits) == da | db
            rows.append(
                {
                    "nbits": nbits,
                    "cluster_factor": factor,
                    "compressed_bytes": len(pa),
                    "dense_bytes": da.nbytes,
                    "compression_ratio": round(da.nbytes / len(pa), 2),
                    "compressed_ms": round(compressed_s * 1e3, 4),
                    "decode_then_operate_ms": round(decode_s * 1e3, 4),
                    "speedup": round(decode_s / compressed_s, 2),
                }
            )
    return rows


def bench_kway_or(nbits: int) -> dict:
    rng = np.random.default_rng(7)
    payloads = []
    for _ in range(KWAY):
        bits = clustered_bools(nbits, 4096, rng)
        payloads.append(encode(bits))

    def kway():
        return stored_op(lambda *vectors: WahBitVector.or_many(vectors), payloads, nbits)

    def pairwise():
        acc = payloads[0]
        for p in payloads[1:]:
            acc = stored_op(operator.or_, [acc, p], nbits)
        return acc

    def dense_fold():
        acc = decode(payloads[0], nbits)
        for p in payloads[1:]:
            acc = acc | decode(p, nbits)
        return acc

    kway_s = best_of(kway)
    pairwise_s = best_of(pairwise)
    dense_s = best_of(dense_fold)
    assert kway() == pairwise()
    assert decode(kway(), nbits) == dense_fold()
    return {
        "nbits": nbits,
        "k": KWAY,
        "kway_ms": round(kway_s * 1e3, 4),
        "pairwise_ms": round(pairwise_s * 1e3, 4),
        "decode_then_fold_ms": round(dense_s * 1e3, 4),
        "speedup_vs_pairwise": round(pairwise_s / kway_s, 2),
        "speedup_vs_decode": round(dense_s / kway_s, 2),
    }


def bench_query_eval(nbits: int) -> dict:
    """End-to-end evaluate() over WAH-coded storage, dense vs compressed.

    Both readers serve the same stored BS/wah index of a clustered (sorted)
    column.  The dense reader decodes every fetched bitmap to a
    :class:`BitVector` before operating — the old path; the compressed
    reader hands the stored payload straight to the WAH algebra.
    """
    rng = np.random.default_rng(3)
    cardinality = 100
    values = np.sort(rng.integers(0, cardinality, nbits))
    index = BitmapIndex(
        values, cardinality, encoding=EncodingScheme.RANGE, keep_values=False
    )
    disk = SimulatedDisk()
    write_index(disk, "bench", index, scheme="BS", codec="wah")
    dense_reader = open_scheme(disk, "bench")
    comp_reader = open_scheme(disk, "bench", compressed="wah")
    predicates = [Predicate(op, v) for op in OPERATORS for v in (10, 50, 90)]
    for predicate in predicates:
        dense_result = evaluate(dense_reader, predicate, stats=ExecutionStats())
        comp_result = evaluate(comp_reader, predicate, stats=ExecutionStats())
        assert np.array_equal(dense_result.indices(), comp_result.indices())

    def run_all(source):
        for predicate in predicates:
            evaluate(source, predicate, stats=ExecutionStats())

    dense_s = best_of(lambda: run_all(dense_reader))
    comp_s = best_of(lambda: run_all(comp_reader))
    return {
        "nbits": nbits,
        "cardinality": cardinality,
        "scheme": "BS",
        "codec": "wah",
        "num_queries": len(predicates),
        "dense_ms_per_query": round(dense_s * 1e3 / len(predicates), 4),
        "compressed_ms_per_query": round(comp_s * 1e3 / len(predicates), 4),
        "speedup": round(dense_s / comp_s, 2),
        "verified_bit_identical": True,
    }


def bench_cache_capacity(nbits: int) -> dict:
    """Bitmaps held under one byte budget, dense vs compressed entries."""
    rng = np.random.default_rng(11)
    cardinality = 64
    values = np.sort(rng.integers(0, cardinality, nbits))
    index = BitmapIndex(
        values, cardinality, encoding=EncodingScheme.EQUALITY, keep_values=False
    )
    budget = 8 * (nbits // 8)  # room for exactly 8 dense bitmaps
    dense_cache = SharedBitmapCache(capacity=None, byte_budget=budget)
    wah_cache = SharedBitmapCache(capacity=None, byte_budget=budget)
    stats = ExecutionStats()
    for slot in index.stored_slots(1):
        dense_cache.put(slot, index.fetch(1, slot, stats))
        wah_cache.put(slot, index.with_codec("wah").fetch(1, slot, stats))
    return {
        "nbits": nbits,
        "stored_bitmaps": index.num_bitmaps,
        "byte_budget": budget,
        "dense_entries": len(dense_cache),
        "compressed_entries": len(wah_cache),
        "capacity_ratio": round(len(wah_cache) / max(1, len(dense_cache)), 2),
        "compressed_bytes_cached": wah_cache.bytes_cached,
    }


def run(row_counts: tuple[int, ...]) -> dict:
    largest = row_counts[-1]
    bitmap_ops = bench_bitmap_ops(row_counts)
    headline = max(
        row["speedup"]
        for row in bitmap_ops
        if row["nbits"] == largest and row["cluster_factor"] is not None
    )
    return {
        "benchmark": "compressed_path",
        "config": {
            "row_counts": list(row_counts),
            "cluster_factors": [
                f if f is not None else "uniform" for f in CLUSTER_FACTORS
            ],
            "repeats": REPEATS,
            "quick": QUICK,
        },
        "bitmap_ops": bitmap_ops,
        "kway_or": bench_kway_or(largest),
        "query_eval": bench_query_eval(largest),
        "cache_capacity": bench_cache_capacity(largest),
        "headline_clustered_speedup": headline,
    }


def save(payload: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(RESULT_FILE, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def report(payload: dict) -> str:
    lines = [
        "compressed execution vs decode-then-operate:",
        f"{'rows':>10} {'cluster':>8} {'ratio':>7} {'comp ms':>9} "
        f"{'decode ms':>10} {'speedup':>8}",
    ]
    for row in payload["bitmap_ops"]:
        cluster = row["cluster_factor"] or "uniform"
        lines.append(
            f"{row['nbits']:>10} {cluster:>8} {row['compression_ratio']:>7} "
            f"{row['compressed_ms']:>9} {row['decode_then_operate_ms']:>10} "
            f"{row['speedup']:>8}"
        )
    kway = payload["kway_or"]
    lines.append(
        f"k-way OR (k={kway['k']}): {kway['speedup_vs_pairwise']}x vs pairwise, "
        f"{kway['speedup_vs_decode']}x vs decode-then-fold"
    )
    query = payload["query_eval"]
    lines.append(
        f"query eval at {query['nbits']} rows: "
        f"{query['compressed_ms_per_query']} ms/query compressed vs "
        f"{query['dense_ms_per_query']} dense ({query['speedup']}x)"
    )
    cache = payload["cache_capacity"]
    lines.append(
        f"cache byte budget {cache['byte_budget']}: {cache['compressed_entries']} "
        f"compressed entries vs {cache['dense_entries']} dense "
        f"({cache['capacity_ratio']}x)"
    )
    return "\n".join(lines)


def test_compressed_path_benchmark():
    """Compressed ops beat decode-then-operate on clustered bitmaps, and
    the byte-budget cache holds >= 4x more compressed entries.

    The 2x acceptance bar applies to the full 1M-row run; quick mode uses
    a looser floor because fixed per-op overheads loom larger at 100k.
    """
    payload = run((20_000, 100_000) if QUICK else (100_000, 1_000_000))
    save(payload)
    print()
    print(report(payload))
    floor = 1.2 if QUICK else 2.0
    assert payload["headline_clustered_speedup"] >= floor
    assert payload["query_eval"]["speedup"] >= floor
    assert payload["cache_capacity"]["capacity_ratio"] >= 4.0
    assert payload["query_eval"]["verified_bit_identical"]


def main() -> None:
    payload = run((100_000, 1_000_000))
    save(payload)
    print(report(payload))
    print(
        f"wrote {os.path.relpath(RESULT_FILE)}; clustered 1M speedup "
        f"{payload['headline_clustered_speedup']}x"
    )


if __name__ == "__main__":
    main()
