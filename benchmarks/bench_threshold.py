"""Compressed-domain threshold and COUNT pushdown vs. materialize-then-count.

Two questions, answered per codec at 1M rows:

1. **Threshold kernels.**  How much does the native k-of-N kernel
   (:func:`repro.core.evaluation.threshold_all` dispatching to each
   codec's ``threshold_many``) win over the generic fallback — decode
   every operand to booleans, count, re-encode?  WAH counts run-aligned
   fills without touching individual bits and Roaring counts per
   container, so both should beat bit-blasting on clustered operands;
   dense *is* word counting, so its ratio hovers near 1x (reported
   honestly as the control).

2. **Aggregate pushdown.**  How much does ``engine.count(expr)`` —
   popcount the result bitmap, materialize nothing — win over the
   RID path ``len(engine.query(expr).rids)``, and ``group_count`` over
   materialize-then-bincount?  Both run against a warm cache so the
   difference isolated is exactly the materialization the pushdown
   skips.  The acceptance floor (>= 2x at full scale on every codec) is
   the PR's headline number.

Results go to ``benchmarks/results/BENCH_threshold.json``.

Run standalone (full 1M-row scale)::

    PYTHONPATH=src python benchmarks/bench_threshold.py

smoke mode (quick sizes, no result file, used by CI)::

    PYTHONPATH=src python benchmarks/bench_threshold.py --smoke

or through pytest (quick sizes unless ``REPRO_BENCH_FULL=1``)::

    pytest benchmarks/bench_threshold.py -q
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.bitmaps.bitvector import BitVector
from repro.core.evaluation import Predicate, evaluate, threshold_all
from repro.engine import QueryEngine
from repro.relation.relation import Relation
from repro.stats import ExecutionStats

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULT_FILE = os.path.join(RESULTS_DIR, "BENCH_threshold.json")

QUICK = os.environ.get("REPRO_BENCH_FULL", "") == ""

REPEATS = 5
CODECS = ("dense", "wah", "roaring")

#: ~78% of rows match at k=2 with three ~0.7-selective operands: big
#: result bitmaps make the skipped materialization visible.
EXPRESSION = "atleast(2, a <= 6, b <= 6, c <= 27)"
GROUP_BY = "g"
K = 2


def best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def make_relation(num_rows: int) -> Relation:
    rng = np.random.default_rng(1998)

    def clustered(cardinality: int, chunks: int) -> np.ndarray:
        # Sorted chunks -> long fill runs, the regime the paper's
        # workloads (time- or load-order correlated attributes) put
        # word-aligned codecs in.  Different chunk counts per column
        # keep the run boundaries misaligned across operands.
        column = rng.integers(0, cardinality, num_rows)
        chunk = max(1, num_rows // chunks)
        for start in range(0, num_rows, chunk):
            column[start : start + chunk] = np.sort(column[start : start + chunk])
        return column

    return Relation.from_dict(
        "facts",
        {
            "a": clustered(10, 16),
            "b": clustered(10, 23),
            "c": clustered(40, 11),
            "g": clustered(8, 7),
        },
    )


def bench_threshold_kernel(engine: QueryEngine, relation: Relation) -> dict:
    """Native k-of-N kernel vs. the decode-count-reencode fallback."""
    record = engine.registration("facts")
    sources = {attr: engine._source_for(record, attr) for attr in ("a", "b", "c")}
    operands = [
        evaluate(sources["a"], Predicate("<=", 6)),
        evaluate(sources["b"], Predicate("<=", 6)),
        evaluate(sources["c"], Predicate("<=", 27)),
    ]
    cls = type(operands[0])

    def fallback():
        counts = np.zeros(relation.num_rows, dtype=np.int32)
        for vector in operands:
            counts += vector.to_bools()
        dense = BitVector.from_bools(counts >= K)
        return dense if cls is BitVector else cls.from_bitvector(dense)

    native = best_of(lambda: threshold_all(list(operands), K, ExecutionStats()))
    fell = best_of(fallback)
    # Bit-identical before anything is reported.
    assert np.array_equal(
        threshold_all(list(operands), K, ExecutionStats()).indices(),
        fallback().indices(),
    )
    return {
        "threshold_native_ms": round(native * 1e3, 4),
        "threshold_fallback_ms": round(fell * 1e3, 4),
        "threshold_native_vs_fallback": round(fell / native, 2),
    }


def bench_codec(codec: str, relation: Relation) -> dict:
    with QueryEngine(codec=codec, cache_capacity=1024) as engine:
        engine.register(relation)
        # Warm the cache: both paths then pay identical fetch costs and
        # the measured difference is the materialization alone.
        engine.query(EXPRESSION)
        engine.count(EXPRESSION)
        engine.group_count(EXPRESSION, GROUP_BY)

        cell = bench_threshold_kernel(engine, relation)

        query_s = best_of(lambda: engine.query(EXPRESSION))
        count_s = best_of(lambda: engine.count(EXPRESSION))

        codes = relation.column(GROUP_BY).codes
        cardinality = relation.column(GROUP_BY).cardinality

        def group_via_rids():
            rids = engine.query(EXPRESSION).rids
            return np.bincount(codes[rids], minlength=cardinality)

        group_rids_s = best_of(group_via_rids)
        group_push_s = best_of(lambda: engine.group_count(EXPRESSION, GROUP_BY))

        result = engine.count(EXPRESSION)
        rids = engine.query(EXPRESSION).rids
        groups = engine.group_count(EXPRESSION, GROUP_BY).groups
        assert result.count == len(rids)
        assert np.array_equal(
            np.array([groups[v] for v in sorted(groups)]), group_via_rids()
        )

    cell.update(
        {
            "codec": codec,
            "matching_rows": int(result.count),
            "query_materialize_ms": round(query_s * 1e3, 4),
            "count_pushdown_ms": round(count_s * 1e3, 4),
            "count_pushdown_speedup": round(query_s / count_s, 2),
            "group_materialize_ms": round(group_rids_s * 1e3, 4),
            "group_pushdown_ms": round(group_push_s * 1e3, 4),
            "group_pushdown_speedup": round(group_rids_s / group_push_s, 2),
        }
    )
    return cell


def run(num_rows: int) -> dict:
    relation = make_relation(num_rows)
    cells = [bench_codec(codec, relation) for codec in CODECS]
    return {
        "benchmark": "threshold",
        "config": {
            "num_rows": num_rows,
            "expression": EXPRESSION,
            "group_by": GROUP_BY,
            "k": K,
            "repeats": REPEATS,
            "quick": num_rows < 1_000_000,
        },
        "codecs": cells,
        "headline_count_pushdown_speedup": min(
            c["count_pushdown_speedup"] for c in cells
        ),
    }


def save(payload: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(RESULT_FILE, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def report(payload: dict) -> str:
    config = payload["config"]
    lines = [
        f"threshold + aggregate pushdown at {config['num_rows']} rows "
        f"('{config['expression']}', best of {config['repeats']}):",
        f"{'codec':>8} {'thresh native':>14} {'fallback':>9} {'x':>6} "
        f"{'query ms':>9} {'count ms':>9} {'x':>6} {'group ms':>9} "
        f"{'push ms':>8} {'x':>6}",
    ]
    for c in payload["codecs"]:
        lines.append(
            f"{c['codec']:>8} {c['threshold_native_ms']:>14} "
            f"{c['threshold_fallback_ms']:>9} "
            f"{c['threshold_native_vs_fallback']:>6} "
            f"{c['query_materialize_ms']:>9} {c['count_pushdown_ms']:>9} "
            f"{c['count_pushdown_speedup']:>6} {c['group_materialize_ms']:>9} "
            f"{c['group_pushdown_ms']:>8} {c['group_pushdown_speedup']:>6}"
        )
    lines.append(
        f"headline: COUNT pushdown is >= "
        f"{payload['headline_count_pushdown_speedup']}x materialize-then-count "
        f"on every codec"
    )
    return "\n".join(lines)


def test_threshold_pushdown():
    """COUNT pushdown beats materialize-then-count on every codec.

    The 2x acceptance bar applies to the full 1M-row run; quick mode
    uses a looser floor because the materialized RID array is small
    enough that fixed per-query overheads loom larger.
    """
    payload = run(100_000 if QUICK else 1_000_000)
    save(payload)
    print()
    print(report(payload))
    floor = 1.1 if QUICK else 2.0
    assert payload["headline_count_pushdown_speedup"] >= floor
    for cell in payload["codecs"]:
        assert cell["group_pushdown_speedup"] >= (0.8 if QUICK else 1.0)
    if not QUICK:
        # The compressed kernels must not lose to bit-blasting at scale.
        for cell in payload["codecs"]:
            if cell["codec"] != "dense":
                assert cell["threshold_native_vs_fallback"] >= 1.0, cell


def main(argv: list[str] | None = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(
        description="Threshold kernels and aggregate pushdown vs. RID paths."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick sizes and no result file (CI sanity run)",
    )
    args = parser.parse_args(argv)
    num_rows = 100_000 if args.smoke else 1_000_000
    payload = run(num_rows)
    if not args.smoke:
        save(payload)
    print(report(payload))
    if not args.smoke:
        print(
            f"wrote {os.path.relpath(RESULT_FILE)}; COUNT pushdown "
            f"{payload['headline_count_pushdown_speedup']}x on the slowest codec"
        )


if __name__ == "__main__":
    main()
