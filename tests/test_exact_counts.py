"""The exact counts of the repo benchmark, gated against a committed baseline.

Each workload of ``benchmarks/e2e`` is set up at smoke scale (20,000 rows,
seed 1998) and served one traced pass in process, so its query count is
fixed.  What that pass counts — scans, operations, kernel and parse calls,
RIDs, bytes and bitmaps read, pages touched, ``os.stat`` calls, the cache's
hit rate, evictions and resident bytes, write amplification and stored
bytes per row — depends on the seed alone, not on the host or its speed.
Every count must equal ``tests/data/exact_counts.json``; the failure names
each count that moved and both of its values.

A change that means to move a count regenerates the baseline in the same
diff, which is then the review artifact::

    PYTHONPATH=src python tests/test_exact_counts.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "benchmarks" / "e2e"))

import layers  # noqa: E402
import workloads  # noqa: E402

BASELINE = Path(__file__).parent / "data" / "exact_counts.json"
ROWS, SEED = 20_000, 1998

#: The counts among ``workloads.per_layer``'s metrics (the rest are times).
PER_LAYER_COUNTS = (
    "core.evaluation.scans_per_query",
    "core.evaluation.ops_per_query",
    "bitmaps.kernel_calls_per_query",
    "query.parse_calls_per_query",
    "bitmaps.rids_per_query",
    "storage.store.payload_bytes_per_query",
    "storage.store.bitmaps_materialized_per_query",
    "storage.store.pages_touched_per_query",
    "core.evaluation.scans_vs_model",
    "engine.cache.hit_rate",
    "engine.cache.evictions_per_query",
    "engine.cache.bytes_cached",
    "storage.store.write_amp",
)


def exact_counts(name: str, scratch: str) -> dict[str, float]:
    """Set ``name`` up under ``scratch``, serve one traced pass and return
    its counts; every ``os.stat`` call of the pass is counted too."""
    bench = workloads.Bench(workloads.WORKLOADS[name], ROWS, SEED, scratch)
    stat, calls = os.stat, []

    def counted(*args, **kwargs):
        calls.append(1)
        return stat(*args, **kwargs)

    try:
        bench.set_up()
        tracer = layers.Tracer()
        os.stat = counted
        try:
            with tracer.installed():
                recorder = bench.measure(1e-9, tracer)  # one pass: any pass outlasts 1 ns
        finally:
            os.stat = stat
        assert (recorder.passes, recorder.failed) == (1, 0), name
        metrics = workloads.per_layer(bench, recorder, recorder, bench.scans_vs_model())
        counts = {key: metrics[key][0] for key in PER_LAYER_COUNTS}
        counts["os.stat_calls_per_query"] = len(calls) / recorder.first_pass["queries"]
        counts["bytes_per_row"] = workloads.end_to_end(bench, recorder)["bytes_per_row"][0]
    finally:
        bench.tear_down()
    return counts


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_exact_counts_equal_the_baseline(tmp_path, name):
    expected = json.loads(BASELINE.read_text())["workloads"][name]
    counts = exact_counts(name, str(tmp_path))
    moved = [
        f"{key}: baseline {expected.get(key)!r}, now {counts.get(key)!r}"
        for key in sorted(expected.keys() | counts.keys())
        if expected.get(key) != counts.get(key)
    ]
    assert not moved, f"{name}: " + "; ".join(moved)


def main() -> None:
    """Write the baseline from this checkout."""
    with tempfile.TemporaryDirectory() as scratch:
        counts = {name: exact_counts(name, scratch) for name in workloads.WORKLOADS}
    BASELINE.parent.mkdir(exist_ok=True)
    baseline = {"rows": ROWS, "seed": SEED, "workloads": counts}
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BASELINE}")


if __name__ == "__main__":
    main()
