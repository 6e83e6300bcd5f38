"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are files written by ``run.py --out`` (each may
hold many runs; repeat ``run.py --out`` over several seeds to fill one).
Prints one row per (workload, end-to-end metric): both medians, the ratio
B/A, the wider of the two run-to-run spreads (interquartile range over
median), and a verdict:

- ``worse``   B's median is worse than A's by more than the metric's bound;
- ``better``  B's median is better than A's by more than the bound;
- ``same``    the medians are within the bound of each other;
- ``unresolved``  the spread is wider than the bound, so the runs cannot
  tell — unless every run of B is better (worse) than every run of A.

The untraced runs' timings (``qps``, ``<op>_p50_ms``, ...) follow, one row
each with the same columns; they have no bound and so no verdict.

Exits non-zero if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric or timing) -> values, from the untraced runs of one
    file."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if run["traced"]:
            continue
        for name, metric in {**run["metrics"], **run["timings"]}.items():
            values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], lower_is_better: bool, bound: float) -> str:
    if not lower_is_better:  # compare costs: lower is better from here on
        a, b = [-v for v in a], [-v for v in b]
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_b - med_a) / abs(med_a)
    if max(spread(a), spread(b)) > bound:
        if min(b) > max(a) and worse_by > bound:
            return "worse"
        if max(b) < min(a):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    a_runs, b_runs = load(argv[0]), load(argv[1])
    print(
        f"{'workload':<16} {'metric':<20} {'A median':>12} {'B median':>12} "
        f"{'B/A':>7} {'spread':>7} {'bound':>6}  verdict (n A, n B)"
    )
    bounded = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    unbounded = [name for _, name in a_runs if name not in bounded]
    any_worse = False
    for workload in benchmark["workloads"]:
        for name in dict.fromkeys([*bounded, *unbounded]):
            key = (workload["name"], name)
            a, b = a_runs.get(key), b_runs.get(key)
            if not a or not b or not statistics.median(a):
                continue
            bound, result = "-", "no bound"
            if name in bounded:
                bound = f"{bounded[name]['bound']:.2f}"
                result = verdict(
                    a, b, bounded[name]["better"] == "lower", bounded[name]["bound"]
                )
                any_worse |= result == "worse"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(
                f"{key[0]:<16} {key[1]:<20} {med_a:>12.6g} {med_b:>12.6g} "
                f"{med_b / med_a:>7.3f} {max(spread(a), spread(b)):>7.3f} "
                f"{bound:>6}  {result} ({len(a)}, {len(b)})"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
