"""The repo benchmark: five store-backed serving workloads over ``facts``.

    python3 benchmarks/e2e/run.py --workload hot_wah --seed 7 --seconds 10 --trace 0

runs one workload untraced and prints its end-to-end metrics; ``--trace 1``
runs it half with the layer wrappers installed and half without and prints
the per-layer metrics instead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With the
default ``--workload all`` (and ``--trace both``) every workload and mode
runs in turn and ``metrics`` is keyed by ``<workload>`` (untraced) and
``<workload>.traced``.  See README.md beside this file.

The command runs in the foreground, on one process and one thread, and
refuses to exit 0 if it left a child process, a thread, a shared-memory
segment or its store directory behind.
"""

from __future__ import annotations

import argparse
import glob
import json
import multiprocessing
import os
import platform
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SCRATCH = os.path.join(HERE, "results")
ROWS = 1_000_000
SMOKE_ROWS, SMOKE_SECONDS = 20_000, 0.5

if not os.path.isdir(os.path.join(REPO, "src", "repro")):
    sys.exit(f"{REPO}/src/repro not found: there is no program here to measure")
sys.path[:0] = [os.path.join(REPO, "src"), HERE]

import numpy as np  # noqa: E402

from layers import Tracer  # noqa: E402
from facts import OPS  # noqa: E402
from workloads import WORKLOADS, Bench, end_to_end, per_layer, timings  # noqa: E402


def host_fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def run_workload(name: str, rows: int, seed: int, seconds: float, traced: bool) -> dict:
    """Set up, measure and check one workload; returns its run record."""
    bench = Bench(WORKLOADS[name], rows, seed, SCRATCH)
    try:
        bench.set_up()
        if traced:
            # The traced half first, so that its counts do not depend on how
            # many passes the other half fitted; the untraced half gives the
            # timings and the baseline of trace_overhead.
            tracer = Tracer()
            with tracer.installed():
                phases = [bench.measure(seconds / 2, tracer)]
            phases.append(bench.measure(seconds / 2))
        else:
            phases = [bench.measure(seconds)]
        untraced = phases[-1]
        if bench.spec.kind == "ingest":
            bench.check_durable(untraced)
        if traced:
            metrics = per_layer(bench, phases[0], untraced, bench.scans_vs_model())
            tracer.write(
                os.path.join(SCRATCH, f"trace_{name}.json"),
                phases[0].first_pass["roots"],
            )
        else:
            metrics = end_to_end(bench, untraced)
    finally:
        bench.tear_down()
    failed = sum(phase.failed for phase in phases)
    return {
        "workload": name,
        "traced": traced,
        "seed": seed,
        "rows": rows,
        "seconds": seconds,
        "host": host_fingerprint(),
        "passes": sum(phase.passes for phase in phases),
        "queries": sum(phase.counts["queries"] for phase in phases),
        "verified": sum(phase.verified for phase in phases),
        "samples": {
            **{f"{op}_p50_ms": len(untraced.where(op)) for op in OPS},
            "p95_ms": len(untraced.where(*OPS)),
            "first_answer_ms": len(untraced.where("open")),
        },
        "correct": failed == 0,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": failed,
        "timings": as_json(timings(untraced)),
        "metrics": as_json(metrics),
    }


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def report(run: dict) -> None:
    print(
        f"== {run['workload']} {'traced' if run['traced'] else 'untraced'} "
        f"seed={run['seed']} rows={run['rows']}: {run['passes']} passes, "
        f"{run['queries']} queries, {run['verified']} answers checked, "
        f"{run['failed']} of {run['attempted']} operations failed"
    )
    # An untraced run shows its timings too; they are bounded by nothing
    # (see README.md) and are not part of its result line.
    shown = run["metrics"] if run["traced"] else {**run["metrics"], **run["timings"]}
    for name, metric in shown.items():
        samples = run["samples"].get(name)
        note = f"  (n={samples})" if samples else ""
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}{note}")


def leftovers() -> list[str]:
    """What a clean run must not leave behind."""
    return (
        [f"child process {p.pid}" for p in multiprocessing.active_children()]
        + [
            f"thread {t.name}"
            for t in threading.enumerate()
            if t is not threading.main_thread()
        ]
        + glob.glob(f"/dev/shm/repro-shm-{os.getpid()}-*")
        + glob.glob(os.path.join(SCRATCH, "store-*"))
    )


def save(path: str, runs: list[dict]) -> None:
    """Append this invocation's runs to ``path`` (``{"runs": [...]}``)."""
    previous = []
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)["runs"]
    with open(path, "w") as handle:
        json.dump({"runs": previous + runs}, handle, indent=1)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", default="both", choices=["0", "1", "both"])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"{SMOKE_ROWS} rows and {SMOKE_SECONDS} s per workload and mode",
    )
    parser.add_argument("--out", help="append the run records to this JSON file")
    args = parser.parse_args(argv)
    rows = ROWS
    if args.smoke:
        rows, args.seconds = SMOKE_ROWS, SMOKE_SECONDS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]

    os.makedirs(SCRATCH, exist_ok=True)
    runs = []
    for traced in modes:
        for name in names:
            runs.append(run_workload(name, rows, args.seed, args.seconds, traced))
            report(runs[-1])
    if args.out:
        save(args.out, runs)

    left = leftovers()
    if left:
        print("left behind: " + ", ".join(left), file=sys.stderr)
        return 1
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {
            run["workload"] + (".traced" if run["traced"] else ""): run["metrics"]
            for run in runs
        }
    print(
        json.dumps(
            {
                "correct": all(run["correct"] for run in runs),
                "attempted": sum(run["attempted"] for run in runs),
                "failed": sum(run["failed"] for run in runs),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
