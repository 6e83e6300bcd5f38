"""Self-test of the benchmark harness: drives ``run.py --smoke`` in this
process and checks what it printed against BENCHMARK.json.

    python3 benchmarks/e2e/selftest.py

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
import time

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SMOKE_BUDGET_S = 30.0
#: The per-query self times that must add up to engine.root_ms_per_query.
LAYER_PARTS = (
    "engine.self_ms_per_query",
    "query.self_ms_per_query",
    "core.evaluation.self_ms_per_query",
    "bitmaps.kernel_ms_per_query",
    "bitmaps.materialize_ms_per_query",
    "engine.cache.get_ms_per_query",
    "engine.cache.put_ms_per_query",
    "storage.store.fetch_ms_per_query",
)


def last_json_line(argv: list[str]) -> dict:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = run.main(argv)
    assert code == 0, f"run.py {argv} exited {code}"
    return json.loads(printed.getvalue().strip().splitlines()[-1])


def check_named(printed: dict, declared: list[dict], where: str) -> None:
    names = [metric["name"] for metric in declared]
    assert sorted(printed) == sorted(names), (
        f"{where}: printed and declared metrics differ: "
        f"{sorted(set(printed) ^ set(names))}"
    )
    for metric in declared:
        assert printed[metric["name"]]["unit"] == metric["unit"], (where, metric)
        assert math.isfinite(printed[metric["name"]]["value"]), (where, metric)


def main() -> int:
    with open(os.path.join(run.REPO, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    workloads = [w["name"] for w in benchmark["workloads"]]
    declared = benchmark["end_to_end"] + benchmark["per_layer"]
    for name in workloads + [m["name"] for m in declared]:
        assert NAME.match(name), f"bad name {name!r}"
    assert len({m["name"] for m in declared}) == len(declared), "a name is used twice"
    assert benchmark["paths"] == [os.path.relpath(run.HERE, run.REPO)]

    start = time.perf_counter()
    result = last_json_line(["--smoke"])
    elapsed = time.perf_counter() - start
    assert elapsed < SMOKE_BUDGET_S, f"--smoke took {elapsed:.1f} s"
    assert result["correct"] and result["failed"] == 0, result["failed"]
    assert sorted(result["metrics"]) == sorted(
        workloads + [w + ".traced" for w in workloads]
    ), sorted(result["metrics"])

    for workload in workloads:
        check_named(result["metrics"][workload], benchmark["end_to_end"], workload)
        for metric in benchmark["end_to_end"]:
            value = result["metrics"][workload][metric["name"]]["value"]
            assert value > 0, f"{workload} {metric['name']} is {value}"
        traced = result["metrics"][workload + ".traced"]
        check_named(traced, benchmark["per_layer"], workload + ".traced")
        parts = sum(traced[name]["value"] for name in LAYER_PARTS)
        root = traced["engine.root_ms_per_query"]["value"]
        assert math.isclose(parts, root, rel_tol=1e-6), (workload, parts, root)
        assert traced["core.evaluation.scans_vs_model"]["value"] == 1, workload
        assert os.path.isfile(os.path.join(run.SCRATCH, f"trace_{workload}.json"))

    # The driver's form: one workload, one mode, exactly the four keys.
    single = last_json_line(
        ["--smoke", "--workload", workloads[0], "--seed", "3", "--trace", "0"]
    )
    assert sorted(single) == ["attempted", "correct", "failed", "metrics"], single
    check_named(single["metrics"], benchmark["end_to_end"], "single run")
    print(f"selftest ok ({elapsed:.1f} s smoke)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
