"""Figure 16 — time, space, and tradeoff of BS / cBS / cCS indexes.

The paper evaluates the restricted query space ``{<=, =} x [0, C)`` on
data set 1's space-optimal indexes (n = 1..6) under three storage
configurations and reports:

(a) average predicate evaluation time vs component count — BS ≈ cBS,
    both far cheaper than cCS, whose cost is dominated by decompressing
    every component file on every query;
(b) index size vs component count — cCS smallest, and compression's
    benefit shrinking once the index is decomposed (n >= 2);
(c) the resulting space-time tradeoff — BS and cBS comparable, both
    better than cCS.

We measure the real decompression + bitmap-operation work in wall-clock
seconds and add modeled I/O seconds from exact byte/file accounting (see
DESIGN.md on the timing substitution).
"""

from __future__ import annotations

from repro.core.optimize import max_components, space_optimal_base
from repro.experiments.disk import DiskModel, SimulatedDisk
from repro.experiments.harness import ExperimentResult
from repro.experiments.measure import aggregate_costs
from repro.experiments.schemes import write_index
from repro.query.executor import bitmap_index_for
from repro.workloads.queries import restricted_query_space
from repro.workloads.tpcd import dataset1, dataset2

#: Storage configurations of the paper's Figure 16.
SCHEMES = ("BS", "cBS", "cCS")


def run(
    quick: bool = True,
    num_rows: int | None = None,
    max_n: int = 6,
    schemes: tuple[str, ...] = SCHEMES,
    dataset: int = 1,
    max_queries: int | None = None,
) -> ExperimentResult:
    """Reproduce Figure 16's series.

    ``dataset=1`` is the paper's figure; ``dataset=2`` produces the
    large-cardinality variant the paper omitted "due to space limitation"
    (its shape: the same orderings, amplified — the single-component
    index has 2400+ bitmaps, so cCS's compression advantage and
    decompression penalty are both extreme).  ``max_queries`` evaluates an
    evenly strided sample of the ``2C`` restricted queries — useful for
    data set 2, where the full space is ~4,800 queries.
    """
    n_rows = num_rows if num_rows is not None else (30_000 if quick else 60_000)
    if dataset == 1:
        relation, spec = dataset1(num_rows=n_rows)
    elif dataset == 2:
        relation, spec = dataset2(num_rows=n_rows)
    else:
        raise ValueError(f"dataset must be 1 or 2, got {dataset}")
    cardinality = spec.attribute_cardinality
    disk_model = DiskModel()

    result = ExperimentResult(
        "fig16",
        f"Storage schemes on {spec.name} (N={n_rows}, C={cardinality})",
        ["n", "scheme", "space bytes", "eval ms (1998 model)", "io ms",
         "inflate ms", "inflate %", "modern cpu ms", "avg bytes read"],
    )
    result.plot_axes = ("number of components", "avg eval ms (1998 model)")
    queries = list(restricted_query_space(cardinality))
    if max_queries is not None and len(queries) > max_queries:
        stride = len(queries) / max_queries
        queries = [queries[int(k * stride)] for k in range(max_queries)]
    for n in range(1, min(max_n, max_components(cardinality)) + 1):
        base = space_optimal_base(cardinality, n)
        index = bitmap_index_for(relation, spec.attribute, base=base)
        for scheme_name in schemes:
            disk = SimulatedDisk()
            scheme = write_index(disk, "x", index, scheme_name)
            totals, count, cpu_seconds = aggregate_costs(
                scheme,
                queries,
                algorithm="range_eval_opt",
                reset_cache=True,
                timed=True,
            )
            io_seconds = disk_model.seconds(totals.files_opened, totals.bytes_read)
            inflated = totals.decompressed_bytes if scheme.codec.name != "none" else 0
            inflate_seconds = disk_model.decompress_seconds(inflated)
            era_total = io_seconds + inflate_seconds
            result.add_point(scheme_name, n, 1000.0 * era_total / count)
            result.add(
                n,
                scheme_name,
                scheme.stored_bytes,
                1000.0 * era_total / count,
                1000.0 * io_seconds / count,
                1000.0 * inflate_seconds / count,
                100.0 * inflate_seconds / era_total if era_total else 0.0,
                1000.0 * cpu_seconds / count,
                totals.bytes_read // count,
            )
    result.note(
        "eval ms (1998 model) = modeled I/O (10 ms/file + 10 MB/s) plus "
        "era-modeled zlib inflate (6 MB/s); 'modern cpu ms' is the measured "
        "wall time of today's decompression + bitmap operations"
    )
    _annotate_shape(result)
    return result


def _annotate_shape(result: ExperimentResult) -> None:
    """Check the paper's Figure 16(a) ordering on the era-modeled times."""
    by_key = {(row[0], row[1]): row[3] for row in result.rows}
    ns = sorted({row[0] for row in result.rows})
    ccs_slower = sum(
        1
        for n in ns
        if ("cCS" in {r[1] for r in result.rows if r[0] == n})
        and by_key.get((n, "cCS"), 0) > by_key.get((n, "BS"), 0)
    )
    comparable = sum(
        1
        for n in ns
        if abs(by_key.get((n, "cBS"), 0) - by_key.get((n, "BS"), 0))
        <= 0.35 * max(by_key.get((n, "BS"), 1e-9), 1e-9)
    )
    result.note(
        f"paper shape check: cCS slower than BS for {ccs_slower}/{len(ns)} "
        f"component counts; BS and cBS within 35% for {comparable}/{len(ns)}"
    )
