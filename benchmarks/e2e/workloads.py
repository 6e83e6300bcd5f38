"""The five serving workloads: set-up, measured loop, answer checks.

The load is a closed loop with one client on one thread
(``backend="inline"``, ``max_workers=1``, engine tracing off).  A measured
phase runs whole *passes* until ``--seconds`` of timed work have passed.  A
pass is 20 rounds of the Q5 mix (``hot``), 20 open / round / close cycles
(``restart``) or one compaction group (``ingest``); its constants are fresh
from the seeded stream, so no query text is replayed.

Every timed operation is one sample.  Timings are pooled over all the
samples of a phase: a p50 or p95 is that percentile of the samples, ``qps``
is queries over the summed seconds of everything timed (opens, closes,
appends and compactions included; the untimed answer checks are not).
Counts are taken over the first pass, so they repeat exactly for a seed
however many passes fitted.
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass

import numpy as np

import repro
from repro.core.costmodel import scans_for_predicate
from repro.storage import IndexStore

import facts
from facts import OPS, RELATION
from layers import ROOT_LAYER, SelfTimes, Tracer

PASS_ROUNDS = facts.QueryStream.STRATA
HOT_WARM_ROUNDS = 20  # the 100-query warm-up pass of the hot_* workloads
OTHER_WARM_ROUNDS = 5
APPEND_ROWS = 1000
APPENDS_PER_COMPACT = 4
FAILED = object()
#: QueryStream numbers of one run.
WARM_STREAM, MODEL_STREAM, FIRST_PHASE_STREAM = 0, 1, 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # which pass function serves it
    codec: str
    cache_capacity: int
    verify_every: int


#: Why each workload is here is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # Every 9th: a stride of 10 would only ever land on group_count.
        Workload("hot_dense", "hot", "dense", 256, 9),
        Workload("hot_wah", "hot", "wah", 256, 1),
        Workload("hot_roaring", "hot", "roaring", 256, 1),
        Workload("restart_roaring", "restart", "roaring", 16, 1),
        Workload("ingest_wah", "ingest", "wah", 256, 1),
    )
}


def open_engine(bench: "Bench", cache_capacity: int | None = None):
    """``repro.open_store`` with the benchmark's fixed load shape."""
    if cache_capacity is None:
        cache_capacity = bench.spec.cache_capacity
    return repro.open_store(
        bench.root,
        codec=bench.spec.codec,
        cache_capacity=cache_capacity,
        backend="inline",
        max_workers=1,
    )


def engine_counts(engine) -> dict[str, int]:
    """The engine's cumulative cache and store counters."""
    cache, io = engine.cache.snapshot(), engine.storage.io_snapshot()
    return {
        "hits": cache["hits"],
        "misses": cache["misses"],
        "evictions": cache["evictions"],
        "payload_bytes": io["payload_bytes_read"],
        "bitmaps_materialized": io["bitmaps_materialized"],
        "pages_touched": io["pages_touched"],
    }


class Recorder:
    """Times one phase's operations, checks answers, keeps counts."""

    def __init__(self, bench: "Bench", stream: int, tracer: Tracer | None):
        self.bench = bench
        self.tracer = tracer
        self.stream = facts.QueryStream(bench.seed, stream)
        # One entry per timed operation, in order.
        self.labels: list[str] = []
        self.delta_pending: list[bool] = []
        self.seconds: list[float] = []
        self.roots: list[int] = []  # tracer query id; -1: untraced or not a query
        self.busy_s = 0.0
        self.passes = 0
        self.attempted = self.failed = self.verified = 0
        self.counts: Counter = Counter()
        self.bytes_cached = 0
        self.first_pass: Counter | None = None
        if tracer is None:
            self._run = facts.run_query
        else:

            def rooted(engine, query):
                with tracer.query(query.op):
                    return facts.run_query(engine, query)

            self._run = rooted

    def fail(self, what: str, problem) -> None:
        self.failed += 1
        print(f"FAILED [{self.bench.spec.name}] {what}: {problem}", file=sys.stderr)

    def timed(self, label: str, fn, *args, delta_pending: bool = False, what: str = ""):
        """Run one operation as the next sample.  A failure is counted and
        reported (as ``what``), never raised, so the rest of the run still
        happens."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            out = FAILED
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        self.labels.append(label)
        self.delta_pending.append(delta_pending)
        self.seconds.append(elapsed)
        self.roots.append(-1)
        if out is FAILED:
            self.fail(what or label, traceback.format_exc(limit=3))
        return out

    def serve(self, engine, query, delta_pending: bool = False) -> None:
        """One query: timed, counted, then checked untimed."""
        result = self.timed(
            query.op, self._run, engine, query,
            delta_pending=delta_pending, what=query.text,
        )  # fmt: skip
        if result is FAILED:
            return
        if self.tracer is not None:
            self.roots[-1] = self.tracer.queries - 1
        answer, stats = result
        self.counts["queries"] += 1
        self.counts["fetches"] += stats.scans + stats.buffer_hits
        self.counts["ops"] += stats.ops
        if isinstance(answer, np.ndarray):
            self.counts["rids"] += len(answer)
        if self.counts["queries"] % self.bench.spec.verify_every == 0:
            self.check(query, answer)

    def serve_round(self, engine, delta_pending: bool = False) -> None:
        for query in self.stream.next_round():
            self.serve(engine, query, delta_pending)

    def check(self, query, answer, what: str = "") -> None:
        self.verified += 1
        expected = facts.oracle(self.bench.columns, query)
        if not facts.answers_match(answer, expected):
            self.fail(what + query.text, "answer differs from the numpy oracle")

    @contextlib.contextmanager
    def counting(self, engine):
        """Add what ``engine``'s cache and store counters gain meanwhile."""
        before = engine_counts(engine)
        yield
        self.counts.update(engine_counts(engine))
        self.counts.subtract(before)
        self.bytes_cached = engine.cache.bytes_cached

    def end_pass(self) -> None:
        self.passes += 1
        if self.first_pass is None:
            with IndexStore(self.bench.root) as store:
                stored = store.total_bytes(RELATION)
            self.first_pass = Counter(
                self.counts,
                roots=self.tracer.queries if self.tracer is not None else 0,
                stored_bytes=stored,
                bytes_cached=self.bytes_cached,
                rows=len(self.bench.columns["u"]),
            )

    # -- reading the samples --------------------------------------------

    def where(self, *labels: str, delta_pending: bool | None = None) -> np.ndarray:
        """Indices of the samples with one of ``labels``."""
        return np.array(
            [
                i
                for i, label in enumerate(self.labels)
                if label in labels
                and delta_pending in (None, self.delta_pending[i])
            ],
            dtype=int,
        )

    def times(self, *labels: str) -> np.ndarray:
        return np.array(self.seconds)[self.where(*labels)]


class Bench:
    """One workload's inputs and the store and engine it is served from."""

    def __init__(self, spec: Workload, rows: int, seed: int, scratch: str):
        self.spec, self.rows, self.seed, self.scratch = spec, rows, seed, scratch
        self.append_rng = np.random.default_rng([seed, 6])
        self.columns: dict | None = None
        self.root: str | None = None
        self.engine = None
        self.base_bytes = 0  # the .rbix file as of the last build or compact
        self.setup_s = self.build_s = 0.0
        self.phases = 0

    # -- set-up ---------------------------------------------------------

    def set_up(self) -> None:
        """Generate, build, persist, open and warm up, once."""
        start = time.perf_counter()
        self.columns = facts.generate_columns(self.rows, self.seed)
        self.root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        built = time.perf_counter()
        facts.build_store(self.root, self.columns, self.spec.codec)
        self.build_s = time.perf_counter() - built
        self.warm_up()
        self.setup_s = time.perf_counter() - start
        with IndexStore(self.root) as store:
            self.base_bytes = store.total_bytes(RELATION)

    def warm_up(self) -> None:
        """Untimed rounds, served the workload's way."""
        stream = facts.QueryStream(self.seed, WARM_STREAM)
        if self.spec.kind == "restart":
            for _ in range(OTHER_WARM_ROUNDS):
                engine = open_engine(self)
                try:
                    for query in stream.next_round():
                        facts.run_query(engine, query)
                finally:
                    engine.close()
            return
        self.engine = open_engine(self)
        hot = self.spec.kind == "hot"
        for _ in range(HOT_WARM_ROUNDS if hot else OTHER_WARM_ROUNDS):
            for query in stream.next_round():
                facts.run_query(self.engine, query)

    def tear_down(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        if self.root is not None:
            shutil.rmtree(self.root)
            self.root = None

    # -- measured phases ------------------------------------------------

    def measure(self, seconds: float, tracer: Tracer | None = None) -> Recorder:
        """Whole passes until ``seconds`` of timed work have passed."""
        recorder = Recorder(self, FIRST_PHASE_STREAM + self.phases, tracer)
        self.phases += 1
        one_pass = PASSES[self.spec.kind]
        gc.collect()
        while recorder.busy_s < seconds:
            one_pass(self, recorder)
            recorder.end_pass()
        return recorder

    def check_durable(self, recorder: Recorder) -> None:
        """Close, reopen in a fresh engine, and check one more round."""
        self.engine.close()
        self.engine = open_engine(self)
        for query in recorder.stream.next_round():
            recorder.attempted += 1
            try:
                answer, _ = facts.run_query(self.engine, query)
            except Exception:
                recorder.fail(
                    f"after reopen: {query.text}", traceback.format_exc(limit=3)
                )
                continue
            recorder.check(query, answer, "after reopen: ")

    def scans_vs_model(self) -> float:
        """Cold single-predicate scans over the cost model's prediction."""
        stream = facts.QueryStream(self.seed, MODEL_STREAM)
        engine = open_engine(self, cache_capacity=0)
        try:
            view = engine.storage.relation_view(RELATION)
            actual = predicted = 0
            for _ in range(PASS_ROUNDS):
                point, _, _, _, group = stream.next_round()
                for attr, op, value in (
                    ("z", "=", point.consts[0]),
                    ("u", "<=", group.consts[0]),
                ):
                    _, base, encoding = facts.SCHEMA[attr]
                    column = view.column(attr)
                    code_op, code = column.code_bounds(op, value)
                    predicted += scans_for_predicate(
                        base, column.cardinality, code_op, code, encoding
                    )
                    actual += engine.query(f"{attr} {op} {value}").stats.scans
            return actual / predicted
        finally:
            engine.close()


def hot_pass(bench: Bench, rec: Recorder) -> None:
    with rec.counting(bench.engine):
        for _ in range(PASS_ROUNDS):
            rec.serve_round(bench.engine)


def restart_pass(bench: Bench, rec: Recorder) -> None:
    for _ in range(PASS_ROUNDS):
        engine = rec.timed("open", open_engine, bench)
        if engine is FAILED:
            continue
        try:
            with rec.counting(engine):
                rec.serve_round(engine)
        finally:
            rec.timed("close", engine.close)


def ingest_pass(bench: Bench, rec: Recorder) -> None:
    """APPENDS_PER_COMPACT times append and serve a round on base plus
    delta; then compact and serve one more."""
    engine, store = bench.engine, bench.engine.storage
    with rec.counting(engine):
        for _ in range(APPENDS_PER_COMPACT):
            batch = facts.append_batch(bench.columns, APPEND_ROWS, bench.append_rng)
            done = rec.timed("append", store.append, RELATION, batch)
            rec.timed("invalidate", engine.invalidate, RELATION)
            if done is not FAILED:
                bench.columns = {
                    name: np.concatenate([values, batch[name]])
                    for name, values in bench.columns.items()
                }
                rec.counts["user_bytes"] += sum(v.nbytes for v in batch.values())
                # An append rewrites the whole delta sidecar.
                rec.counts["written_bytes"] += (
                    store.total_bytes(RELATION) - bench.base_bytes
                )
            rec.serve_round(engine, delta_pending=True)
        done = rec.timed("compact", store.compact, RELATION)
        rec.timed("invalidate", engine.invalidate, RELATION)
        if done is not FAILED:
            bench.base_bytes = store.total_bytes(RELATION)
            rec.counts["written_bytes"] += bench.base_bytes
        rec.serve_round(engine)


PASSES = {"hot": hot_pass, "restart": restart_pass, "ingest": ingest_pass}

Metrics = dict[str, tuple[float, str]]


def percentile_ms(seconds: np.ndarray, q: float) -> tuple[float, str]:
    return (float(np.percentile(seconds, q)) * 1e3 if len(seconds) else 0.0), "ms"


def ratio(numerator: float, denominator: float, unit: str) -> tuple[float, str]:
    return (numerator / denominator if denominator else 0.0), unit


def end_to_end(bench: Bench, rec: Recorder) -> Metrics:
    first = rec.first_pass
    return {
        "setup_s": (bench.setup_s, "s"),
        "bytes_per_row": (first["stored_bytes"] / first["rows"], "B/row"),
    }


def timings(rec: Recorder) -> Metrics:
    """The wall-clock numbers of an untraced phase, pooled over its samples."""
    seconds = np.array(rec.seconds)
    # open_store call to the first (point) answer of each restart round
    opens = rec.where("open")
    answered = opens[[rec.labels[i + 1 : i + 2] == ["point"] for i in opens]]
    writes = rec.where("append", "compact")
    return {
        "qps": ratio(len(rec.where(*OPS)), rec.busy_s, "1/s"),
        **{f"{op}_p50_ms": percentile_ms(rec.times(op), 50) for op in OPS},
        "p95_ms": percentile_ms(rec.times(*OPS), 95),
        "first_answer_ms": percentile_ms(seconds[answered] + seconds[answered + 1], 50),
        "ingest_rows_per_s": ratio(
            len(rec.where("append")) * APPEND_ROWS, seconds[writes].sum(), "1/s"
        ),
    }


def per_layer(
    bench: Bench, rec: Recorder, untraced: Recorder, scans_vs_model: float
) -> Metrics:
    """Layer self times over all the traced phase's queries, its counts over
    its first pass, and the untraced phase's timings."""
    st = SelfTimes(rec.tracer)
    first = rec.first_pass
    first_roots = range(first["roots"])
    queries = len(rec.where(*OPS))
    delta_roots = np.array(rec.roots)[rec.where(*OPS, delta_pending=True)]

    def ms_per_query(layer: str, name: str | None = None) -> tuple[float, str]:
        return ratio(st.self_ms(layer, name), queries, "ms")

    def per_first_query(count: float, unit: str = "count") -> tuple[float, str]:
        return ratio(count, first["queries"], unit)

    return {
        **timings(untraced),
        "trace_overhead": ratio(
            percentile_ms(rec.times(*OPS), 50)[0],
            percentile_ms(untraced.times(*OPS), 50)[0],
            "ratio",
        ),
        "engine.root_ms_per_query": ratio(st.root_ms(), queries, "ms"),
        "engine.self_ms_per_query": ms_per_query(ROOT_LAYER),
        "engine.unattributed_share": ratio(
            st.self_ms(ROOT_LAYER), st.root_ms(), "share"
        ),
        "query.self_ms_per_query": ms_per_query("query"),
        "query.parse_calls_per_query": per_first_query(
            st.calls("query", "parse", first_roots)
        ),
        "core.evaluation.self_ms_per_query": ms_per_query("core.evaluation"),
        "core.evaluation.scans_per_query": per_first_query(first["fetches"]),
        "core.evaluation.ops_per_query": per_first_query(first["ops"]),
        "core.evaluation.scans_vs_model": (scans_vs_model, "ratio"),
        "bitmaps.kernel_ms_per_query": ms_per_query("bitmaps", "kernel"),
        "bitmaps.kernel_calls_per_query": per_first_query(
            st.calls("bitmaps", "kernel", first_roots)
        ),
        "bitmaps.materialize_ms_per_query": ms_per_query("bitmaps", "materialize"),
        "bitmaps.rids_per_query": per_first_query(first["rids"]),
        "engine.cache.get_ms_per_query": ms_per_query("engine.cache", "get"),
        "engine.cache.put_ms_per_query": ms_per_query("engine.cache", "put"),
        "engine.cache.hit_rate": ratio(
            first["hits"], first["hits"] + first["misses"], "share"
        ),
        "engine.cache.evictions_per_query": per_first_query(first["evictions"]),
        "engine.cache.bytes_cached": (first["bytes_cached"], "B"),
        "storage.store.open_ms": percentile_ms(rec.times("open"), 50),
        "storage.store.fetch_ms_per_query": ms_per_query("storage.store"),
        "storage.store.payload_bytes_per_query": per_first_query(
            first["payload_bytes"], "B"
        ),
        "storage.store.bitmaps_materialized_per_query": per_first_query(
            first["bitmaps_materialized"]
        ),
        "storage.store.pages_touched_per_query": per_first_query(
            first["pages_touched"]
        ),
        "storage.store.build_s": (bench.build_s, "s"),
        "storage.store.append_ms_p50": percentile_ms(rec.times("append"), 50),
        "storage.store.compact_s_p50": (
            percentile_ms(rec.times("compact"), 50)[0] / 1e3,
            "s",
        ),
        "storage.store.write_amp": ratio(
            first["written_bytes"], first["user_bytes"], "ratio"
        ),
        "storage.store.delta_fetch_ms_per_query": ratio(
            st.self_ms("storage.store", None, delta_roots), len(delta_roots), "ms"
        ),
    }
