"""A concurrent batch query engine over bitmap-indexed relations.

:class:`QueryEngine` is the serving layer the engine-free door of
:mod:`repro.query.executor` lacks: it keeps each registered relation as one
:class:`~repro.engine.registry.Registration` record with one entry per
served attribute (a :class:`~repro.engine.cache.CachedSource` over the
attribute's index, built once on first use, which routes every bitmap
fetch through one shared :class:`~repro.engine.cache.SharedBitmapCache`),
and evaluates queries — single or batched — on a thread pool.  A query holds the record it
resolved to the end, so it answers wholly from one registration.

:meth:`QueryEngine.query` is the unified entry point: it accepts an
:class:`~repro.query.predicate.AttributePredicate`, a boolean
:class:`~repro.query.expression.Expression` tree, or a textual expression
string, and always returns a :class:`~repro.query.executor.QueryResult`.
Whatever its form, a query is normalized to an expression tree (a
predicate is a one-leaf tree), resolved once by
:meth:`QueryEngine._dispatch_item` and run by the one pipeline of
:meth:`QueryEngine._execute`, every leaf's bitmap fetches routed through
the shared cache; :meth:`QueryEngine.count`,
:meth:`QueryEngine.group_count` and :meth:`QueryEngine.aggregate` are
the same pipeline with a different last step.  :meth:`QueryEngine.explain`
runs a query with tracing on and returns an
:class:`~repro.trace.ExplainReport` comparing the paper's cost-model
prediction against the observed counters.

Query evaluation does not verify by default — the serving path must not
pay a ground-truth scan per query; correctness is pinned by the
differential and concurrency test suites instead.  Pass
``QueryOptions(verify=True)`` to opt in.

Execution backends: an engine runs its batches on one of three pluggable
backends, chosen where it is built (``QueryEngine(backend=...)``) — a query
says what to answer, the engine how to run it.  ``inline`` evaluates
sequentially on the calling thread; ``threads`` uses one persistent
thread pool — enough when numpy releases the GIL, but CPU-bound batches
serialize on the interpreter;
``processes`` escapes the GIL by evaluating every batch across row-range
shards on one process pool.  Everything that exists only for that backend —
publication, retry, repair, degradation — is
:class:`~repro.engine.dispatch.ProcessDispatch`'s
(:mod:`repro.engine.dispatch`); this module hands it resolved queries and
runs the answers through the same tail as a locally evaluated one.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.bitmaps import bitmap_class
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.index import IndexSpec
from repro.engine.cache import CachedSource, SharedBitmapCache
from repro.engine.dispatch import DispatchItem, ProcessDispatch
from repro.engine.metrics import EngineMetrics, prom_family
from repro.engine.registry import Registration
from repro.engine.resilience import CircuitBreaker, RetryPolicy
from repro.engine.sharding import BACKENDS
from repro.errors import EmptyFoundsetError, EngineConfigError, QueryTimeoutError
from repro.faults import FaultPlan
from repro.query.executor import QueryResult, one_codec
from repro.query.expression import AGGREGATES, answer_count, query_mode, run_query, verify_answer
from repro.query.expression import Expression
from repro.query.options import DEFAULT_OPTIONS, QueryOptions, normalize_query
from repro.relation.relation import Relation
from repro.stats import ExecutionStats
from repro.storage.store import IndexStore
from repro.trace import ExplainReport, QueryTrace, build_explain_report


class _Query(NamedTuple):
    """A query as an entry point hands it on: what to answer, over which
    registration of a relation; :meth:`QueryEngine._dispatch_item` resolves it."""

    registration: Registration
    expression: Expression
    finish: str
    by: str | None

    def __str__(self) -> str:
        """How the query names itself in traces."""
        if self.finish == "rids":
            return str(self.expression)
        if self.by is None:
            return f"count({self.expression})"
        if self.finish == "group":
            return f"group_count({self.expression} by {self.by})"
        return f"{self.finish}({self.by} where {self.expression})"


def affine(dictionary: np.ndarray) -> tuple[int, int] | None:
    """``(lo, step)`` when an integer ``dictionary`` is ``lo + step·rank``
    (an empty one is, with any pair)."""
    if dictionary.dtype.kind not in "iu":
        return None
    if not len(dictionary):
        return 0, 1
    lo = int(dictionary[0])
    step = (int(dictionary[-1]) - lo) // max(len(dictionary) - 1, 1)
    if np.array_equal(dictionary, lo + step * np.arange(len(dictionary))):
        return lo, step
    return None


@dataclass
class AggregateResult:
    """A pushed-down aggregate answer: counts without RID materialization.

    ``count`` is the number of matching rows (for ``group_count`` and
    ``aggregate``, those whose column is not NULL when the index tracks
    nulls).  ``groups`` maps every dictionary value of the grouping
    column — including zero-count ones, so the shape is deterministic
    across backends and shard counts — to its matching-row count.
    ``value`` is the answer of ``aggregate``.
    """

    count: int
    groups: dict | None
    stats: ExecutionStats
    trace: QueryTrace | None = None
    value: object = None


class QueryEngine:
    """Serves queries over registered, bitmap-indexed relations.

    Parameters
    ----------
    cache_capacity:
        Bitmaps held by the shared LRU cache (0 disables caching).
    max_workers:
        Width of the engine's thread pool and of its process pool.
    storage:
        An :class:`~repro.storage.store.IndexStore` the engine closes with
        itself; no query reads it.  A registered store
        :meth:`~repro.storage.store.IndexStore.relation_view` serves its own
        image's bitmaps (:func:`repro.open_store` registers every one), and
        any other relation's indexes are built in memory from its columns.
    codec:
        The engine's default bitmap representation: ``'dense'``,
        ``'wah'``, or ``'roaring'``.  With a compressed codec fetches
        return that representation, the evaluators run in the compressed
        domain, and the shared cache holds compressed payloads (pair
        with ``cache_bytes`` — compressed entries are far smaller, so a
        byte budget is the honest capacity).  An attribute is served in
        its :attr:`IndexSpec.codec`, else the codec its bitmaps are stored
        in, else this one.
    cache_bytes:
        Optional byte budget for the shared cache (see
        :class:`~repro.engine.cache.SharedBitmapCache`).
    backend:
        Execution backend for queries: ``'inline'``, ``'threads'``
        (default), or ``'processes'``.
    shards:
        Row-range shard count for the process backend (``None`` =
        ``max_workers``).
    retry:
        :class:`~repro.engine.resilience.RetryPolicy` governing process-
        backend recovery (``None`` = the default policy: 2 retries,
        exponential backoff on a fixed, seeded jitter schedule).
    breaker:
        :class:`~repro.engine.resilience.CircuitBreaker` keyed by
        relation; an open circuit routes that relation's process-backend
        batches down the degradation ladder without touching the pool.
        ``None`` = the default breaker (3 consecutive failures open it).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` armed at the engine's
        injection seams (cache lookups, worker dispatch, shm attach) —
        the deterministic chaos harness.  Leave ``None`` in production.

    The engine holds at most one thread pool and one process pool, each
    ``max_workers`` wide, created lazily and kept for its lifetime; call
    :meth:`close` — or use the engine as a context manager — to shut them
    down and unlink shared-memory publications.  The process backend evaluates bitmaps in worker
    processes, so the shared cache does not apply to it (shard payloads
    are memory-resident by construction).
    """

    def __init__(
        self,
        *,
        cache_capacity: int = 256,
        max_workers: int = 4,
        storage: IndexStore | None = None,
        codec: str = "dense",
        cache_bytes: int | None = None,
        backend: str = "threads",
        shards: int | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        if max_workers < 1:
            raise EngineConfigError(f"max_workers must be >= 1, got {max_workers}")
        if storage is not None and not isinstance(storage, IndexStore):
            raise EngineConfigError(
                f"storage must be an IndexStore or None, got {type(storage).__name__}"
            )
        bitmap_class(codec)  # raises EngineConfigError for an unknown name
        if backend not in BACKENDS:
            raise EngineConfigError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if shards is not None and shards < 1:
            raise EngineConfigError(f"shards must be >= 1, got {shards}")
        self.max_workers = max_workers
        self.codec = codec
        self.backend = backend
        self.shards = shards
        self.cache = SharedBitmapCache(cache_capacity, byte_budget=cache_bytes)
        self.metrics = EngineMetrics()
        # name -> current record (the first is the default); ``_writing`` serializes writers.
        self._registrations: dict[str, Registration] = {}
        self._writing = threading.Lock()
        self.storage = storage
        self.retry_policy = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.fault_plan = fault_plan
        self._pool_lock = threading.Lock()
        self._threads: ThreadPoolExecutor | None = None
        self._dispatch = ProcessDispatch(self)
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Shut down worker pools and unlink shared-memory publications.

        Idempotent.  A closed engine still serves inline queries; batch
        entry points needing a pool raise
        :class:`~repro.errors.EngineConfigError`.
        """
        with self._pool_lock:
            already = self._closed
            self._closed = True
            pool, self._threads = self._threads, None
        if pool is not None:
            pool.shutdown(wait=wait)
        self._dispatch.close(wait)
        if already:
            return
        # The store holds open mmaps and reopens lazily, so closing here
        # is always safe.
        if self.storage is not None:
            self.storage.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close(wait=False)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        relation: Relation,
        *,
        attributes: list[str] | None = None,
        base: Base | None = None,
        encoding: EncodingScheme | None = None,
        components: int | None = None,
        overrides: dict[str, IndexSpec] | None = None,
    ) -> None:
        """Make a relation queryable through the engine.

        ``attributes`` restricts which columns are served (default: all).
        ``base``/``encoding``/``components`` configure every served
        attribute's index (see :class:`IndexSpec`); ``overrides`` replaces
        the spec for individual attributes.  Indexes are built lazily on
        first use — registration itself is cheap.  A store's view serves
        the design its image holds: asking for another raises
        :class:`~repro.errors.EngineConfigError` and registers nothing.

        Registering a name again writes a new record of it: attributes
        whose relation object and spec did not change keep their entries
        (and cached bitmaps); queries already running answer from the
        record they resolved.
        """
        if attributes is None:
            attributes = sorted(relation.columns)
        specs: dict[str, IndexSpec] = {}
        for attribute in attributes:
            relation.column(attribute)  # raise early on unknown columns
            specs[attribute] = IndexSpec(
                base=base, encoding=encoding, components=components
            )
        for attribute, spec in (overrides or {}).items():
            if attribute not in specs:
                raise EngineConfigError(
                    f"override for {attribute!r} which is not a served attribute"
                )
            specs[attribute] = spec
        for attribute, spec in specs.items():
            relation.check_spec(attribute, spec)
        with self._writing:
            self._write(Registration(relation, specs))

    def warm(self, relation: str | None = None) -> int:
        """Eagerly build every served entry; returns how many are resident."""
        names = list(self._registrations) if relation is None else [relation]
        for record in map(self.registration, names):
            for attribute in record.specs:
                self._source_for(record, attribute)
        return self._registry_snapshot()["indexes"]

    # ------------------------------------------------------------------
    # The unified query API
    # ------------------------------------------------------------------

    def query(
        self,
        query,
        relation: str | None = None,
        *,
        options: QueryOptions | None = None,
    ) -> QueryResult:
        """Evaluate one query through the cached bitmap path.

        ``query`` is any of the unified forms: an
        :class:`~repro.query.predicate.AttributePredicate`, a boolean
        :class:`~repro.query.expression.Expression` tree, or a textual
        expression string (parsed with the recursive-descent parser).
        All three normalize to an expression tree — a predicate is a
        one-leaf tree — whose leaf fetches all go through the shared
        cache.  With ``options=QueryOptions(trace=True)`` the recorded
        :class:`~repro.trace.QueryTrace` rides on ``result.trace``.
        """
        return self._run(query, "rids", None, self.registration(relation), options)

    def count(
        self,
        query,
        relation: str | None = None,
        *,
        options: QueryOptions | None = None,
    ) -> AggregateResult:
        """COUNT(*) of a selection, answered from popcounts alone.

        Accepts the same unified query forms as :meth:`query` but never
        materializes a RID list: the expression's result bitmap is
        popcounted in its native representation (a trace shows an
        ``aggregate.pushdown`` phase and **no** ``materialize`` phase).
        On the process backend each shard returns its local popcount and
        the merge is a summation.  Returns an :class:`AggregateResult`.
        """
        return self._run(query, "count", None, self.registration(relation), options)

    def group_count(
        self,
        query,
        by: str,
        relation: str | None = None,
        *,
        options: QueryOptions | None = None,
    ) -> AggregateResult:
        """Per-group COUNT(*) of a selection, grouped by column ``by``.

        For every dictionary value ``v`` of ``by``, the count is the
        popcount of ``expr AND bitmap(by = v)`` — computed in the bitmap
        domain with no RID materialization.  The equality bitmaps come
        through the same cached path as query leaves, and are null-masked
        when ``by``'s index tracks nulls, so NULL rows never land in any
        group (matching SQL ``GROUP BY`` semantics).  ``result.groups``
        maps each dictionary value (including zero-count ones) to its
        count; ``result.count`` is the sum over groups.
        """
        return self._run(query, "group", by, self.registration(relation), options)

    def aggregate(
        self,
        query,
        measure: str,
        fn: str,
        relation: str | None = None,
        *,
        options: QueryOptions | None = None,
    ) -> AggregateResult:
        """COUNT/SUM/AVG/MIN/MAX (``fn``) of column ``measure`` over a selection.

        Answered from ``measure``'s bitmaps over the selection less its
        NULL rows, building no RID; a SUM or AVG over a dictionary that is
        not :func:`affine` runs as ``group_count`` (one evaluation per
        value) and weighs the counts.  ``result.value`` is the answer;
        MIN, MAX or AVG over no rows raise :class:`~repro.errors.EmptyFoundsetError`.
        """
        if fn not in AGGREGATES:
            raise EngineConfigError(f"unknown aggregate {fn!r}; expected one of {AGGREGATES}")
        record = self.registration(relation)
        self._spec_for(record, measure)  # raises if ``measure`` is not served
        dictionary = record.relation.column(measure).dictionary
        if fn in ("sum", "avg") and affine(dictionary) is None:
            if not np.issubdtype(dictionary.dtype, np.number):
                raise EngineConfigError(f"{fn} of {measure!r} needs numbers: {dictionary.dtype}")
            result = self._run(query, "group", measure, record, options)
            result.groups, result.value = None, sum(k * n for k, n in result.groups.items())
        else:
            result = self._run(query, fn, measure, record, options)
        if result.count == 0 and fn in ("avg", "min", "max"):
            raise EmptyFoundsetError(f"{fn.upper()} over an empty selection")
        if fn == "avg":
            result.value /= result.count
        return result

    def _run(
        self,
        query,
        finish: str,
        by: str | None,
        record: Registration,
        options: QueryOptions | None,
    ) -> QueryResult | AggregateResult:
        """One query, one finish, over one registration, on the engine's backend."""
        options = options if options is not None else DEFAULT_OPTIONS
        query = _Query(record, normalize_query(query), finish, by)
        if by is not None:
            self._spec_for(record, by)  # raises if ``by`` is not served
        if self.backend == "processes":
            return self._process_batch([query], options)[0]
        return self._execute(query, options)

    def query_batch(
        self,
        queries: list,
        *,
        relation: str | None = None,
        options: QueryOptions | None = None,
    ) -> list[QueryResult]:
        """Evaluate a batch of queries, returning results in input order.

        Each item is a query in any unified form (against ``relation``,
        defaulting to the first registered one) or an explicit
        ``(relation_name, query)`` pair.  The engine's backend runs it:
        ``inline`` on the calling thread, one query after another (the
        sequential baseline); ``threads`` on the engine's persistent pool,
        ``max_workers`` wide; ``processes`` fans each query out across the
        relation's shards on the process pool.
        """
        options = options if options is not None else DEFAULT_OPTIONS
        batch: list[_Query] = []
        for item in queries:
            name, q = item if isinstance(item, tuple) else (relation, item)
            batch.append(_Query(self.registration(name), normalize_query(q), "rids", None))
        if self.backend == "processes":
            return self._process_batch(batch, options)
        return self._local_batch(batch, options)

    def _local_batch(
        self, batch: list[_Query], options: QueryOptions
    ) -> list[QueryResult | AggregateResult]:
        """Evaluate a batch on the thread pool (or inline).

        The thread/inline execution shared by :meth:`query_batch` and
        the process backend's degradation ladder (which lands on the
        thread pool).
        """
        if self.backend != "inline" and self.max_workers > 1 and len(batch) > 1:
            pool = self._thread_pool()
            futures = [
                pool.submit(self._execute, query, options, backend="threads") for query in batch
            ]
            return [future.result() for future in futures]
        return [self._execute(query, options) for query in batch]

    def explain(
        self,
        query,
        relation: str | None = None,
        *,
        options: QueryOptions | None = None,
    ) -> ExplainReport:
        """Run ``query`` with tracing on and report predicted vs. actual cost.

        The query executes for real (same cached path as :meth:`query`)
        but is *not* folded into the serving metrics, so EXPLAIN runs do
        not pollute an operator's dashboards.  The report compares the
        paper's cost model (:func:`repro.core.costmodel.scans_for_predicate`
        per leaf) with the observed counters: on a cold cache
        ``actual scans == predicted``; on a warm one
        ``scans + buffer_hits == predicted``.
        """
        options = options if options is not None else DEFAULT_OPTIONS
        options = options.with_(trace=True)
        query = _Query(self.registration(relation), normalize_query(query), "rids", None)
        result = self._execute(query, options, record=False)
        item = self._dispatch_item(query)  # what the run was served from, and in
        mode = query_mode(item.expression)
        # The counters of the relation's store (bytes actually read, bitmaps
        # materialized, page touches) next to the cost model's predictions.
        store = item.relation.store
        storage_io = store.io_snapshot() if store is not None else None
        return build_explain_report(
            item.relation,
            item.expression,
            item.served,
            result,
            mode=mode,
            bitmap_codec=item.codec,
            algorithm=options.algorithm,
            storage_io=storage_io,
            plan=f"cached-bitmap/{mode}",
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Engine-level metrics: queries, latency percentiles, cache, registry."""
        out = self.metrics.snapshot()
        out["cache"] = self.cache.snapshot()
        out["registry"] = self._registry_snapshot()
        out["breaker"] = self.breaker.snapshot()
        return out

    def snapshot_text(self) -> str:
        """The engine's metrics in the Prometheus text exposition format.

        Extends :meth:`EngineMetrics.snapshot_text` with cache and
        registry gauges (including the per-relation cache hit breakdown).
        """
        cache = self.cache.snapshot()
        registry = self._registry_snapshot()
        lines = [self.metrics.snapshot_text().rstrip("\n")]
        for name, help_text, value in (
            ("cache_entries", "Bitmaps resident in the shared cache.", cache["size"]),
            ("cache_bytes", "Bytes resident in the shared cache.", cache["bytes_cached"]),
            ("cache_hits_total", "Shared-cache hits.", cache["hits"]),
            ("cache_misses_total", "Shared-cache misses.", cache["misses"]),
            ("cache_evictions_total", "Shared-cache evictions.", cache["evictions"]),
            ("registry_indexes", "Bitmap indexes resident.", registry["indexes"]),
        ):
            kind = "counter" if name.endswith("_total") else "gauge"
            lines += prom_family(f"repro_{name}", help_text, [({}, value)], kind)
        for outcome in ("hits", "misses"):
            lines += prom_family(
                f"repro_relation_cache_{outcome}_total",
                f"Shared-cache {outcome} per relation.",
                [
                    ({"relation": group}, counters[outcome])
                    for group, counters in cache.get("groups", {}).items()
                ],
            )
        return "\n".join(lines) + "\n"

    def reset_metrics(self) -> None:
        """Zero the query metrics (cache contents and indexes survive)."""
        self.metrics.reset()

    def reset_cache(self) -> None:
        """Drop cached bitmaps and cache counters (indexes survive)."""
        self.cache.clear()

    def invalidate(self, relation: str | None = None, attribute: str | None = None) -> None:
        """Drop built indexes, cached bitmaps, and shard publications.

        ``relation`` narrows the drop to one relation (default: all
        registered); ``attribute`` to one attribute of it.  Each relation
        gets a new record that carries nothing of what is dropped, and the
        dropped entries' cached bitmaps are evicted.  The next query
        rebuilds what it reads.

        No correctness step needs this call; it only frees memory.
        :meth:`register` and :meth:`maintain` write a record of what
        changed, and a mutation of an index store's files, by any store or
        process, leaves a registered view's image behind the files on disk,
        which the next query catches up with (:meth:`registration`).
        """
        names = [self._resolve(relation)] if relation is not None else list(self._registrations)
        for name in names:
            with self._writing:
                old = self._registrations[name]
                dropped = old.specs if attribute is None else [attribute]
                self._write(Registration(old.relation.latest(), old.specs), dropped)

    def maintain(self, attribute: str, edit: Callable, relation: str | None = None) -> int:
        """Serve the successor ``edit(index)`` makes of one attribute's
        in-memory index; returns the bitmaps it touched.

        ``edit`` returns ``(successor, touched)``, as the index's
        ``append`` / ``update`` / ``delete`` do.  A new record serves the
        successor from a fresh entry and carries every other attribute's
        entry (and cached bitmaps), so a query already running sees all of
        the edit or none of it.  The relation's columns are not
        maintained: ``QueryOptions(verify=True)`` raises
        :class:`~repro.errors.VerificationError` where the edit changed an
        answer.  A store's view raises :class:`~repro.errors.EngineConfigError`
        (maintain it with :meth:`~repro.storage.store.IndexStore.append`).
        """
        with self._writing:
            record = self._registrations[self._resolve(relation)]
            if record.relation.store is not None:
                raise EngineConfigError(
                    f"relation {record.relation.name!r} is served from an index store; "
                    f"maintain it through the store (IndexStore.append)"
                )
            successor, touched = edit(self._source_for(record, attribute).source)
            new = Registration(record.relation, record.specs)
            new.entries[attribute] = self._serve(new, attribute, successor)
            self._write(new)
        return touched

    def _write(self, record: Registration, dropped=()) -> None:
        """Swap in ``record`` as its relation's current one, carrying the old
        record's counts and, as they are, its entries of the attributes
        ``record`` has none of, not ``dropped``, whose relation object and
        spec did not change.  The old record's other attributes are
        released: their shard exports and their entries' cached bitmaps are
        dropped, for memory only (no query reads another record).  The
        caller holds ``_writing``."""
        name = record.relation.name
        old = self._registrations.get(name)
        released = []
        if old is not None:
            record.builds, record.reuses = old.builds, old.reuses
            for attribute, spec in old.specs.items():
                if (
                    attribute in dropped
                    or attribute in record.entries
                    or record.specs.get(attribute) != spec
                    or old.relation is not record.relation
                ):
                    released.append(attribute)
                elif attribute in old.entries:
                    record.entries[attribute] = old.entries[attribute]
        self._registrations[name] = record
        for attribute in released:
            self._dispatch.drop(name, attribute)
        prefixes = [old.entries[a].prefix for a in released if a in old.entries]
        if prefixes:
            self.cache.drop_prefixes(prefixes)

    def _registry_snapshot(self) -> dict:
        """The current records' entries, builds and reuses."""
        records = list(self._registrations.values())
        return {
            "indexes": sum(len(record.entries) for record in records),
            "builds": sum(record.builds for record in records),
            "reuses": sum(record.reuses for record in records),
        }

    @property
    def relations(self) -> list[str]:
        return list(self._registrations)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _resolve(self, relation: str | None) -> str:
        if relation is None:
            if not self._registrations:
                raise EngineConfigError("no relation registered with the engine")
            return list(self._registrations)[0]
        if relation not in self._registrations:
            known = ", ".join(sorted(self._registrations)) or "<none>"
            raise EngineConfigError(
                f"relation {relation!r} is not registered; registered: {known}"
            )
        return relation

    def registration(self, relation: str | None = None) -> Registration:
        """The current record of ``relation`` (default: the first registered).

        Once a store moved past the image its relation view holds, a record
        of its ``latest()`` view, carrying nothing of the old one, is written
        here before a query resolves any of it, unless another writer
        replaced the record meanwhile."""
        name = self._resolve(relation)
        record = self._registrations[name]
        latest = record.relation.latest()
        if latest is not record.relation:
            with self._writing:
                if self._registrations[name] is record:
                    self._write(Registration(latest, record.specs))
        return self._registrations[name]

    @staticmethod
    def _spec_for(record: Registration, attribute: str) -> IndexSpec:
        try:
            return record.specs[attribute]
        except KeyError:
            raise EngineConfigError(
                f"attribute {attribute!r} of relation {record.relation.name!r} is not "
                f"served by the engine; served attributes: {', '.join(sorted(record.specs))}"
            ) from None

    def _source_for(self, record: Registration, attribute: str) -> CachedSource:
        """The entry of one attribute of ``record`` (one lookup a query),
        built on first use and kept with the record, so ``B_nn`` is read
        once per record.

        The record's relation hands out the source: a store's view the lazy
        source of its image, so only touched payloads are ever read; any
        other relation an index built from its column codes.
        """
        spec = self._spec_for(record, attribute)

        def build() -> CachedSource:
            source = record.relation.bitmap_source(attribute, spec)
            return self._serve(record, attribute, source)

        return record.entry(attribute, build)

    def _serve(self, record: Registration, attribute: str, source) -> CachedSource:
        """An entry of ``record`` over ``source``: served in the codec
        :meth:`_codec_for` gives, through the shared cache, under keys that
        carry the record's serial, so no two registrations share one."""
        codec = self._codec_for(record, attribute, source)
        prefix = (record.relation.name, attribute, record.serial, codec)
        return CachedSource(source, self.cache, prefix, lambda: self.fault_plan, codec)

    def _codec_for(self, record: Registration, attribute: str, source) -> str:
        """The codec ``source``, the attribute's, is served in: its spec's,
        else the one its bitmaps are stored in (serving the stored
        representation keeps fetches zero-copy), else the engine's."""
        codec = record.specs[attribute].codec
        return bitmap_class(codec or source.stored_codec or self.codec).codec

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------

    def _thread_pool(self) -> ThreadPoolExecutor:
        """The persistent thread pool, ``max_workers`` wide (lazy)."""
        with self._pool_lock:
            if self._closed:
                raise EngineConfigError("engine is closed")
            if self._threads is None:
                self._threads = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="repro-engine"
                )
            return self._threads

    def _process_batch(
        self, batch: list[_Query], options: QueryOptions
    ) -> list[QueryResult | AggregateResult]:
        """Evaluate a batch on the sharded process backend.

        :meth:`ProcessDispatch.run <repro.engine.dispatch.ProcessDispatch.run>`
        owns publication and the retry / repair / degrade ladder; ``None``
        back means "serve this batch locally" (breaker open, or retries
        spent).  A deadline miss is not retried: it surfaces as
        :class:`~repro.errors.QueryTimeoutError` immediately.
        """
        trace = QueryTrace(label="; ".join(map(str, batch))) if options.trace else None
        with self._accounted(lambda: trace):
            items = [self._dispatch_item(query) for query in batch]
            outcomes = self._dispatch.run(items, options)
        if outcomes is None:
            return self._local_batch(batch, options)
        results = []
        for query, item, outcome in zip(batch, items, outcomes):
            # A merged shard outcome enters the shared tail directly; its
            # trace opens here and replays what the dispatch did.
            stats, seconds = outcome.stats, outcome.latency_seconds
            with self._accounted(lambda: stats.trace):
                if options.trace:
                    stats.trace = QueryTrace(label=str(query))
                    self._dispatched(stats, item, "processes")
                    self._dispatch.replay(stats.trace, outcome, item)
                results.append(
                    self._finish(item, options, stats, outcome.answer, lambda: seconds, "processes")
                )
        return results

    def _dispatch_item(self, query: _Query) -> DispatchItem:
        """The one resolution of a query, for every backend and EXPLAIN (the
        process dispatch never reaches back into the engine)."""
        record, expression, finish, by = query
        served = {
            attribute: self._source_for(record, attribute)
            for attribute in sorted(expression.attributes() | ({by} if by else set()))
        }
        codec = one_codec({source.bitmap_codec for source in served.values()}, expression)
        return DispatchItem(record.relation, served, codec, expression, finish, by)

    # ------------------------------------------------------------------
    # The one execution pipeline
    # ------------------------------------------------------------------

    def _execute(
        self, query: _Query, options: QueryOptions, *, backend: str = "inline", record: bool = True
    ) -> QueryResult | AggregateResult:
        """Evaluate one query here — inline or on a pool thread.

        The record the options ask for (:meth:`QueryOptions.new_stats`) →
        resolve the query (:meth:`_dispatch_item`) → ``engine.dispatch``
        trace event → evaluate and finish on the served sources
        (:func:`~repro.query.expression.run_query`: ``rids`` materializes,
        ``count``/``group`` answer from popcounts under an
        ``aggregate.pushdown`` phase) → the shared tail, :meth:`_finish`.
        The backend is a strategy over this stage only: on the process
        backend the shard workers ran the same ``run_query`` and their
        merged outcome enters :meth:`_finish` directly.  ``record=False``
        keeps the run out of the serving metrics (EXPLAIN).
        """
        start = time.perf_counter()
        stats = options.new_stats(query)  # labelled only when traced
        with self._accounted(lambda: stats.trace, record):
            item = self._dispatch_item(query)
            self._dispatched(stats, item, backend)
            answer = run_query(
                item.relation,
                item.expression,
                item.served,
                stats,
                item.finish,
                item.by,
                algorithm=options.algorithm,
            )
            return self._finish(
                item, options, stats, answer, lambda: time.perf_counter() - start, backend, record
            )

    @staticmethod
    def _dispatched(stats: ExecutionStats, item: DispatchItem, backend: str) -> None:
        """Open a traced query with ``engine.dispatch``, labelled by the
        query's shape (:func:`~repro.query.expression.query_mode`), not
        the entry point."""
        if stats.trace is not None:
            stats.trace.event(
                "engine.dispatch",
                kind="plan",
                relation=item.relation.name,
                mode=query_mode(item.expression, item.finish),
                backend=backend,
                codec=item.codec,
                attributes=list(item.served),
            )

    def _finish(
        self,
        item: DispatchItem,
        options: QueryOptions,
        stats: ExecutionStats,
        answer,
        elapsed: Callable[[], float],
        backend: str,
        record: bool = True,
    ) -> QueryResult | AggregateResult:
        """The shared tail of every backend: verify → result → record.

        ``answer`` is what ``run_query`` returned for the item's finish —
        here, or merged across shard workers; ``elapsed`` reads the
        latency to record once the answer is verified and wrapped.
        """
        relation, expression, finish, by = item.relation, item.expression, item.finish, item.by
        if options.verify:
            verify_answer(relation, expression, finish, by, answer)
        trace = stats.trace
        if trace is not None:
            trace.finish()
        result: QueryResult | AggregateResult
        if finish == "rids":
            result = QueryResult(rids=answer, stats=stats, trace=trace)
        else:
            count, groups, value = answer_count(finish, answer), None, None
            dictionary = relation.column(by).dictionary if by is not None else None
            if finish == "group":
                groups = dict(zip(dictionary.tolist(), answer.tolist()))
            elif finish in ("min", "max"):
                value = dictionary[answer[1]].item()
            elif finish in ("sum", "avg"):  # the SUM; ``aggregate`` divides an AVG
                lo, step = affine(dictionary)
                value = lo * count + step * int(answer[1])
            elif by is not None:
                value = count
            result = AggregateResult(
                count=count, groups=groups, stats=stats, trace=trace, value=value
            )
        if record:
            self.metrics.record(
                elapsed(),
                stats,
                relation=relation.name,
                mode=query_mode(expression, finish),
                codec=item.codec,
                backend=backend,
            )
        return result

    @contextmanager
    def _accounted(self, trace_of: Callable[[], QueryTrace | None], record: bool = True):
        """Count a deadline miss or a failure on the way out of a stage.

        A deadline error also leaves with the partial trace the stage has
        by then (``trace_of()``; diagnosis aid), closed by
        ``deadline.exceeded``.
        """
        try:
            yield
        except QueryTimeoutError as exc:
            if record:
                self.metrics.record_timeout()
                self.metrics.record_failure()
            trace = trace_of()
            if trace is not None and exc.trace is None:
                trace.event("deadline.exceeded", kind="fault", error=str(exc))
                trace.finish()
                exc.trace = trace
            raise
        except Exception:
            if record:
                self.metrics.record_failure()
            raise
