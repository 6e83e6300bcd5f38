"""A concurrent batch query engine over bitmap-indexed relations.

:class:`QueryEngine` is the serving layer the single-shot executor of
:mod:`repro.query.executor` lacks: it registers relations once, builds each
attribute's :class:`~repro.core.index.BitmapIndex` lazily behind a
thread-safe :class:`~repro.engine.registry.IndexRegistry`, routes every
bitmap fetch through one shared :class:`~repro.engine.cache.SharedBitmapCache`,
and evaluates queries — single or batched — on a thread pool.

:meth:`QueryEngine.query` is the unified entry point: it accepts an
:class:`~repro.query.predicate.AttributePredicate`, a boolean
:class:`~repro.query.expression.Expression` tree, or a textual expression
string, and always returns a :class:`~repro.query.executor.QueryResult`.
Whatever its form, a query is normalized to an expression tree (a
predicate is a one-leaf tree) and runs the one pipeline of
:meth:`QueryEngine._execute`, every leaf's bitmap fetches routed through
the shared cache; :meth:`QueryEngine.count` and
:meth:`QueryEngine.group_count` are the same pipeline with a different
last step.  :meth:`QueryEngine.explain` runs a query with tracing on and
returns an :class:`~repro.trace.ExplainReport` comparing the paper's
cost-model prediction against the observed counters.

Query evaluation does not verify by default — the serving path must not
pay a ground-truth scan per query; correctness is pinned by the
differential and concurrency test suites instead.  Pass
``QueryOptions(verify=True)`` to opt in.

Execution backends: batches run on one of three pluggable backends
(``QueryEngine(backend=...)`` or per call via
:attr:`~repro.query.options.QueryOptions.backend`).  ``inline`` evaluates
sequentially on the calling thread; ``threads`` uses a persistent
thread pool — enough when numpy releases the GIL, but CPU-bound batches
serialize on the interpreter;
``processes`` escapes the GIL entirely by partitioning each relation into
row-range shards (:mod:`repro.engine.sharding`), publishing the shard
bitmaps to shared memory once, and evaluating every batch across a
persistent process pool, merging per-shard RIDs by offset concatenation.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from repro.bitmaps import bitmap_class
from repro.core.decomposition import Base, integer_nth_root_ceil
from repro.core.encoding import EncodingScheme
from repro.core.index import BitmapIndex
from repro.engine.cache import SharedBitmapCache
from repro.engine.metrics import EngineMetrics
from repro.engine.registry import IndexRegistry
from repro.engine.resilience import CircuitBreaker, RetryPolicy
from repro.engine.sharding import (
    BACKENDS,
    ProcessShardExecutor,
    ShardedBitmapIndex,
    ShardExport,
    ShardQueryOutcome,
    sweep_orphan_segments,
    translate_expression,
)
from repro.errors import (
    CorruptShardError,
    EngineConfigError,
    InjectedFaultError,
    QueryTimeoutError,
    ShmAttachError,
)
from repro.faults import Deadline, FaultPlan
from repro.query.executor import AccessPath, QueryResult
from repro.query.expression import query_mode, run_query, verify_answer
from repro.query.options import DEFAULT_OPTIONS, QueryOptions, normalize_query
from repro.relation.relation import Relation
from repro.stats import ExecutionStats
from repro.storage.store import IndexStore, StoreRelation
from repro.trace import ExplainReport, QueryTrace, build_explain_report

log = logging.getLogger("repro.engine")

#: Errors the process backend treats as *recoverable*: retry with
#: backoff, then degrade.  A deadline miss is deliberately absent —
#: retrying cannot un-spend a wall-clock budget.
_RECOVERABLE = (
    BrokenProcessPool,
    ShmAttachError,
    CorruptShardError,
    InjectedFaultError,
    OSError,
)


def _recovery_reason(exc: BaseException) -> str:
    """Metrics label for one recoverable dispatch failure."""
    if isinstance(exc, BrokenProcessPool):
        return "pool-broken"
    if isinstance(exc, ShmAttachError):
        return "shm-attach"
    if isinstance(exc, CorruptShardError):
        return "shard-corrupt"
    if isinstance(exc, InjectedFaultError):
        return "injected"
    return "os-error"


@dataclass(frozen=True)
class IndexSpec:
    """How to build the bitmap index of one registered attribute.

    ``base`` pins an exact decomposition (it must cover the attribute's
    cardinality).  ``components`` instead asks for the smallest uniform
    ``n``-component base for whatever the cardinality turns out to be —
    the right knob when one registration covers attributes of different
    cardinalities.  With neither, the single-component base ``<C>`` is
    used (the index default).  ``codec`` selects this attribute's bitmap
    representation (``'dense'``/``'wah'``/``'roaring'``); ``None`` defers
    to the engine's default.
    """

    base: Base | None = None
    encoding: EncodingScheme = EncodingScheme.RANGE
    components: int | None = None
    codec: str | None = None

    def resolve_base(self, cardinality: int) -> Base | None:
        if self.base is not None:
            return self.base
        if self.components is not None:
            b = integer_nth_root_ceil(cardinality, self.components)
            return Base.uniform(max(b, 2), cardinality)
        return None


def _label(item: tuple) -> str:
    """How a resolved query names itself in traces and error messages."""
    _, expression, finish, by = item
    if finish == "rids":
        return str(expression)
    if finish == "count":
        return f"count({expression})"
    return f"group_count({expression} by {by})"


def _attributes(expression, by: str | None) -> list[str]:
    """Every attribute a query reads: its leaves plus the grouping column."""
    return sorted(expression.attributes() | ({by} if by is not None else set()))


@dataclass
class AggregateResult:
    """A pushed-down aggregate answer: counts without RID materialization.

    ``count`` is the number of matching rows (for ``group_count`` it is
    the sum over groups, which excludes rows whose group column is NULL
    when the index tracks nulls).  ``groups`` maps every dictionary
    value of the grouping column — including zero-count ones, so the
    shape is deterministic across backends and shard counts — to its
    matching-row count; it is ``None`` for plain ``count``.
    """

    count: int
    groups: dict | None
    stats: ExecutionStats
    trace: QueryTrace | None = None


class _CachedSource:
    """Bitmap-source adapter routing one index's fetches through the cache.

    Implements the :class:`~repro.core.index.BitmapSource` protocol.  A hit
    costs no scan (it is charged as a ``buffer_hit``); a miss fetches from
    the wrapped index (which records the scan on the per-query stats) and
    publishes the bitmap to the shared cache.
    """

    __slots__ = ("_index", "_cache", "_prefix", "_faults")

    def __init__(
        self,
        index,
        cache: SharedBitmapCache,
        prefix: tuple,
        faults: FaultPlan | None = None,
    ):
        self._index = index  # already ``with_codec`` the codec to serve
        self._cache = cache
        self._prefix = prefix
        self._faults = faults

    @property
    def bitmap_codec(self) -> str:
        return self._index.bitmap_codec

    @property
    def nbits(self) -> int:
        return self._index.nbits

    @property
    def cardinality(self) -> int:
        return self._index.cardinality

    @property
    def base(self) -> Base:
        return self._index.base

    @property
    def encoding(self) -> EncodingScheme:
        return self._index.encoding

    @property
    def nonnull(self):
        return self._index.nonnull

    def fetch(self, component: int, slot: int, stats: ExecutionStats):
        if stats.deadline is not None:
            stats.deadline.check("fetch")
        key = self._prefix + (component, slot)
        bitmap = self._cache.get(key)
        if bitmap is not None and self._faults is not None:
            spec = self._faults.check(
                "cache.get", ident="/".join(str(part) for part in key)
            )
            if spec is not None:
                bitmap = None  # forced miss: refetch from the index
        if bitmap is not None:
            stats.buffer_hits += 1
            if stats.trace is not None:
                stats.trace.event(
                    "cache.hit",
                    kind="cache",
                    component=component,
                    slot=slot,
                    relation=self._prefix[0],
                    attribute=self._prefix[1],
                    codec=self.bitmap_codec,
                )
            return bitmap
        bitmap = self._index.fetch(component, slot, stats)
        self._cache.put(key, bitmap)
        return bitmap


class QueryEngine:
    """Serves queries over registered, bitmap-indexed relations.

    Parameters
    ----------
    cache_capacity:
        Bitmaps held by the shared LRU cache (0 disables caching).
    max_workers:
        Default thread-pool width for :meth:`query_batch`.
    storage:
        An :class:`~repro.storage.store.IndexStore` to serve persisted
        indexes straight off its mmap-backed files — register the store's
        :meth:`~repro.storage.store.IndexStore.relation_view` (or use
        :func:`repro.open_store`) and queries read only the bitmaps they
        touch.  ``None`` (the default) builds every index in memory from
        the registered relations' columns.
    codec:
        The engine's default bitmap representation: ``'dense'``,
        ``'wah'``, or ``'roaring'``.  With a compressed codec fetches
        return that representation, the evaluators run in the compressed
        domain, and the shared cache holds compressed payloads (pair
        with ``cache_bytes`` — compressed entries are far smaller, so a
        byte budget is the honest capacity).  Overridable per attribute
        via :attr:`IndexSpec.codec` and per query via
        :attr:`~repro.query.options.QueryOptions.codec`.
    cache_bytes:
        Optional byte budget for the shared cache (see
        :class:`~repro.engine.cache.SharedBitmapCache`).
    backend:
        Default execution backend for queries: ``'inline'``,
        ``'threads'`` (default), or ``'processes'``.  Overridable per
        query via :attr:`~repro.query.options.QueryOptions.backend`.
    shards:
        Default row-range shard count for the process backend (``None``
        = match the worker count of each batch).
    retry:
        :class:`~repro.engine.resilience.RetryPolicy` governing process-
        backend recovery (``None`` = the default policy: 2 retries,
        exponential backoff with seeded jitter).
    breaker:
        :class:`~repro.engine.resilience.CircuitBreaker` keyed by
        relation; an open circuit routes that relation's process-backend
        batches down the degradation ladder without touching the pool.
        ``None`` = the default breaker (3 consecutive failures open it).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` armed at the engine's
        injection seams (cache lookups, worker dispatch, shm attach) —
        the deterministic chaos harness.  Leave ``None`` in production.

    Worker pools (thread and process) are created lazily and persist for
    the engine's lifetime; call :meth:`close` — or use the engine as a
    context manager — to shut them down and unlink shared-memory
    publications.  The process backend evaluates bitmaps in worker
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
        self.registry = IndexRegistry()
        self.metrics = EngineMetrics()
        self._relations: dict[str, Relation] = {}
        self._specs: dict[str, dict[str, IndexSpec]] = {}
        self._default_relation: str | None = None
        self.storage = storage
        # relation -> the store generation its derived state was built at
        # (None throughout when serving from memory).
        self._generations: dict[str, int | None] = {}
        self.retry_policy = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.fault_plan = fault_plan
        self._pool_lock = threading.Lock()
        self._thread_pools: dict[int, ThreadPoolExecutor] = {}
        self._process_executors: dict[int, ProcessShardExecutor] = {}
        self._export_lock = threading.Lock()
        self._exports: dict[tuple, ShardExport] = {}
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
            thread_pools = list(self._thread_pools.values())
            self._thread_pools.clear()
            process_executors = list(self._process_executors.values())
            self._process_executors.clear()
        with self._export_lock:
            exports = list(self._exports.values())
            self._exports.clear()
        if already and not (thread_pools or process_executors or exports):
            return
        for pool in thread_pools:
            pool.shutdown(wait=wait)
        for executor in process_executors:
            executor.shutdown(wait=wait)
        for export in exports:
            export.close()
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
        encoding: EncodingScheme = EncodingScheme.RANGE,
        components: int | None = None,
        overrides: dict[str, IndexSpec] | None = None,
    ) -> None:
        """Make a relation queryable through the engine.

        ``attributes`` restricts which columns are served (default: all).
        ``base``/``encoding``/``components`` configure every served
        attribute's index (see :class:`IndexSpec`); ``overrides`` replaces
        the spec for individual attributes.  Indexes are built lazily on
        first use — registration itself is cheap.
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
        self._relations[relation.name] = relation
        self._specs[relation.name] = specs
        self._generations[relation.name] = self._generation(relation.name)
        if self._default_relation is None:
            self._default_relation = relation.name

    def warm(self, relation: str | None = None) -> int:
        """Eagerly build every served index; returns how many are resident."""
        names = list(self._relations) if relation is None else [relation]
        for name in map(self._current, names):
            for attribute in self._specs[name]:
                self._index_for(name, attribute)
        return len(self.registry)

    # ------------------------------------------------------------------
    # The unified query API
    # ------------------------------------------------------------------

    def query(
        self,
        query,
        relation: str | None = None,
        *,
        options: QueryOptions | None = None,
        trace: bool = False,
    ) -> QueryResult:
        """Evaluate one query through the cached bitmap path.

        ``query`` is any of the unified forms: an
        :class:`~repro.query.predicate.AttributePredicate`, a boolean
        :class:`~repro.query.expression.Expression` tree, or a textual
        expression string (parsed with the recursive-descent parser).
        All three normalize to an expression tree — a predicate is a
        one-leaf tree — whose leaf fetches all go through the shared
        cache.  ``trace=True`` is shorthand for
        ``options=QueryOptions(trace=True)``; the recorded
        :class:`~repro.trace.QueryTrace` rides on ``result.trace``.
        """
        return self._run(query, "rids", None, relation, options, trace)

    def count(
        self,
        query,
        relation: str | None = None,
        *,
        options: QueryOptions | None = None,
        trace: bool = False,
    ) -> AggregateResult:
        """COUNT(*) of a selection, answered from popcounts alone.

        Accepts the same unified query forms as :meth:`query` but never
        materializes a RID list: the expression's result bitmap is
        popcounted in its native representation (a trace shows an
        ``aggregate.pushdown`` phase and **no** ``materialize`` phase).
        On the process backend each shard returns its local popcount and
        the merge is a summation.  Returns an :class:`AggregateResult`.
        """
        return self._run(query, "count", None, relation, options, trace)

    def group_count(
        self,
        query,
        by: str,
        relation: str | None = None,
        *,
        options: QueryOptions | None = None,
        trace: bool = False,
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
        return self._run(query, "group", by, relation, options, trace)

    def _run(
        self,
        query,
        finish: str,
        by: str | None,
        relation: str | None,
        options: QueryOptions | None,
        trace: bool,
    ) -> QueryResult | AggregateResult:
        """One query, one finish, on the backend the options select."""
        options = options if options is not None else DEFAULT_OPTIONS
        if trace and not options.trace:
            options = options.with_(trace=True)
        name = self._current(relation)
        item = (name, normalize_query(query), finish, by)
        if by is not None:
            self._spec_for(name, by)  # raises if ``by`` is not served
        if self._backend_for(options) == "processes":
            workers = options.workers or self.max_workers
            return self._process_batch([item], options, workers)[0]
        return self._execute(item, options)

    def query_batch(
        self,
        queries: list,
        *,
        workers: int | None = None,
        relation: str | None = None,
        options: QueryOptions | None = None,
    ) -> list[QueryResult]:
        """Evaluate a batch of queries, returning results in input order.

        Each item is a query in any unified form (against ``relation``,
        defaulting to the first registered one) or an explicit
        ``(relation_name, query)`` pair.  ``workers=1`` runs the batch
        inline on the calling thread — the sequential baseline;
        ``options.workers`` supplies the width when ``workers`` is not
        passed.  The execution backend comes from ``options.backend``
        (falling back to the engine's configured default): ``threads``
        reuses the engine's persistent pool of the requested width;
        ``processes`` fans each query out across the relation's shards on
        the process pool.
        """
        options = options if options is not None else DEFAULT_OPTIONS
        resolved: list[tuple] = []
        for item in queries:
            name, q = item if isinstance(item, tuple) else (relation, item)
            resolved.append((self._current(name), normalize_query(q), "rids", None))
        if workers is None:
            workers = options.workers
        if workers is None:
            workers = self.max_workers
        if workers < 1:
            raise EngineConfigError(f"workers must be >= 1, got {workers}")
        backend = self._backend_for(options)

        if backend == "processes":
            return self._process_batch(resolved, options, workers)
        if backend == "inline":
            workers = 1
        return self._local_batch(resolved, options, workers)

    def _local_batch(
        self,
        resolved: list[tuple],
        options: QueryOptions,
        workers: int,
    ) -> list[QueryResult | AggregateResult]:
        """Evaluate a resolved batch on the thread pool (or inline).

        The thread/inline execution shared by :meth:`query_batch` and
        the process backend's degradation ladder.  ``resolved`` holds
        ``(relation_name, expression, finish, by)`` items.
        """
        if workers > 1 and len(resolved) > 1:
            pool = self._thread_pool(workers)
            futures = [
                pool.submit(self._execute, item, options, backend="threads")
                for item in resolved
            ]
            return [future.result() for future in futures]
        return [self._execute(item, options) for item in resolved]

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
        name = self._current(relation)
        q = normalize_query(query)
        result = self._execute((name, q, "rids", None), options, record=False)
        mode = query_mode(q)
        sources = {
            attribute: self._index_for(name, attribute)
            for attribute in q.attributes()
        }
        # The store's cumulative counters (bytes actually read, bitmaps
        # materialized, page touches) next to the cost model's predictions.
        storage_io = self.storage.io_snapshot() if self.storage is not None else None
        return build_explain_report(
            self._relations[name],
            q,
            sources,
            result,
            mode=mode,
            bitmap_codec=self.codec,
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
        out["registry"] = self.registry.snapshot()
        out["breaker"] = self.breaker.snapshot()
        return out

    def snapshot_text(self) -> str:
        """The engine's metrics in the Prometheus text exposition format.

        Extends :meth:`EngineMetrics.snapshot_text` with cache and
        registry gauges (including the per-relation cache hit breakdown).
        """
        cache = self.cache.snapshot()
        registry = self.registry.snapshot()
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
            lines += [
                f"# HELP repro_{name} {help_text}",
                f"# TYPE repro_{name} {kind}",
                f"repro_{name} {value}",
            ]
        lines += [
            "# HELP repro_relation_cache_hits_total Shared-cache hits per relation.",
            "# TYPE repro_relation_cache_hits_total counter",
        ]
        for group, counters in cache.get("groups", {}).items():
            lines.append(
                f'repro_relation_cache_hits_total{{relation="{group}"}} '
                f"{counters['hits']}"
            )
        lines += [
            "# HELP repro_relation_cache_misses_total Shared-cache misses per relation.",
            "# TYPE repro_relation_cache_misses_total counter",
        ]
        for group, counters in cache.get("groups", {}).items():
            lines.append(
                f'repro_relation_cache_misses_total{{relation="{group}"}} '
                f"{counters['misses']}"
            )
        return "\n".join(lines) + "\n"

    def reset_metrics(self) -> None:
        """Zero the query metrics (cache contents and indexes survive)."""
        self.metrics.reset()

    def reset_cache(self) -> None:
        """Drop cached bitmaps and cache counters (indexes survive)."""
        self.cache.clear()

    def invalidate(
        self, relation: str | None = None, attribute: str | None = None
    ) -> None:
        """Drop built indexes, cached bitmaps, and shard publications.

        Call after mutating a registered relation's underlying data so
        later queries rebuild against the new contents.  ``relation``
        narrows the drop to one relation (default: all registered);
        ``attribute`` to one attribute of it.  Cached bitmaps are evicted
        per relation (the cache groups by relation, not attribute).

        Mutations made *through the index store* (its
        ``build`` / ``append`` / ``compact`` / ``quarantine``) do not need
        this call: the store's generation moves and the next query drops
        the relation's derived state by itself.
        """
        names = (
            [self._resolve(relation)] if relation is not None else list(self._relations)
        )
        for name in names:
            attributes = (
                [attribute]
                if attribute is not None
                else list(self._specs.get(name, ()))
            )
            for attr in attributes:
                self.registry.pop((name, attr))
                for key in self.registry.keys():
                    if (
                        isinstance(key, tuple)
                        and len(key) == 4
                        and key[:3] == (name, attr, "shards")
                    ):
                        self.registry.pop(key)
            with self._export_lock:
                doomed = [
                    key
                    for key in self._exports
                    if key[0] == name
                    and (attribute is None or key[1] == attribute)
                ]
                closing = [self._exports.pop(key) for key in doomed]
            for export in closing:
                export.close()
            self.cache.drop_group(name)
            if attribute is None:
                self._generations[name] = self._generation(name)
                view = isinstance(self._relations[name], StoreRelation)
                if view and self.storage.has(name):
                    self._relations[name] = self.storage.relation_view(name)

    @property
    def relations(self) -> list[str]:
        return list(self._relations)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _resolve(self, relation: str | None) -> str:
        if relation is None:
            if self._default_relation is None:
                raise EngineConfigError("no relation registered with the engine")
            return self._default_relation
        if relation not in self._relations:
            known = ", ".join(sorted(self._relations)) or "<none>"
            raise EngineConfigError(
                f"relation {relation!r} is not registered; registered: {known}"
            )
        return relation

    def _generation(self, name: str) -> int | None:
        return self.storage.generation(name) if self.storage is not None else None

    def _current(self, relation: str | None) -> str:
        """:meth:`_resolve`, then catch up with the index store.

        A store mutated since this engine last looked has moved to a new
        generation; everything derived from the old one — memoized
        sources, cached bitmaps, shard exports, the relation view — is
        dropped here, before the query resolves any of it.
        """
        name = self._resolve(relation)
        if self._generation(name) != self._generations[name]:
            self.invalidate(name)
        return name

    def _spec_for(self, relation_name: str, attribute: str) -> IndexSpec:
        try:
            return self._specs[relation_name][attribute]
        except KeyError:
            served = ", ".join(sorted(self._specs.get(relation_name, ())))
            raise EngineConfigError(
                f"attribute {attribute!r} of relation {relation_name!r} is not "
                f"served by the engine; served attributes: {served}"
            ) from None

    def _index_for(self, relation_name: str, attribute: str):
        """The bitmap source of one attribute: persisted or built in memory.

        A store that holds the attribute wins — its lazy source is
        registered in place of an in-memory index, so only touched
        payloads are ever read.  Otherwise the index is built from the
        relation's raw column codes.
        """
        spec = self._spec_for(relation_name, attribute)
        relation = self._relations[relation_name]
        storage = self.storage

        def build():
            if storage is not None:
                source = storage.bitmap_source(relation_name, attribute)
                if source is not None:
                    return source
            column = relation.column(attribute)
            if column.codes is None:
                raise EngineConfigError(
                    f"attribute {attribute!r} of relation {relation_name!r} "
                    f"has no raw values to index and the store holds no "
                    f"persisted bitmaps for it"
                )
            return BitmapIndex(
                column.codes,
                cardinality=column.cardinality,
                base=spec.resolve_base(column.cardinality),
                encoding=spec.encoding,
                keep_values=False,
            )

        return self.registry.get_or_build((relation_name, attribute), build)

    def _codec_for(
        self,
        relation_name: str,
        attribute: str,
        options: QueryOptions,
        stored: str | None = None,
    ) -> str:
        """Resolve the serving codec.

        Precedence: query override > index spec > the codec the bitmaps
        are persisted in (store-backed sources only — serving the stored
        representation keeps fetches zero-copy/zero-recode) > engine
        default.
        """
        codec = options.codec
        if codec is None:
            spec = self._specs.get(relation_name, {}).get(attribute)
            codec = spec.codec if spec is not None else None
        if codec is None:
            codec = stored
        if codec is None:
            codec = self.codec
        return bitmap_class(codec).codec

    def _source_for(
        self,
        relation_name: str,
        attribute: str,
        options: QueryOptions = DEFAULT_OPTIONS,
    ) -> _CachedSource:
        """The cache-routed bitmap source of one served attribute."""
        index = self._index_for(relation_name, attribute)
        codec = self._codec_for(
            relation_name,
            attribute,
            options,
            stored=getattr(index, "stored_codec", None),
        )
        prefix = (relation_name, attribute)
        if codec != "dense":
            # Entries of different representations for the same slot must
            # not collide in the shared cache.
            prefix += (codec,)
        return _CachedSource(
            index.with_codec(codec),
            self.cache,
            prefix,
            faults=self.fault_plan,
        )

    # ------------------------------------------------------------------
    # Worker pools and the process backend
    # ------------------------------------------------------------------

    def _backend_for(self, options: QueryOptions) -> str:
        backend = options.backend if options.backend is not None else self.backend
        if backend not in BACKENDS:
            raise EngineConfigError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        return backend

    def _thread_pool(self, workers: int) -> ThreadPoolExecutor:
        """The persistent thread pool of the requested width (lazy)."""
        with self._pool_lock:
            if self._closed:
                raise EngineConfigError("engine is closed")
            pool = self._thread_pools.get(workers)
            if pool is None:
                pool = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix=f"repro-engine-{workers}",
                )
                self._thread_pools[workers] = pool
            return pool

    def _process_executor(self, workers: int) -> ProcessShardExecutor:
        """The persistent process executor of the requested width (lazy)."""
        with self._pool_lock:
            if self._closed:
                raise EngineConfigError("engine is closed")
            executor = self._process_executors.get(workers)
            if executor is None:
                # Reclaim segments a previous (crashed) publisher left in
                # /dev/shm before committing new ones of our own.
                sweep_orphan_segments()
                executor = ProcessShardExecutor(workers)
                self._process_executors[workers] = executor
            return executor

    def _discard_process_executor(self, workers: int) -> None:
        """Tear down a broken process executor so the next dispatch
        rebuilds it from scratch."""
        with self._pool_lock:
            executor = self._process_executors.pop(workers, None)
        if executor is not None:
            executor.shutdown(wait=False)

    def _drop_exports(self, relations: set[str]) -> None:
        """Unlink the shard publications of the given relations.

        The sharded indexes themselves survive in the registry, so the
        next dispatch re-exports from source — the rebuild path for a
        torn or corrupt publication.
        """
        with self._export_lock:
            doomed = [key for key in self._exports if key[0] in relations]
            closing = [self._exports.pop(key) for key in doomed]
        for export in closing:
            export.close()

    def _sharded_index_for(
        self, relation_name: str, attribute: str, shards: int
    ) -> ShardedBitmapIndex:
        """The row-range-sharded index of one attribute (built once)."""
        spec = self._spec_for(relation_name, attribute)
        relation = self._relations[relation_name]

        def build() -> ShardedBitmapIndex:
            column = relation.column(attribute)
            if column.codes is None:
                raise EngineConfigError(
                    f"the process backend shards raw column codes, which "
                    f"store-backed relation {relation_name!r} does not "
                    f"carry; use the inline or thread backend"
                )
            return ShardedBitmapIndex(
                column.codes,
                cardinality=column.cardinality,
                shards=shards,
                base=spec.resolve_base(column.cardinality),
                encoding=spec.encoding,
                keep_values=False,
            )

        return self.registry.get_or_build(
            (relation_name, attribute, "shards", shards), build
        )

    def _export_for(
        self, relation_name: str, attribute: str, codec: str, shards: int
    ) -> ShardExport:
        """The current shared-memory publication of one sharded index.

        Re-exports (and unlinks the stale blocks) when maintenance has
        bumped the sharded index's version since the last publication.
        """
        sharded = self._sharded_index_for(relation_name, attribute, shards)
        key = (relation_name, attribute, codec, shards)
        stale = None
        with self._export_lock:
            export = self._exports.get(key)
            if export is not None and export.version == sharded.version:
                return export
            stale = export
            export = ShardExport(sharded, codec)
            self._exports[key] = export
        if stale is not None:
            stale.close()
        return export

    def _process_batch(
        self,
        resolved: list[tuple],
        options: QueryOptions,
        workers: int,
    ) -> list[QueryResult | AggregateResult]:
        """Evaluate a resolved batch on the sharded process backend.

        The resilient wrapper around :meth:`_process_batch_once`: a
        relation whose circuit breaker is open skips the pool entirely;
        recoverable dispatch failures (broken pool, vanished or corrupt
        shm publication, injected faults) are repaired — pool rebuilt,
        orphan segments swept, publications re-exported from source —
        and retried under the engine's :class:`RetryPolicy`; exhausted
        retries degrade the batch to the thread backend.  Every retry,
        degradation, and corruption lands in the metrics, and (when
        tracing) as ``fault`` events on each result's trace.  A deadline
        miss is not retried: it surfaces as
        :class:`~repro.errors.QueryTimeoutError` immediately.  Each
        merged shard outcome then runs the verify/record tail of
        :meth:`_execute`, like a locally evaluated answer.
        """
        shards = options.shards or self.shards or workers
        if shards < 1:
            raise EngineConfigError(f"shards must be >= 1, got {shards}")
        relations = {item[0] for item in resolved}
        blocked = sorted(
            name for name in relations if not self.breaker.allow(f"relation:{name}")
        )
        if blocked:
            self.metrics.record_degradation("processes", "threads", "breaker-open")
            log.warning(
                "process backend breaker open for %s; serving batch on threads",
                ", ".join(blocked),
            )
            return self._local_batch(resolved, options, workers)
        deadline = (
            Deadline(options.deadline_ms)
            if options.deadline_ms is not None
            else None
        )
        retries: list[dict] = []
        delays = self.retry_policy.delays()
        while True:
            try:
                outcomes = self._process_batch_once(
                    resolved, options, workers, shards, deadline
                )
                break
            except QueryTimeoutError as exc:
                self.metrics.record_timeout()
                self.metrics.record_failure()
                if options.trace:
                    label = "; ".join(map(_label, resolved))
                    self._attach_timeout_trace(exc, QueryTrace(label=label))
                raise
            except _RECOVERABLE as exc:
                reason = _recovery_reason(exc)
                self._repair_after(exc, workers, relations)
                delay = next(delays, None)
                if delay is None:
                    for name in sorted(relations):
                        self.breaker.record_failure(f"relation:{name}")
                    self.metrics.record_degradation(
                        "processes", "threads", "retries-exhausted"
                    )
                    log.warning(
                        "process backend gave up after %d retries (%s: %s); "
                        "serving batch on threads",
                        len(retries),
                        reason,
                        exc,
                    )
                    return self._local_batch(resolved, options, workers)
                self.metrics.record_retry(reason)
                retries.append(
                    {"attempt": len(retries) + 1, "reason": reason, "error": str(exc)}
                )
                log.warning(
                    "process backend dispatch failed (%s: %s); retry %d in "
                    "%.0f ms",
                    reason,
                    exc,
                    len(retries),
                    1e3 * delay,
                )
                if delay > 0:
                    time.sleep(delay)
            except Exception:
                self.metrics.record_failure()
                raise
        for name in sorted(relations):
            self.breaker.record_success(f"relation:{name}")
        return [
            self._execute(
                item,
                options,
                backend="processes",
                outcome=outcome,
                retries=retries,
            )
            for item, outcome in zip(resolved, outcomes)
        ]

    def _repair_after(
        self, exc: BaseException, workers: int, relations: set[str]
    ) -> None:
        """Fix what one recoverable dispatch failure broke.

        A broken pool (or raw OSError) is torn down and orphaned shm
        segments swept; a vanished or corrupt publication is dropped so
        the retry re-exports from the in-memory sharded index.
        """
        if isinstance(exc, (BrokenProcessPool, OSError)):
            self._discard_process_executor(workers)
            sweep_orphan_segments()
        if isinstance(exc, (ShmAttachError, CorruptShardError)):
            if isinstance(exc, CorruptShardError):
                self.metrics.record_corruption("shm")
            self._drop_exports(relations)

    def _process_batch_once(
        self,
        resolved: list[tuple],
        options: QueryOptions,
        workers: int,
        shards: int,
        deadline: Deadline | None,
    ) -> list[ShardQueryOutcome]:
        """One dispatch attempt of a resolved batch on the process pool."""
        executor = self._process_executor(workers)
        # Translate every query to the code domain and publish the
        # sharded indexes its attributes need.  Relations of
        # different sizes may clamp to different effective shard
        # counts, so items are grouped by their relation's effective
        # count and dispatched per group.
        exports: dict[tuple, ShardExport] = {}
        groups: dict[int, list] = {}
        for qid, item in enumerate(resolved):
            name, expression, finish, by = item
            attributes = _attributes(expression, by)
            codec = self._one_codec(
                {self._codec_for(name, attr, options) for attr in attributes},
                item,
            )
            for attr in attributes:
                if (name, attr) not in exports:
                    exports[(name, attr)] = self._export_for(
                        name, attr, codec, shards
                    )
            code_expression = translate_expression(
                expression, self._relations[name]
            )
            payload = (finish, tuple(attributes), code_expression, by)
            count = exports[(name, attributes[0])].num_shards
            groups.setdefault(count, []).append((qid, name, payload))
        outcomes: list = [None] * len(resolved)
        for count, group_items in groups.items():
            needed = {
                key: export
                for key, export in exports.items()
                if export.num_shards == count
            }
            group_outcomes = executor.run_batch(
                needed,
                group_items,
                algorithm=options.algorithm,
                fault_plan=self.fault_plan,
                deadline=deadline,
            )
            for (qid, _, _), outcome in zip(group_items, group_outcomes):
                outcomes[qid] = outcome
        return outcomes

    @staticmethod
    def _one_codec(codecs: set[str], item: tuple) -> str:
        """The single codec a query runs over.

        Bitmaps of different representations cannot be combined; fail
        with a configuration error instead of a downstream algebra
        TypeError.
        """
        if len(codecs) > 1:
            raise EngineConfigError(
                f"'{_label(item)}' mixes bitmap codecs {sorted(codecs)}; "
                f"give its attributes one codec (per-query options.codec "
                f"overrides every spec)"
            )
        (codec,) = codecs
        return codec

    def _execute(
        self,
        item: tuple,
        options: QueryOptions,
        *,
        backend: str = "inline",
        record: bool = True,
        outcome: ShardQueryOutcome | None = None,
        retries: list[dict] | tuple = (),
    ) -> QueryResult | AggregateResult:
        """The one execution pipeline of every entry point and backend.

        ``item`` is ``(relation_name, expression, finish, by)``.  The
        stages are: resolve the cache-routed sources and their one codec
        → ``engine.dispatch`` trace event → evaluate and finish
        (:func:`~repro.query.expression.run_query`: ``rids``
        materializes, ``count``/``group`` answer from popcounts under an
        ``aggregate.pushdown`` phase) → verify → build the result →
        ``metrics.record``, with deadline misses and failures counted on
        the way out.  The backend is a strategy over the evaluate stage
        only: inline and on a pool thread it runs here; on the process
        backend the shard workers already ran the same ``run_query`` and
        ``outcome`` carries their merged answer, stats and timings (plus
        the dispatch ``retries`` to replay onto the trace).  Metric and
        trace labels derive from the query's shape
        (:func:`~repro.query.expression.query_mode`), not from the entry
        point.  ``record=False`` keeps the run out of the serving
        metrics (EXPLAIN).
        """
        name, expression, finish, by = item
        start = time.perf_counter()
        relation = self._relations[name]
        mode = query_mode(expression, finish)
        access_path = "bitmap" if mode == "predicate" else mode
        trace = None
        try:
            attributes = _attributes(expression, by)
            if outcome is None:
                stats = ExecutionStats()
                if options.deadline_ms is not None:
                    stats.deadline = Deadline(options.deadline_ms)
                sources = {
                    attr: self._source_for(name, attr, options)
                    for attr in attributes
                }
                codecs = {source.bitmap_codec for source in sources.values()}
            else:
                stats = outcome.stats
                codecs = {
                    self._codec_for(name, attr, options) for attr in attributes
                }
            codec = self._one_codec(codecs, item)
            if options.trace:
                trace = stats.trace = QueryTrace(label=_label(item))
                trace.event(
                    "engine.dispatch",
                    kind="plan",
                    relation=name,
                    mode=mode,
                    access_path=access_path,
                    backend=backend,
                    codec=codec,
                    attributes=attributes,
                )
            if outcome is None:
                answer = run_query(
                    relation,
                    expression,
                    sources,
                    stats,
                    finish,
                    by,
                    algorithm=options.algorithm,
                )
            else:
                answer = outcome.answer
                if trace is not None:
                    self._trace_shards(trace, outcome, retries, finish, by)
            if options.verify:
                verify_answer(relation, expression, finish, by, answer)
            if trace is not None:
                trace.finish()
        except QueryTimeoutError as exc:
            if record:
                self.metrics.record_timeout()
                self.metrics.record_failure()
            self._attach_timeout_trace(exc, trace)
            raise
        except Exception:
            if record:
                self.metrics.record_failure()
            raise
        result: QueryResult | AggregateResult
        if finish == "rids":
            result = QueryResult(
                rids=answer, access_path=AccessPath.BITMAP, stats=stats, trace=trace
            )
        else:
            groups = None
            if finish == "group":
                dictionary = relation.column(by).dictionary
                groups = dict(zip(dictionary.tolist(), answer.tolist()))
            result = AggregateResult(
                count=int(np.sum(answer)), groups=groups, stats=stats, trace=trace
            )
        if record:
            self.metrics.record(
                outcome.latency_seconds
                if outcome is not None
                else time.perf_counter() - start,
                stats,
                relation=name,
                access_path=access_path,
                codec=codec,
                backend=backend,
            )
        return result

    @staticmethod
    def _trace_shards(
        trace: QueryTrace,
        outcome: ShardQueryOutcome,
        retries,
        finish: str,
        by: str | None,
    ) -> None:
        """Replay a process dispatch onto the parent-side trace.

        The work happened in worker processes, so what the trace shows
        is every dispatch retry, one worker-timed ``shard.evaluate``
        span per shard, and — for an aggregate — the pushdown: shards
        returned popcounts, the merge was a summation, and no
        materialize phase ever ran.
        """
        for event in retries:
            trace.event("dispatch.retry", kind="fault", **event)
        for shard, (rows, seconds, shard_stats) in enumerate(
            zip(outcome.shard_rows, outcome.shard_seconds, outcome.shard_stats)
        ):
            trace.add_span(
                "shard.evaluate",
                kind="shard",
                seconds=seconds,
                shard=shard,
                rows=rows[1] - rows[0],
                scans=shard_stats.scans,
                bytes_read=shard_stats.bytes_read,
            )
        if finish != "rids":
            trace.event("aggregate.pushdown", kind="phase", by=by)

    @staticmethod
    def _attach_timeout_trace(
        exc: QueryTimeoutError, trace: QueryTrace | None
    ) -> None:
        """Hand the partial trace to a deadline error (diagnosis aid)."""
        if trace is not None and exc.trace is None:
            trace.event("deadline.exceeded", kind="fault", error=str(exc))
            trace.finish()
            exc.trace = trace
