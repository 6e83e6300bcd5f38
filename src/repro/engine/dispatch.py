"""The process backend's dispatch policy: publish, retry, repair, degrade.

:func:`~repro.engine.sharding.run_shards` runs one batch on one pool;
everything around that call which exists only because of
``backend="processes"`` lives here, behind one object the engine owns:

- **the process pool** — one ``ProcessPoolExecutor``, ``max_workers``
  wide, started on first use (``fork`` where available — cheap, and it
  inherits the parent's imports — else ``spawn``), dropped when a
  dispatch finds it broken, and shut down with the engine;
- **what is published of a relation** — each attribute's shared-memory
  :class:`~repro.engine.sharding.ShardExport`, the row-range cut of the
  very bitmap source the inline path serves, uncached (so nothing is
  rebuilt for this backend, and maintenance, NULL tracking and a store's
  pending delta reach it unchanged) — and the one way to drop it
  (:meth:`ProcessDispatch.drop`);
- **how a failed dispatch is retried, repaired and degraded** — the
  breaker gate, the backoff loop, and :data:`RECOVERY`, the one table from
  exception type to metrics reason and repair action.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import NamedTuple, Protocol

from repro.core.index import BitmapIndex
from repro.engine.cache import CachedSource
from repro.engine.metrics import EngineMetrics
from repro.engine.resilience import CircuitBreaker, RetryPolicy
from repro.engine.sharding import (
    ShardExport,
    ShardQueryOutcome,
    run_shards,
    shard_bounds,
    sweep_orphan_segments,
    translate_expression,
)
from repro.errors import (
    CorruptShardError,
    EngineConfigError,
    InjectedFaultError,
    ShmAttachError,
)
from repro.faults import Deadline, FaultPlan
from repro.query.expression import Expression
from repro.query.options import QueryOptions
from repro.relation.relation import Relation
from repro.storage.store import StoreBitmapSource
from repro.trace import QueryTrace

# The ladder logs where it always has: under the engine's logger.
log = logging.getLogger("repro.engine")


class DispatchItem(NamedTuple):
    """One query as the engine resolves it, for every backend and EXPLAIN.

    ``sources`` maps exactly the attributes the query reads (its leaves
    plus the grouping column) to their uncached bitmap sources, which
    shard exports are cut from; ``served`` maps them to the cache-routed
    sources the inline path evaluates on; ``codec`` is the one bitmap
    codec all of them are served in.
    """

    relation: Relation
    sources: dict[str, BitmapIndex | StoreBitmapSource]
    served: dict[str, CachedSource]
    codec: str
    expression: Expression
    finish: str
    by: str | None


class DispatchKnobs(Protocol):
    """The engine's public attributes the dispatch reads, live on each use
    (so reassigning one on the engine takes effect on this backend too;
    the pool keeps the ``max_workers`` it was built with)."""

    metrics: EngineMetrics
    retry_policy: RetryPolicy
    breaker: CircuitBreaker
    fault_plan: FaultPlan | None
    max_workers: int
    shards: int | None


class ProcessDispatch:
    """Owns the process backend's pool, publications and failure policy.

    The engine calls :meth:`run`, :meth:`drop` and :meth:`close` (and
    :meth:`replay`, to show a finished dispatch on a trace); everything
    the dispatch needs of a query arrives in its :class:`DispatchItem`.
    """

    def __init__(self, knobs: DispatchKnobs):
        self._knobs = knobs
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        #: (relation, attribute) -> the live publication.
        self.exports: dict[tuple, ShardExport] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # The surface
    # ------------------------------------------------------------------

    def run(
        self, items: list[DispatchItem], options: QueryOptions
    ) -> list[ShardQueryOutcome] | None:
        """Evaluate a resolved batch across shards on the process pool.

        Returns one merged outcome per item, or ``None`` when the batch
        should be served locally instead: a relation's circuit breaker is
        open (the pool is not touched), or every retry was spent.  A
        recoverable failure (:data:`RECOVERY`) is repaired and retried
        under the :class:`~repro.engine.resilience.RetryPolicy`; every
        retry, degradation and corruption lands in the metrics, and the
        retries ride on the outcomes for :meth:`replay`.  Anything else —
        a deadline miss included — propagates.
        """
        relations = sorted({item.relation.name for item in items})
        breaker = self._knobs.breaker
        blocked = [name for name in relations if not breaker.allow(f"relation:{name}")]
        if blocked:
            self._knobs.metrics.record_degradation("processes", "threads", "breaker-open")
            log.warning(
                "process backend breaker open for %s; serving batch on threads",
                ", ".join(blocked),
            )
            return None
        deadline = Deadline(options.deadline_ms) if options.deadline_ms is not None else None
        retries: list[dict] = []
        delays = self._knobs.retry_policy.delays()
        while True:
            try:
                outcomes = self._once(items, options, deadline)
                break
            except tuple(RECOVERY) as exc:
                reason, repair = next(
                    entry for kind, entry in RECOVERY.items() if isinstance(exc, kind)
                )
                if repair is not None:
                    repair(self, relations)
                delay = next(delays, None)
                if delay is None:
                    for name in relations:
                        self._knobs.breaker.record_failure(f"relation:{name}")
                    self._knobs.metrics.record_degradation(
                        "processes", "threads", "retries-exhausted"
                    )
                    log.warning(
                        "process backend gave up after %d retries (%s: %s); "
                        "serving batch on threads",
                        len(retries),
                        reason,
                        exc,
                    )
                    return None
                self._knobs.metrics.record_retry(reason)
                retries.append(
                    {"attempt": len(retries) + 1, "reason": reason, "error": str(exc)}
                )
                log.warning(
                    "process backend dispatch failed (%s: %s); retry %d in %.0f ms",
                    reason,
                    exc,
                    len(retries),
                    1e3 * delay,
                )
                if delay > 0:
                    time.sleep(delay)
        for name in relations:
            self._knobs.breaker.record_success(f"relation:{name}")
        for outcome in outcomes:
            outcome.retries = retries
        return outcomes

    def drop(self, relation: str, attribute: str | None = None) -> None:
        """Unlink a relation's publications (or one attribute's).

        Called for the attributes a new registration record does not
        carry, to free memory: a publication is reused only while it
        :meth:`~repro.engine.sharding.ShardExport.serves` the source a
        query resolved, so the next dispatch cuts it again regardless.
        """
        self._unpublish(
            lambda key: key[0] == relation and (attribute is None or key[1] == attribute)
        )

    def close(self, wait: bool = True) -> None:
        """Shut the pool down and unlink every publication (idempotent)."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
        self._unpublish(lambda key: True)

    @staticmethod
    def replay(
        trace: QueryTrace, outcome: ShardQueryOutcome, item: DispatchItem
    ) -> None:
        """Show one item's finished dispatch on its parent-side trace.

        The work happened in worker processes, so what the trace shows
        is every dispatch retry, one worker-timed ``shard.evaluate``
        span per shard, and — for an aggregate — the pushdown: shards
        returned popcounts, the merge was a summation, and no
        materialize phase ever ran.
        """
        for event in outcome.retries:
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
        if item.finish != "rids":
            trace.event("aggregate.pushdown", kind="phase", by=item.by)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _rebuild_pool(self, relations: list[str]) -> None:
        """Tear a broken pool down (the next attempt builds a fresh one)
        and sweep the segments its dead workers may have orphaned."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)
        sweep_orphan_segments()

    def _unpublish(self, doomed: Callable[[tuple], bool]) -> None:
        """Unlink the publications whose key ``doomed`` selects; the next
        dispatch re-cuts them from the engine's sources, which a repair
        never touches — in-place maintenance survives it."""
        with self._lock:
            closing = [self.exports.pop(key) for key in list(self.exports) if doomed(key)]
        for export in closing:
            export.close()

    def _republish(self, relations: list[str]) -> None:
        """Unlink a torn publication; the next attempt re-exports it."""
        self._unpublish(lambda key: key[0] in relations)

    def _republish_corrupt(self, relations: list[str]) -> None:
        self._knobs.metrics.record_corruption("shm")
        self._republish(relations)

    def _executor(self) -> ProcessPoolExecutor:
        """The persistent process pool, ``max_workers`` wide (lazy)."""
        with self._lock:
            if self._closed:
                raise EngineConfigError("engine is closed")
            if self._pool is None:
                # Reclaim segments a previous (crashed) publisher left in
                # /dev/shm before committing new ones of our own.
                sweep_orphan_segments()
                methods = multiprocessing.get_all_start_methods()
                self._pool = ProcessPoolExecutor(
                    max_workers=self._knobs.max_workers,
                    mp_context=multiprocessing.get_context(
                        "fork" if "fork" in methods else "spawn"
                    ),
                )
            return self._pool

    def _export_for(self, item: DispatchItem, attribute: str) -> ShardExport:
        """The current shared-memory publication of one attribute's shards.

        Cut from the uncached source the inline path serves, into the
        engine's ``shards`` row ranges (else ``max_workers`` of them), and cut again
        (the stale blocks unlinked) once that source is replaced, its
        version has moved, or the engine's codec or shard count has.
        """
        source = item.sources[attribute]
        key = (item.relation.name, attribute)
        bounds = shard_bounds(source.nbits, self._knobs.shards or self._knobs.max_workers)
        with self._lock:
            export = self.exports.get(key)
            if (
                export is not None
                and export.serves(source)
                and (export.codec, export.bounds) == (item.codec, bounds)
            ):
                return export
            stale = export
            export = self.exports[key] = ShardExport(source, bounds, item.codec)
        if stale is not None:
            stale.close()
        return export

    def _once(
        self,
        items: list[DispatchItem],
        options: QueryOptions,
        deadline: Deadline | None,
    ) -> list[ShardQueryOutcome]:
        """One dispatch attempt of a resolved batch on the process pool."""
        pool = self._executor()
        # Translate every query to the code domain and publish the shards
        # its attributes need.  Relations of different sizes split into
        # different row ranges (and may clamp to different shard counts),
        # and a shard's RIDs are offset by its own range, so items are
        # grouped by their relation's row ranges and dispatched per group.
        exports: dict[tuple, ShardExport] = {}
        groups: dict[tuple, list] = {}
        for qid, item in enumerate(items):
            name = item.relation.name
            attributes = sorted(item.sources)
            for attribute in attributes:
                if (name, attribute) not in exports:
                    exports[(name, attribute)] = self._export_for(item, attribute)
            code_expression = translate_expression(item.expression, item.relation)
            payload = (item.finish, tuple(attributes), code_expression, item.by)
            bounds = exports[(name, attributes[0])].bounds
            groups.setdefault(bounds, []).append((qid, name, payload))
        outcomes: list = [None] * len(items)
        for bounds, group_items in groups.items():
            needed = {key: exp for key, exp in exports.items() if exp.bounds == bounds}
            group_outcomes = run_shards(
                pool,
                needed,
                group_items,
                options.algorithm,
                fault_plan=self._knobs.fault_plan,
                deadline=deadline,
            )
            for (qid, _, _), outcome in zip(group_items, group_outcomes):
                outcomes[qid] = outcome
        return outcomes


#: What a failed dispatch can recover from — the one table of it:
#: exception type -> (metrics reason, repair action).  A deadline miss is
#: deliberately absent: retrying cannot un-spend a wall-clock budget.  No
#: two entries are related by inheritance, so order does not matter.
RECOVERY = {
    BrokenProcessPool: ("pool-broken", ProcessDispatch._rebuild_pool),
    ShmAttachError: ("shm-attach", ProcessDispatch._republish),
    CorruptShardError: ("shard-corrupt", ProcessDispatch._republish_corrupt),
    InjectedFaultError: ("injected", None),  # nothing broke: just retry
    OSError: ("os-error", ProcessDispatch._rebuild_pool),
}
