"""Sharded, process-parallel execution of bitmap queries.

The thread-pool engine scales when workers overlap I/O waits, but on pure
CPU work the interpreter serializes the Python layer of every bitmap
operation: the GIL bounds CPU-bound batch throughput near 1x regardless
of worker count.  This module is the execution backend that escapes the
GIL: the bitmaps each attribute is served from are cut into contiguous
**row-range shards**, and batches are evaluated by a pool of worker
*processes*.

The design rests on three invariants:

1. **A shard is a row range of the source inline serves.**  Shard ``i``
   is rows ``[start_i, stop_i)`` of every stored bitmap of the one
   :class:`~repro.core.index.BitmapSource` the engine serves the
   attribute from — an in-memory index, maintenance included, or an
   index store's source, pending delta included — and of its existence
   bitmap when it has one.  Every shard so shares that source's code
   domain, base and encoding, and a code-domain predicate translated
   once by the parent is valid verbatim on every shard.
2. **Bitmap payloads live in shared memory, not in pickles.**  A
   :class:`ShardExport` writes each shard into one
   :class:`multiprocessing.shared_memory.SharedMemory` block as an
   ``.rbix`` image — written by the index store's writer and served by
   its reader (:mod:`repro.storage.store`), so a segment and a store
   file share one layout and one set of integrity checks.  Dense and
   Roaring bitmaps are zero-copy views of the block, WAH blobs are
   decoded, and each is read once per worker and memoized.  Per query,
   only the tiny code-domain payload and the result RIDs cross the
   process boundary.
3. **Per-shard evaluation is the same algorithm on the same fetch
   pattern.**  The evaluation algorithms' fetch sequences depend only on
   the predicate, base, and encoding — never on the data — and every
   shard has an existence bitmap exactly when the source does, so every
   shard charges identical scan/op counts, and the *logical* cost of a
   sharded query (one scan per stored bitmap touched, as the paper
   counts it) equals any single shard's counters while ``bytes_read``
   sums the physical payloads actually moved.

Merging is the RID-domain equivalent of the k-way OR kernels: shard row
ranges are disjoint and ordered, so remapping each shard's local RIDs by
its row offset and concatenating in shard order *is* the k-way
disjoint-range union (:func:`merge_shard_rids`), with no bitmap
materialization at global length.

Each fact has one home.  A shard's rows are ``ShardExport.bounds``, which
only the parent reads (to offset RIDs); a worker gets the segment's name
and nothing else, and serves it with the index store's own source
(:class:`_AttachedShard`).  The process pool belongs to
:class:`~repro.engine.dispatch.ProcessDispatch`; :func:`run_shards` fans
one batch out over it, collects the shards' answers and merges them.
"""

from __future__ import annotations

import atexit
import logging
import os
import secrets
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field, replace
from multiprocessing import shared_memory

import numpy as np

from repro.core.evaluation import Predicate, evaluate
from repro.core.index import BitmapIndex
from repro.errors import (
    CorruptFileError,
    CorruptShardError,
    EngineConfigError,
    InjectedFaultError,
    QueryTimeoutError,
    ShmAttachError,
    ValueOutOfRangeError,
)
from repro.faults import Deadline, FaultPlan
from repro.query.expression import COMPLEMENT, Comparison, Expression, run_query
from repro.relation.relation import Relation
from repro.stats import COUNTERS, PHYSICAL_COUNTERS, ExecutionStats
from repro.storage.store import (
    StoreBitmapSource,
    _index_attr_spec,
    _payload_start,
    _RelationImage,
    _relation_chunks,
)

#: Execution backends the engine can route a batch through.
BACKENDS = ("inline", "threads", "processes")

log = logging.getLogger("repro.engine.sharding")

#: Recognizable shared-memory name prefix: ``repro-shm-<pid>-<nonce>``.
#: The embedded owner pid is what lets :func:`sweep_orphan_segments`
#: reclaim segments whose publishing process died without cleanup.
_SHM_PREFIX = "repro-shm"


def _segment_name() -> str:
    return f"{_SHM_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    return True


def sweep_orphan_segments(shm_dir: str = "/dev/shm") -> list[str]:
    """Unlink shared-memory segments left behind by dead publishers.

    Scans ``shm_dir`` for ``repro-shm-<pid>-*`` names whose owning pid no
    longer exists and removes them; segments of live processes (including
    this one) are never touched.  Returns the reclaimed names.  A no-op
    on platforms without a POSIX shm directory.
    """
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX platform
        return []
    reclaimed = []
    for name in os.listdir(shm_dir):
        if not name.startswith(_SHM_PREFIX + "-"):
            continue
        parts = name.split("-")
        if len(parts) < 4 or not parts[2].isdigit():
            continue
        pid = int(parts[2])
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
        except FileNotFoundError:
            continue
        except OSError as exc:  # pragma: no cover - permissions
            log.warning("could not reclaim orphan shm segment %s: %s", name, exc)
            continue
        log.info("reclaimed orphan shm segment %s (dead pid %d)", name, pid)
        reclaimed.append(name)
    return reclaimed


# ----------------------------------------------------------------------
# Row-range partitioning
# ----------------------------------------------------------------------


def shard_bounds(num_rows: int, shards: int) -> tuple[tuple[int, int], ...]:
    """Contiguous ``[start, stop)`` row ranges covering ``num_rows`` rows.

    The remainder of a non-divisible split is spread one row at a time
    over the leading shards, so shard sizes differ by at most one.  The
    effective shard count is clamped to ``num_rows`` (an empty shard
    serves no purpose and would publish zero-length bitmaps).
    """
    if shards < 1:
        raise EngineConfigError(f"shards must be >= 1, got {shards}")
    shards = max(1, min(shards, num_rows))
    quotient, remainder = divmod(num_rows, shards)
    bounds = []
    start = 0
    for i in range(shards):
        stop = start + quotient + (1 if i < remainder else 0)
        bounds.append((start, stop))
        start = stop
    return tuple(bounds)


def merge_shard_rids(
    rid_lists: list[np.ndarray], offsets: list[int]
) -> np.ndarray:
    """Union per-shard local RIDs into global RIDs.

    Shard row ranges are disjoint and given in ascending row order, so
    offsetting each shard's (already sorted) local RIDs by its row start
    and concatenating preserves global sort order — the RID-domain
    counterpart of ``WahBitVector.or_many``/``RoaringBitmap.or_many`` over bitmaps of
    disjoint ranges, without materializing a global-length bitmap.
    """
    if len(rid_lists) != len(offsets):
        raise ValueOutOfRangeError("one offset per shard result required")
    if not rid_lists:
        return np.empty(0, dtype=np.int64)
    parts = [
        rids.astype(np.int64, copy=False) + offset
        for rids, offset in zip(rid_lists, offsets)
    ]
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def merge_shard_extremes(finish: str, answers: list) -> tuple[np.ndarray, int]:
    """Per-shard ``[count, rank]`` MIN or MAX answers as one (the counts
    sum; an empty shard's placeholder rank never wins), and a shard that
    found the rank (0 when none selected rows)."""
    found = [(rank, shard) for shard, (count, rank) in enumerate(answers) if count > 0]
    rank, lead = (min if finish == "min" else max)(found, default=(0, 0))
    return np.array([sum(count for count, _ in answers), rank]), lead


def merge_shard_stats(per_shard: list[ExecutionStats], lead: int = 0) -> ExecutionStats:
    """Fold per-shard counters into the query's *logical* cost.

    Every shard evaluates the same code-domain query over the same base
    and encoding, so the fetch/op pattern — scans, ANDs/ORs/XORs/NOTs,
    buffer hits — is identical across shards; the logical count (one
    scan per stored bitmap touched, as the paper's cost model counts) is
    any single shard's value, and we take shard ``lead``'s.  The one
    exception is the binary search of MIN/MAX, whose path is a function
    of the rank it finds: there ``lead`` is a shard that found the merged
    rank, so its search is the one the unsharded query makes.  Byte-level
    counters are *physical* (:data:`~repro.stats.PHYSICAL_COUNTERS`) and
    sum across shards: the shard payloads of one logical bitmap together
    cover all ``N`` rows.
    """
    if not per_shard:
        return ExecutionStats()
    merged = per_shard[lead].copy()
    for name in PHYSICAL_COUNTERS:
        setattr(merged, name, sum(getattr(stats, name) for stats in per_shard))
    return merged


# ----------------------------------------------------------------------
# Code-domain query payloads (what actually crosses the process boundary)
# ----------------------------------------------------------------------
#
# Workers never see column dictionaries: the parent translates every
# value-domain leaf to the code domain once, using the same
# ``Column.code_bounds`` call the inline path uses, so per-shard
# evaluation is bit-identical by construction.  There is one code-domain
# leaf: ``IN`` and ``BETWEEN`` cross as the OR / AND of comparisons they
# stand for (same evaluate() calls, same connective charges).


@dataclass(frozen=True)
class CodeComparison(Expression):
    """A pre-translated leaf ``attribute code_op code``."""

    attribute: str
    op: str
    code: int

    def bitmap(self, relation, indexes, stats=None, algorithm="auto"):
        return evaluate(
            indexes[self.attribute], Predicate(self.op, self.code), algorithm, stats
        )

    def negated(self):
        return replace(self, op=COMPLEMENT[self.op])

    def __str__(self):
        return f"{self.attribute} {self.op} #{self.code}"


def translate_expression(expression: Expression, relation: Relation) -> Expression:
    """Rewrite a value-domain expression tree into the code domain.

    Each leaf's actual-value constant is translated through its column's
    sorted dictionary (``Column.code_bounds`` — the same call the inline
    evaluator makes), producing a tree of :class:`CodeComparison` leaves
    that evaluates without any column data.  Connectives are rebuilt
    unchanged, so the operation counts charged by the translated tree
    match the original's exactly.
    """

    def to_code(leaf: Comparison) -> CodeComparison:
        column = relation.column(leaf.attribute)
        op, code = column.code_bounds(leaf.op, leaf.value)
        return CodeComparison(leaf.attribute, op, int(code))

    return expression.map_leaves(to_code)


# ----------------------------------------------------------------------
# Shared-memory publication
# ----------------------------------------------------------------------

#: The relation and attribute name every image is published under: a
#: segment holds one shard of one attribute, and which one is up to
#: whoever keys the segment names.
_IMAGE_NAME = "shard"


#: Live exports, swept at interpreter exit so a crashing parent leaves
#: no named segments behind.  WeakSet: a garbage-collected export drops
#: out on its own (its ``__del__`` already unlinked the segments).
_LIVE_EXPORTS: "weakref.WeakSet[ShardExport]" = weakref.WeakSet()
_EXPORT_SWEEP_REGISTERED = False


def _close_live_exports() -> None:  # pragma: no cover - runs at exit
    for export in list(_LIVE_EXPORTS):
        try:
            export.close()
        except Exception:
            pass


def _create_segment(size: int) -> shared_memory.SharedMemory:
    """A named segment ``repro-shm-<pid>-<nonce>``, retrying collisions."""
    for _ in range(8):
        try:
            return shared_memory.SharedMemory(
                name=_segment_name(), create=True, size=size
            )
        except FileExistsError:  # pragma: no cover - 32-bit nonce collision
            continue
    # Out of luck with named segments; let the stdlib pick (such a
    # segment is invisible to the orphan sweep, but never colliding).
    return shared_memory.SharedMemory(create=True, size=size)  # pragma: no cover


class ShardExport:
    """Owner-side handle of one attribute's shards in shared memory.

    One :class:`~multiprocessing.shared_memory.SharedMemory` block per
    ``(start, stop)`` of ``bounds``, holding that row range of every
    stored bitmap of ``source`` (and of its existence bitmap, when it has
    one) in ``codec`` — cut once, here, so workers only ever read their
    own rows.  ``manifests[i]`` is the name of shard ``i``'s segment, all
    a worker needs to attach it (codec, base, encoding and the checksummed
    payload table are read from the image); its rows are ``bounds[i]``,
    which only the parent needs, to offset RIDs.  Segments carry
    recognizable names (``repro-shm-<pid>-<nonce>``) so
    :func:`sweep_orphan_segments` can reclaim them if this process dies
    without cleanup; live exports are also swept by an ``atexit`` hook.
    The export pins the source, whose bitmaps never change; the publisher
    re-exports once a query resolves another (:meth:`serves`).  Call
    :meth:`close` (or let the engine's ``close()``) to unlink the blocks.
    """

    def __init__(
        self,
        source: BitmapIndex | StoreBitmapSource,
        bounds: tuple[tuple[int, int], ...],
        codec: str,
    ):
        global _EXPORT_SWEEP_REGISTERED
        self.codec = codec
        self.bounds = tuple(bounds)
        self._source = source
        self.manifests: list[str] = []
        self._segments: list = []
        try:
            for start, stop in self.bounds:
                spec = {_IMAGE_NAME: _index_attr_spec(source, codec, rows=(start, stop))}
                image = b"".join(_relation_chunks(_IMAGE_NAME, stop - start, spec)[0])
                segment = _create_segment(len(image))
                segment.buf[: len(image)] = image
                self._segments.append(segment)
                self.manifests.append(segment.name)
        except Exception:
            self.close()
            raise
        _LIVE_EXPORTS.add(self)
        if not _EXPORT_SWEEP_REGISTERED:
            atexit.register(_close_live_exports)
            _EXPORT_SWEEP_REGISTERED = True

    def serves(self, source) -> bool:
        """Whether this publication is a cut of ``source``."""
        return self._source is source

    @property
    def nbytes(self) -> int:
        """Total shared-memory bytes held by this publication."""
        return sum(segment.size for segment in self._segments)

    def corrupt_byte(self, shard: int, offset: int | None = None) -> int:
        """Flip one byte of a shard's segment (fault injection).

        With ``offset=None`` the image's first payload byte is flipped;
        like every byte of the image it is under a checksum verified at
        attach.  Returns the offset flipped.  Test/chaos helper — never
        called on the serving path.
        """
        segment = self._segments[shard]
        if offset is None:
            offset = _payload_start(segment.buf)
        segment.buf[offset] ^= 0xFF
        return offset

    def close(self) -> None:
        """Release and unlink every shared-memory block (idempotent).

        Unlink failures are *logged*, never swallowed silently: a
        missing segment (already reclaimed) is a debug note, anything
        else is a warning with the segment name so a leak is traceable.
        """
        segments, self._segments = self._segments, []
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - stray external views
                log.warning("segment %s still has exported views", segment.name)
            try:
                segment.unlink()
            except FileNotFoundError:
                log.debug("segment %s already unlinked", segment.name)
            except OSError as exc:  # pragma: no cover - platform-specific
                log.warning("could not unlink segment %s: %s", segment.name, exc)

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Process-local cache of attached shards, keyed by shared-memory name.
#: Lives in each worker for the lifetime of the pool, so a shard is
#: attached (and each payload read) at most once per worker.
_ATTACHED: dict[str, "_AttachedShard"] = {}
_CLEANUP_REGISTERED = False


class _AttachedShard(StoreBitmapSource):
    """A worker-side bitmap source over one published shard.

    The index store's source over the segment's image, memoizing what it
    reads: dense and Roaring bitmaps are zero-copy views into the shared
    block, WAH payloads are decoded on first fetch.  Every fetch
    charges one scan, mirroring :meth:`BitmapIndex.fetch`, and the
    existence bitmap is read once, at attach.

    A failed attach (the segment vanished — publisher died or was swept)
    raises :class:`~repro.errors.ShmAttachError`.  The reader checks the
    header and dictionary CRCs as it parses, and *every* payload CRC is
    verified here, once per worker, before any query is served — so any
    damaged byte of a torn or bit-flipped publication raises
    :class:`~repro.errors.CorruptShardError` at attach, never a wrong
    answer.
    """

    # Unset until the image parses (``release`` may run before that); and
    # a plain attribute over the base class's property, so the existence
    # bitmap is read once, at attach, not on every access.
    _rfile: _RelationImage | None = None
    nonnull = None

    def __init__(self, name: str):
        # Attaching re-registers the name with the resource tracker
        # (bpo-39959), but pool workers share the parent's tracker
        # process, so the second register is a set no-op and the owner's
        # unlink unregisters exactly once.  Do NOT unregister here: that
        # would strip the owner's registration from the shared tracker.
        try:
            self._shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            raise ShmAttachError(
                f"shared-memory segment {name!r} is gone; "
                f"the publication must be rebuilt"
            ) from None
        self._bitmaps: dict = {}
        try:
            image = _RelationImage(self._shm.buf, _IMAGE_NAME, f"segment {name!r}")
            super().__init__(image, _IMAGE_NAME)
            problems = image.verify_payloads()
            if problems:
                raise CorruptFileError(problems[0])
            self.nonnull = super().nonnull
        except CorruptFileError as exc:
            self.release()
            raise CorruptShardError(str(exc)) from exc

    def fetch(self, component: int, slot: int, stats: ExecutionStats):
        key = (component, slot)
        bitmap = self._bitmaps.get(key)
        if bitmap is None:
            # The store's source charges the scan of a first fetch.
            try:
                bitmap = super().fetch(component, slot, stats)
            except CorruptFileError as exc:
                raise CorruptShardError(str(exc)) from exc
            self._bitmaps[key] = bitmap
        else:
            # Memoized or not, a fetch is one logical scan of the stored
            # bitmap — the same charging rule as BitmapIndex.fetch.
            stats.record_scan(nbytes=bitmap.nbytes)
        return bitmap

    def release(self) -> None:
        """Drop payload views, then the reader's, so the shared block can
        close cleanly (it raises ``BufferError`` while a slice is alive)."""
        self._bitmaps.clear()
        self.nonnull = None
        if self._rfile is not None:
            self._rfile.close()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external views
            pass


def _worker_cleanup() -> None:  # pragma: no cover - exercised at worker exit
    for shard in list(_ATTACHED.values()):
        try:
            shard.release()
        except Exception:
            pass
    _ATTACHED.clear()


def _attach(name: str) -> _AttachedShard:
    global _CLEANUP_REGISTERED
    shard = _ATTACHED.get(name)
    if shard is None:
        shard = _ATTACHED[name] = _AttachedShard(name)
        if not _CLEANUP_REGISTERED:
            atexit.register(_worker_cleanup)
            _CLEANUP_REGISTERED = True
    return shard


def _run_shard_task(
    segments: dict,
    items: list,
    algorithm: str,
    faults: tuple = (),
    deadline: tuple | None = None,
) -> list:
    """Evaluate a batch of code-domain queries against one shard.

    ``segments`` maps ``(relation, attribute)`` to the name of the
    shard's segment; ``items`` is a list of
    ``(qid, relation, payload)`` where every ``payload`` has the one
    shape ``(finish, attributes, code_expression, by)`` — the arguments
    of :func:`~repro.query.expression.run_query` (``attributes`` names
    every source the item reads, the grouping column included).
    Returns ``(qid, answer, stat_tuple, seconds)`` per item, where
    ``answer`` is the local RID array for a ``rids`` finish, the shard's
    matching-row count (``int``) for ``count``, the per-code count array
    for ``group``, ``[count, rank]`` arrays for the measure finishes —
    aggregates never materialize RIDs, and their cross-shard merge is
    summation (:func:`merge_shard_extremes` for ``min``/``max``).

    ``faults`` carries plain-string directives decided *parent-side* by
    the engine's :class:`~repro.faults.FaultPlan` (the counters must not
    live in a worker — a crash would reset them and the fault would
    re-fire on every retry): ``"worker-crash"`` hard-kills the process,
    ``"worker-error"`` raises :class:`~repro.errors.InjectedFaultError`,
    ``"attach-error"`` simulates a vanished segment.  ``deadline`` is a
    ``(deadline_ms, expires_at)`` pair — the *absolute* monotonic expiry
    crosses the process boundary intact (CLOCK_MONOTONIC is system-wide
    here), so time spent queued counts against the budget.
    """
    if "worker-crash" in faults:  # pragma: no cover - kills the process
        os._exit(13)
    if "attach-error" in faults:
        raise ShmAttachError("injected shm attach failure")
    if "worker-error" in faults:
        raise InjectedFaultError("injected worker execution failure")
    budget = Deadline(deadline[0], expires_at=deadline[1]) if deadline else None
    sources = {key: _attach(name) for key, name in segments.items()}
    out = []
    for qid, relation_name, payload in items:
        if budget is not None:
            budget.check("shard-task")
        stats = ExecutionStats()
        stats.deadline = budget
        started = time.perf_counter()
        finish, attributes, expression, by = payload
        leaf_sources = {
            attribute: sources[(relation_name, attribute)]
            for attribute in attributes
        }
        answer = run_query(
            None, expression, leaf_sources, stats, finish, by, algorithm=algorithm
        )
        elapsed = time.perf_counter() - started
        counters = tuple(getattr(stats, name) for name in COUNTERS)
        out.append((qid, answer, counters, elapsed))
    return out


# ----------------------------------------------------------------------
# Fan-out, collect, merge
# ----------------------------------------------------------------------


@dataclass
class ShardQueryOutcome:
    """One query's merged cross-shard outcome, pre-metrics.

    ``answer`` is what :func:`~repro.query.expression.run_query` returns
    for the item's finish, merged across shards: the offset union of the
    local RID arrays for ``rids``; for an aggregate the elementwise sum
    of the shard answers (:func:`merge_shard_extremes` for ``min`` and
    ``max``).  Shard row ranges are disjoint, so summation is the exact
    cross-shard merge — no RID offset union is ever built for an
    aggregate.  ``retries``
    records the failed dispatch attempts that preceded this one (filled
    in by :class:`~repro.engine.dispatch.ProcessDispatch`).
    """

    answer: "np.ndarray | np.integer"
    stats: ExecutionStats
    shard_stats: list[ExecutionStats]
    shard_seconds: list[float]
    shard_rows: list[tuple[int, int]]
    retries: list[dict] = field(default_factory=list)

    @property
    def latency_seconds(self) -> float:
        """Critical-path latency: the slowest shard's evaluation time."""
        return max(self.shard_seconds) if self.shard_seconds else 0.0


def run_shards(
    pool: ProcessPoolExecutor,
    exports: dict,
    items: list,
    algorithm: str,
    *,
    fault_plan: FaultPlan | None,
    deadline: Deadline | None,
) -> list[ShardQueryOutcome]:
    """Run a batch of code-domain queries on ``pool``, across every shard.

    ``exports`` maps ``(relation, attribute)`` to a :class:`ShardExport`,
    all cut at the same row ``bounds``; ``items`` is the
    ``(qid, relation, payload)`` list of :func:`_run_shard_task`.  Each
    shard is one task over the whole batch; the answers are merged per
    query, in item order, into one :class:`ShardQueryOutcome` each.

    ``fault_plan`` injects at the ``worker.execute`` and ``shm.attach``
    seams (ident ``"shard:<n>"``): the plan's counters advance *here*, in
    the parent, and only string directives ship to workers — so a
    ``count=1`` crash fires once even though the worker that received it
    died.  ``deadline`` bounds the dispatch: the remaining budget ships to
    workers for cooperative checks and also caps the parent-side
    ``future.result`` wait, so even a wedged worker cannot hang the caller
    past the budget (plus a small collection grace).
    """
    if deadline is not None:
        deadline.check("dispatch")
    any_export = next(iter(exports.values()))
    bounds = any_export.bounds
    budget = (deadline.deadline_ms, deadline.expires_at) if deadline is not None else None
    futures = []
    for shard in range(len(bounds)):
        faults = []
        if fault_plan is not None:
            ident = f"shard:{shard}"
            spec = fault_plan.check("worker.execute", ident=ident)
            if spec is not None:
                faults.append(f"worker-{spec.kind}")
            spec = fault_plan.check("shm.attach", ident=ident)
            if spec is not None:
                if spec.kind == "corrupt":
                    # Flip a payload byte in the real segment: the
                    # worker's CRC checks must catch it at attach.
                    any_export.corrupt_byte(shard)
                else:
                    faults.append("attach-error")
        segments = {key: export.manifests[shard] for key, export in exports.items()}
        futures.append(
            pool.submit(_run_shard_task, segments, items, algorithm, tuple(faults), budget)
        )
    # per_query[qid] = (answer, stats, seconds) per shard, in shard order
    per_query: dict[int, list] = {qid: [] for qid, _, _ in items}
    for shard, future in enumerate(futures):
        try:
            # +0.25 s grace: give a worker that noticed the deadline
            # itself time to deliver its QueryTimeoutError.
            rows = future.result(
                timeout=None if deadline is None else deadline.remaining_seconds + 0.25
            )
        except FuturesTimeoutError:
            future.cancel()
            raise QueryTimeoutError(
                f"shard {shard} missed the {deadline.deadline_ms:g} ms deadline"
            ) from None
        for qid, answer, counters, elapsed in rows:
            stats = ExecutionStats(**dict(zip(COUNTERS, counters)))
            per_query[qid].append((answer, stats, elapsed))
    outcomes = []
    for qid, _, (finish, *_) in items:
        answers, shard_stats, seconds = (list(column) for column in zip(*per_query[qid]))
        lead = 0
        if finish == "rids":
            answer = merge_shard_rids(answers, [start for start, _ in bounds])
        elif finish in ("min", "max"):
            answer, lead = merge_shard_extremes(finish, answers)
        else:
            answer = np.sum(answers, axis=0)
        outcomes.append(
            ShardQueryOutcome(
                answer=answer,
                stats=merge_shard_stats(shard_stats, lead),
                shard_stats=shard_stats,
                shard_seconds=seconds,
                shard_rows=list(bounds),
            )
        )
    return outcomes
