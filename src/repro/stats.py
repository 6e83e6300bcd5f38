"""Execution statistics shared by evaluation, storage, and buffering.

The paper's two cost metrics are the number of *bitmap scans* (I/O) and the
number of *bitmap operations* (CPU).  :class:`ExecutionStats` records both,
plus the byte-level and buffering detail used by the Section 9 and 10
experiments.  A single stats object is threaded through one query
evaluation; experiments aggregate over many.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import Deadline
    from repro.trace import QueryTrace, Span

#: What :meth:`ExecutionStats.span` hands every untraced caller.
_NO_SPAN: AbstractContextManager[None] = nullcontext()


def _counter(physical: bool = False) -> int:
    """Declare one counter field of :class:`ExecutionStats`.

    The fields declared through this are *the* list of a query's
    counters (:data:`COUNTERS`); merging, the dict form, a shard worker's
    report and the cross-shard fold all derive from it.  A ``physical``
    counter measures bytes moved, so the shards of one query sum it; the
    rest are logical — every shard runs the same fetch/op pattern.
    """
    return field(default=0, metadata={"physical": physical})


@dataclass
class ExecutionStats:
    """Counters for one (or an aggregate of) query evaluations.

    Attributes
    ----------
    scans:
        Physical bitmap reads.  This is the paper's time metric: a read of
        one stored bitmap from disk.  Buffer hits are *not* scans.
    ands, ors, xors, nots:
        Logical bitmap operations performed (the paper's CPU metric).
    bytes_read:
        Bytes fetched from (simulated) disk.
    decompressed_bytes:
        Bytes produced by codec decompression on the read path.
    files_opened:
        Bitmap-file open/scan events at the storage layer (one per file
        read; CS/IS schemes may serve many bitmap fetches per file scan).
    buffer_hits:
        Bitmap fetches served from the buffer pool.
    trace:
        Optional :class:`~repro.trace.QueryTrace` receiving per-event
        spans from every layer the stats object passes through.  ``None``
        (the default) is the untraced hot path: :meth:`span` hands out a
        shared no-op context and each event site is gated on one
        attribute read.  The trace rides along one query and is never
        merged or copied with the counters.
    deadline:
        Optional :class:`~repro.faults.Deadline` threaded the same way as
        ``trace``: ``None`` on the unbudgeted hot path, a cooperative
        budget when the caller passed ``QueryOptions(deadline_ms=...)``.
        Seams check it and raise
        :class:`~repro.errors.QueryTimeoutError` once expired.  Like the
        trace, it rides along one query and is never merged or copied.
    """

    scans: int = _counter()
    ands: int = _counter()
    ors: int = _counter()
    xors: int = _counter()
    nots: int = _counter()
    bytes_read: int = _counter(physical=True)
    decompressed_bytes: int = _counter(physical=True)
    files_opened: int = _counter()
    buffer_hits: int = _counter()
    trace: "QueryTrace | None" = field(default=None, repr=False, compare=False)
    deadline: "Deadline | None" = field(default=None, repr=False, compare=False)

    @property
    def ops(self) -> int:
        """Total bitmap operations (AND + OR + XOR + NOT)."""
        return self.ands + self.ors + self.xors + self.nots

    def span(
        self, name: str, kind: str = "phase", **attrs
    ) -> "AbstractContextManager[Span | None]":
        """Time a block on the trace; one shared no-op context when untraced.

        Lets a call site say ``with stats.span(...)`` once instead of
        writing its statement in a traced and an untraced arm.  The block
        receives the :class:`~repro.trace.Span` (``None`` untraced).
        """
        if self.trace is not None:
            return self.trace.span(name, kind, **attrs)
        return _NO_SPAN

    def record_scan(self, nbytes: int = 0) -> None:
        """Record one physical bitmap read of ``nbytes`` bytes."""
        self.scans += 1
        self.bytes_read += nbytes

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate ``other`` into this object (for aggregation)."""
        mine, theirs = vars(self), vars(other)
        for name in COUNTERS:
            mine[name] += theirs[name]

    def as_dict(self) -> dict:
        """The counters as a plain dict (stable keys, JSON-serializable).

        Used by the engine's ``snapshot()`` and the benchmark result files;
        the derived ``ops`` total is included for convenience.
        """
        pairs = [(name, getattr(self, name)) for name in COUNTERS]
        # The total sits right after the four operation counters it sums.
        pairs.insert(COUNTERS.index("nots") + 1, ("ops", self.ops))
        return dict(pairs)

    def copy(self) -> "ExecutionStats":
        """An independent copy of the current counter values."""
        out = ExecutionStats()
        out.merge(self)
        return out


#: Every counter of a query, in declaration order, and the physical ones.
COUNTERS = tuple(f.name for f in fields(ExecutionStats) if "physical" in f.metadata)
PHYSICAL_COUNTERS = tuple(
    f.name for f in fields(ExecutionStats) if f.metadata.get("physical")
)
