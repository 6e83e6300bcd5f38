"""The one layer that keeps served bitmaps: a lock-protected LRU cache and
the source adapter that fetches through it.

:class:`CachedSource` is the only place a served bitmap is retained.  It
wraps any bitmap source, whose bitmaps never change, and keys every
fetched bitmap by ``prefix + (component, slot)``.  The engine keeps one
per served attribute of a registration record, over its one
:class:`SharedBitmapCache`, with prefix ``(relation, attribute, serial,
codec)``, so hot bitmaps of every relation compete for the same
``capacity`` slots; a :class:`repro.storage.buffer.BufferPool` is a
:class:`CachedSource` over a cache of its own, preloaded with the
Theorem 10.1 slots and closed to admission.

Capacity is two-dimensional: an entry-count limit (``capacity``) and an
optional **byte budget** (``byte_budget``).  The byte budget exists for
the compressed execution mode — a cached
:class:`~repro.bitmaps.compressed.WahBitVector` is often 10–1000x smaller
than the dense bitmap of the same column, so an entry-count LRU wildly
misstates the memory a mixed cache actually holds.  Entries are sized
uniformly via their ``nbytes`` attribute (both bitmap representations
expose it) and evicted in LRU order until both limits are satisfied.

Concurrency contract
--------------------
All bookkeeping (the LRU order, the byte accounting, the
hit/miss/eviction counters) mutates under one internal lock, so any
number of worker threads may ``get`` and ``put`` concurrently.  Loading a
missed bitmap is deliberately *not* done under the lock — two threads
racing on the same cold key may both load it, which is harmless (the
second ``put`` wins) and keeps slow fetches from serializing the whole
engine.  The invariant tests rely on is::

    hits + misses == number of get() calls

A ``capacity`` of 0 disables caching entirely: every ``get`` is a miss and
``put`` is a no-op.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable

from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.errors import BufferConfigError
from repro.faults import FaultPlan
from repro.stats import ExecutionStats


class SharedBitmapCache:
    """A thread-safe LRU bitmap cache keyed by arbitrary hashable keys.

    Parameters
    ----------
    capacity:
        Maximum number of cached bitmaps.  ``0`` disables caching (every
        lookup misses, nothing is ever stored); ``None`` leaves the entry
        count unlimited (use with a ``byte_budget``).
    byte_budget:
        Optional maximum total ``nbytes`` across cached entries.  Evicts
        LRU-first until the budget holds.  An entry larger than the whole
        budget is not cached at all.
    """

    def __init__(self, capacity: int | None, byte_budget: int | None = None):
        if capacity is not None and capacity < 0:
            raise BufferConfigError(f"cache capacity must be >= 0, got {capacity}")
        if byte_budget is not None and byte_budget <= 0:
            raise BufferConfigError(
                f"byte_budget must be > 0 (or None for unlimited), got {byte_budget}"
            )
        if capacity is None and byte_budget is None:
            raise BufferConfigError(
                "an unbounded cache needs a capacity or a byte_budget"
            )
        self.capacity = capacity
        self.byte_budget = byte_budget
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.bytes_cached = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Per-group hit/miss counters, keyed by the first element of a
        # tuple key (the engine keys by (relation, attribute, ...), so
        # groups are relations).  Non-tuple keys land under their repr.
        self._groups: dict[str, list[int]] = {}

    # ------------------------------------------------------------------

    @staticmethod
    def _group_of(key: Hashable) -> str:
        if isinstance(key, tuple) and key:
            return str(key[0])
        return str(key)

    def get(self, key: Hashable):
        """Return the cached bitmap for ``key``, or ``None`` on a miss."""
        group = self._group_of(key)
        with self._lock:
            counters = self._groups.get(group)
            if counters is None:
                counters = self._groups[group] = [0, 0]
            bitmap = self._entries.get(key)
            if bitmap is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                counters[0] += 1
                return bitmap
            self.misses += 1
            counters[1] += 1
            return None

    def put(self, key: Hashable, bitmap) -> None:
        """Insert (or refresh) a bitmap, evicting LRU entries while either
        the entry-count or byte limit is exceeded."""
        if self.capacity == 0:
            return
        size = bitmap.nbytes
        if self.byte_budget is not None and size > self.byte_budget:
            return  # would evict the whole cache and still not fit
        with self._lock:
            old = self._entries.get(key)
            if old is not None:
                self.bytes_cached -= old.nbytes
            self._entries[key] = bitmap
            self._entries.move_to_end(key)
            self.bytes_cached += size
            while self._entries and self._over_limit():
                _, evicted = self._entries.popitem(last=False)
                self.bytes_cached -= evicted.nbytes
                self.evictions += 1

    def _over_limit(self) -> bool:
        if self.capacity is not None and len(self._entries) > self.capacity:
            return True
        return self.byte_budget is not None and self.bytes_cached > self.byte_budget

    def drop_group(self, group: str) -> int:
        """Evict every entry of one group (relation); returns how many.

        Entries of other relations stay resident.  Dropped entries count
        as evictions; the group's hit/miss history is preserved.
        """
        return self._drop(lambda key: self._group_of(key) == group)

    def drop_prefixes(self, prefixes: list[tuple]) -> int:
        """Evict every entry whose tuple key starts with one of ``prefixes``;
        returns how many.

        The engine calls it with the prefixes of the entries a new
        registration record does not carry, to free their bitmaps; no
        answer depends on it, since every key carries its record's serial.
        Dropped entries count as evictions; hit/miss history is preserved.
        """
        return self._drop(
            lambda key: isinstance(key, tuple) and any(key[: len(p)] == p for p in prefixes)
        )

    def _drop(self, doomed: Callable[[Hashable], bool]) -> int:
        with self._lock:
            keys = [key for key in self._entries if doomed(key)]
            for key in keys:
                self.bytes_cached -= self._entries.pop(key).nbytes
                self.evictions += 1
            return len(keys)

    def clear(self) -> None:
        """Drop every cached bitmap and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.bytes_cached = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self._groups.clear()

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def fetches(self) -> int:
        """Total lookups routed through the cache (``hits + misses``)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        """A point-in-time, self-consistent view of the cache counters."""
        with self._lock:
            hits, misses = self.hits, self.misses
            total = hits + misses
            return {
                "capacity": self.capacity,
                "byte_budget": self.byte_budget,
                "size": len(self._entries),
                "bytes_cached": self.bytes_cached,
                "hits": hits,
                "misses": misses,
                "evictions": self.evictions,
                "hit_rate": hits / total if total else 0.0,
                "groups": {
                    name: {
                        "hits": h,
                        "misses": m,
                        "hit_rate": h / (h + m) if h + m else 0.0,
                    }
                    for name, (h, m) in sorted(self._groups.items())
                },
            }

    def __repr__(self) -> str:
        return (
            f"SharedBitmapCache(capacity={self.capacity}, "
            f"byte_budget={self.byte_budget}, size={len(self)}, "
            f"bytes={self.bytes_cached}, hits={self.hits}, "
            f"misses={self.misses})"
        )


class CachedSource:
    """A bitmap source whose fetches go through a :class:`SharedBitmapCache`:
    the one layer that keeps a served bitmap.

    Implements the :class:`~repro.core.index.BitmapSource` protocol over
    ``source``, the uncached source, serving its bitmaps in ``codec``
    (``None``: the source's own) through ``source.with_codec(codec)``.  A
    bitmap is cached under ``prefix + (component, slot)``: a source's
    bitmaps never change, and the prefix names the source (on the engine
    path, by its registration record's serial).  A hit costs no scan (it
    is charged as a ``buffer_hit``); a miss fetches from the source (which
    records the scan on the per-query stats) and admits the bitmap to the
    cache.  The source's ``nonnull`` is read once, which on the engine path
    (one entry per attribute of a record) is once per record, not per
    query.  ``faults`` returns the :class:`~repro.faults.FaultPlan` to
    check on a hit.
    """

    __slots__ = ("_source", "_served", "_cache", "_prefix", "_faults", "_nonnull")

    def __init__(
        self,
        source,
        cache: SharedBitmapCache,
        prefix: tuple,
        faults: Callable[[], FaultPlan | None] | None = None,
        codec: str | None = None,
    ):
        self._source = source
        self._served = source if codec is None else source.with_codec(codec)
        self._cache = cache
        self._prefix = prefix
        self._faults = faults
        self._nonnull: tuple | None = None  # (the source's nonnull,) once read

    @property
    def source(self):
        """The uncached source, as built (before any codec conversion)."""
        return self._source

    @property
    def prefix(self) -> tuple:
        """What every cache key of this source starts with."""
        return self._prefix

    @property
    def bitmap_codec(self) -> str:
        return self._served.bitmap_codec

    @property
    def nbits(self) -> int:
        return self._source.nbits

    @property
    def cardinality(self) -> int:
        return self._source.cardinality

    @property
    def base(self) -> Base:
        return self._source.base

    @property
    def encoding(self) -> EncodingScheme:
        return self._source.encoding

    @property
    def nonnull(self):
        memo = self._nonnull
        if memo is None:
            memo = self._nonnull = (self._served.nonnull,)
        return memo[0]

    def _key(self, component: int, slot: int) -> tuple:
        return self._prefix + (component, slot)

    def fetch(self, component: int, slot: int, stats: ExecutionStats):
        if stats.deadline is not None:
            stats.deadline.check("fetch")
        key = self._key(component, slot)
        bitmap = self._cache.get(key)
        if bitmap is not None and self._faults is not None:
            plan = self._faults()  # the plan armed now, not at construction
            if plan is not None and plan.check("cache.get", ident="/".join(map(str, key))):
                bitmap = None  # forced miss: refetch from the source
        if bitmap is not None:
            stats.buffer_hits += 1
            if stats.trace is not None:
                stats.trace.event(
                    "cache.hit",
                    kind="cache",
                    component=component,
                    slot=slot,
                    codec=self.bitmap_codec,
                    **dict(zip(("relation", "attribute"), self._prefix)),
                )
            return bitmap
        bitmap = self._served.fetch(component, slot, stats)
        self._admit(key, bitmap)
        return bitmap

    def _admit(self, key: tuple, bitmap) -> None:
        """Cache a missed bitmap (a :class:`~repro.storage.buffer.BufferPool`
        admits nothing past its preload)."""
        self._cache.put(key, bitmap)
