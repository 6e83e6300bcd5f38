"""A bitmap-granularity buffer pool (paper Section 10).

Wraps any bitmap source; fetches served from memory cost no scan.  Two
policies:

- ``'pinned'`` — the paper's model: a fixed
  :class:`~repro.core.buffering.BufferAssignment` decides how many bitmaps
  of each component stay resident (Theorem 10.1's optimal assignment by
  default).  Which slots to pin is immaterial under the paper's
  uniform-reference assumption; we pin evenly spaced slots so measured hit
  rates track the ``f_i / (b_i - 1)`` model closely.
- ``'lru'`` — a classical least-recently-used pool of ``capacity``
  bitmaps, provided as an ablation against the paper's pinned-optimal
  policy.

Either way the resident bitmaps live in a
:class:`~repro.engine.cache.SharedBitmapCache`, the engine's cache class
(one LRU, one lock, one set of counters); the policies differ only in
admission — LRU admits every miss, pinned is filled once at preload.
"""

from __future__ import annotations

from repro.bitmaps.bitvector import BitVector
from repro.core.buffering import BufferAssignment, optimal_assignment
from repro.core.encoding import EncodingScheme, stored_bitmap_count
from repro.core.index import BitmapSource
from repro.engine.cache import SharedBitmapCache
from repro.errors import BufferConfigError
from repro.stats import ExecutionStats


def _pinned_slots(stored: tuple[int, ...], count: int) -> set[int]:
    """Choose ``count`` evenly spaced slots out of the stored ones."""
    if count >= len(stored):
        return set(stored)
    if count == 0:
        return set()
    step = len(stored) / count
    return {stored[int(k * step)] for k in range(count)}


class BufferPool:
    """A bitmap buffer in front of a slower bitmap source.

    Parameters
    ----------
    source:
        The underlying bitmap source: an index, a storage scheme, or one
        attribute of an index store (``store.bitmap_source(relation,
        attribute)``).
    assignment:
        Pinned-policy buffer assignment; defaults to the Theorem 10.1
        optimal assignment for ``capacity`` bitmaps.
    capacity:
        Total buffered bitmaps ``m``.  Required for the LRU policy and for
        the default pinned assignment.
    policy:
        ``'pinned'`` (the paper's model, default) or ``'lru'``.

    An LRU ``capacity`` of 0 means *no caching*: every fetch is a recorded
    miss passed straight to the source and nothing is ever stored.  The
    pool is thread-safe — the LRU order and the hit/miss counters mutate
    under the lock of :attr:`cache`.
    """

    def __init__(
        self,
        source: BitmapSource,
        assignment: BufferAssignment | None = None,
        capacity: int | None = None,
        policy: str = "pinned",
    ):
        if policy not in ("pinned", "lru"):
            raise BufferConfigError(f"unknown buffer policy {policy!r}")
        if not callable(getattr(source, "fetch", None)):
            raise BufferConfigError(
                f"{type(source).__name__} is not a bitmap source; to front an "
                f"index store pass store.bitmap_source(relation, attribute)"
            )
        self.source = source
        self.policy = policy
        self.base = source.base
        self.encoding = source.encoding
        self.nbits = source.nbits
        self.cardinality = source.cardinality
        self.nonnull = source.nonnull
        # Serve whatever representation the wrapped source serves; buffered
        # compressed bitmaps keep the pool's memory footprint proportional
        # to compressed (not dense) size.
        self.bitmap_codec = source.bitmap_codec

        if policy == "pinned":
            if assignment is None:
                if capacity is None:
                    raise BufferConfigError(
                        "pinned policy needs an assignment or a capacity"
                    )
                assignment = optimal_assignment(source.base, capacity)
            if assignment.base != source.base:
                raise BufferConfigError(
                    "assignment base does not match the source index"
                )
            self.assignment = assignment
            self.cache = SharedBitmapCache(assignment.total)
            self._load_pinned()
        else:
            if capacity is None or capacity < 0:
                raise BufferConfigError("lru policy needs a capacity >= 0")
            self.assignment = None
            self.capacity = capacity
            self.cache = SharedBitmapCache(capacity)

    # ------------------------------------------------------------------

    def _stored_slots(self, component: int) -> tuple[int, ...]:
        stored = getattr(self.source, "stored_slots", None)
        if callable(stored):
            return stored(component)
        # Fall back to the encoding's canonical layout.
        b = self.base.component(component)
        if self.encoding is EncodingScheme.EQUALITY and b == 2:
            return (1,)
        return tuple(range(stored_bitmap_count(b, self.encoding)))

    def _load_pinned(self) -> None:
        loader = ExecutionStats()  # preload IO is not charged to queries
        for i in range(1, self.base.n + 1):
            f_i = self.assignment.counts[i - 1]
            for slot in sorted(_pinned_slots(self._stored_slots(i), f_i)):
                self.cache.put((i, slot), self.source.fetch(i, slot, loader))
        self.reset_cache()

    # ------------------------------------------------------------------
    # Bitmap-source protocol
    # ------------------------------------------------------------------

    def fetch(
        self, component: int, slot: int, stats: ExecutionStats
    ) -> BitVector:
        key = (component, slot)
        bitmap = self.cache.get(key)
        if bitmap is not None:
            stats.buffer_hits += 1
            if stats.trace is not None:
                stats.trace.event(
                    "buffer.hit",
                    kind="buffer",
                    component=component,
                    slot=slot,
                    policy=self.policy,
                )
            return bitmap
        # Fetch outside the cache's lock so slow source reads don't serialize
        # the pool; a racing double-fetch of the same key is harmless.
        bitmap = self.source.fetch(component, slot, stats)
        if self.policy == "lru":
            # A pinned pool is closed to admission after preload.
            self.cache.put(key, bitmap)
        return bitmap

    def reset_cache(self) -> None:
        """Propagate per-query cache resets to the underlying source."""
        reset = getattr(self.source, "reset_cache", None)
        if callable(reset):
            reset()

    @property
    def hits(self) -> int:
        return self.cache.hits

    @property
    def misses(self) -> int:
        return self.cache.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of fetches served from the buffer so far."""
        return self.cache.hit_rate
