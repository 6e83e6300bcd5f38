"""A bitmap-granularity buffer pool (paper Section 10).

The paper's buffer pins a fixed :class:`~repro.core.buffering.BufferAssignment`:
how many bitmaps of each component stay resident (Theorem 10.1's optimal
assignment by default), priced by Eq. 5.  :class:`BufferPool` is that
buffer as a :class:`~repro.engine.cache.CachedSource` — the engine's one
fetch path over its own :class:`~repro.engine.cache.SharedBitmapCache` —
which only picks and preloads the assigned slots, then admits nothing
else.  Which slots to pin is immaterial under the paper's
uniform-reference assumption; we pin evenly spaced slots so measured hit
rates track the ``f_i / (b_i - 1)`` model closely.  An LRU buffer of
``m`` bitmaps is the plain ``CachedSource(source, SharedBitmapCache(m), ())``.
"""

from __future__ import annotations

from repro.core.buffering import BufferAssignment, optimal_assignment
from repro.core.encoding import EncodingScheme, stored_bitmap_count
from repro.core.index import BitmapSource
from repro.engine.cache import CachedSource, SharedBitmapCache
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


class BufferPool(CachedSource):
    """A pinned bitmap buffer in front of a slower bitmap source.

    Parameters
    ----------
    source:
        The underlying bitmap source: an index, a storage scheme, or one
        attribute of an index store (``store.bitmap_source(relation,
        attribute)``).
    assignment:
        The buffer assignment; defaults to the Theorem 10.1 optimal
        assignment for ``capacity`` bitmaps.
    capacity:
        Total buffered bitmaps ``m``, for the default assignment.

    A pool over an index keeps answering it after maintenance, which
    returns a successor.  Thread-safe: the hit/miss counters mutate under
    the lock of :attr:`cache`.
    """

    __slots__ = ("assignment",)

    def __init__(
        self,
        source: BitmapSource,
        assignment: BufferAssignment | None = None,
        capacity: int | None = None,
    ):
        if not callable(getattr(source, "fetch", None)):
            raise BufferConfigError(
                f"{type(source).__name__} is not a bitmap source; to front an "
                f"index store pass store.bitmap_source(relation, attribute)"
            )
        if assignment is None:
            if capacity is None:
                raise BufferConfigError("a buffer pool needs an assignment or a capacity")
            assignment = optimal_assignment(source.base, capacity)
        if assignment.base != source.base:
            raise BufferConfigError("assignment base does not match the source index")
        super().__init__(source, SharedBitmapCache(assignment.total), ())
        self.assignment = assignment
        loader = ExecutionStats()  # preload IO is not charged to queries
        for i in range(1, source.base.n + 1):
            for slot in sorted(_pinned_slots(self._stored_slots(i), assignment.counts[i - 1])):
                self._cache.put(self._key(i, slot), source.fetch(i, slot, loader))
        self.reset_cache()

    def _stored_slots(self, component: int) -> tuple[int, ...]:
        stored = getattr(self._source, "stored_slots", None)
        if callable(stored):
            return stored(component)
        # Fall back to the encoding's canonical layout.
        b = self.base.component(component)
        if self.encoding is EncodingScheme.EQUALITY and b == 2:
            return (1,)
        return tuple(range(stored_bitmap_count(b, self.encoding)))

    def _admit(self, key: tuple, bitmap) -> None:
        """Closed: the preloaded assignment is the whole buffer."""

    def reset_cache(self) -> None:
        """Propagate per-query cache resets to the underlying source."""
        reset = getattr(self._source, "reset_cache", None)
        if callable(reset):
            reset()

    @property
    def cache(self) -> SharedBitmapCache:
        """The pool's own cache: the pinned bitmaps and the hit/miss counters."""
        return self._cache

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of fetches served from the buffer so far."""
        return self._cache.hit_rate
