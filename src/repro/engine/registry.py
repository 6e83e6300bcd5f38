"""A registration record and its thread-safe, build-once registry of indexes.

The engine builds each attribute's :class:`~repro.core.index.BitmapIndex`
lazily, on the first query that touches the attribute, and memoizes it in
its :class:`Registration`'s registry for every later query.  Building an
index over a large column is expensive (seconds at warehouse scale), so the
registry guarantees that concurrent first queries on the same attribute
trigger exactly one build: a per-key build lock serializes builders for the
same key while builds for *different* keys proceed in parallel.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field

from repro.core.decomposition import Base, integer_nth_root_ceil
from repro.core.encoding import EncodingScheme
from repro.engine.cache import CachedSource
from repro.relation.relation import Relation


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
    to the codec a store holds the bitmaps in, then the engine's.
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


class IndexRegistry:
    """Memoizes expensive index builds behind per-key locks.

    The stored values are opaque to the registry (the engine stores
    :class:`~repro.core.index.BitmapIndex` instances); the registry only
    promises each key's builder runs at most once.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._indexes: dict[Hashable, object] = {}
        self._build_locks: dict[Hashable, threading.Lock] = {}
        self.builds = 0
        self.reuses = 0

    def get_or_build(self, key: Hashable, builder: Callable[[], object]) -> object:
        """Return the memoized value for ``key``, building it if absent.

        Concurrent callers with the same key block on a per-key lock while
        one of them runs ``builder``; the rest then observe the memoized
        result (classic double-checked locking, but with real locks).
        """
        with self._lock:
            value = self._indexes.get(key)
            if value is not None:
                self.reuses += 1
                return value
            build_lock = self._build_locks.setdefault(key, threading.Lock())
        with build_lock:
            with self._lock:
                value = self._indexes.get(key)
                if value is not None:
                    self.reuses += 1
                    return value
            built = builder()
            with self._lock:
                self._indexes[key] = built
                self.builds += 1
            return built

    def carry(self, keys: list[Hashable], successors: dict | None = None) -> IndexRegistry:
        """A new registry holding this one's memoized values for ``keys``
        (those built), the values ``successors`` maps a key to, and this
        one's build/reuse counters."""
        carried = IndexRegistry()
        with self._lock:
            carried._indexes = {key: self._indexes[key] for key in keys if key in self._indexes}
            carried.builds, carried.reuses = self.builds, self.reuses
        carried._indexes.update(successors or {})
        return carried

    def peek(self, key: Hashable) -> object | None:
        """The memoized value for ``key`` without building (``None`` if absent)."""
        with self._lock:
            return self._indexes.get(key)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._indexes

    def snapshot(self) -> dict:
        """Build/reuse counters plus the number of resident indexes."""
        with self._lock:
            return {
                "indexes": len(self._indexes),
                "builds": self.builds,
                "reuses": self.reuses,
            }


_serials = itertools.count()


@dataclass(eq=False)
class Registration:
    """One registration of a relation, which every query that resolves it
    reads whole: the relation and specs, a process-unique ``serial`` for
    cache keys, and the build-once memo of each attribute's ``indexes``
    entry and ``served`` source."""

    relation: Relation
    specs: dict[str, IndexSpec]
    indexes: IndexRegistry = field(default_factory=IndexRegistry)
    served: dict[str, CachedSource] = field(default_factory=dict)
    serial: int = field(default_factory=_serials.__next__)

    @property
    def generation(self) -> int | None:
        """The relation's store generation (``None`` in memory)."""
        return self.relation.generation
