"""A registration record: a relation, its index specs
(:class:`~repro.core.index.IndexSpec`), and one build-once entry per
served attribute.

The engine builds each attribute's entry lazily, on the first query that
touches the attribute, and memoizes it in its :class:`Registration` for
every later query.  Building an index over a large column is expensive
(seconds at warehouse scale), so the record guarantees that concurrent
first queries on the same attribute trigger exactly one build: a
per-attribute build lock serializes builders of the same attribute while
builds of *different* attributes proceed in parallel.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.index import IndexSpec
from repro.engine.cache import CachedSource
from repro.relation.relation import Relation


_serials = itertools.count()


@dataclass(eq=False)
class Registration:
    """One registration of a relation, which every query that resolves it
    reads whole: the relation and specs, a process-unique ``serial`` for
    cache keys, and ``entries``, each served attribute's one
    :class:`~repro.engine.cache.CachedSource` once built.

    ``builds`` and ``reuses`` count :meth:`entry`'s builds and lookups; a
    record the engine writes over another starts from its predecessor's
    counts.
    """

    relation: Relation
    specs: dict[str, IndexSpec]
    serial: int = field(default_factory=_serials.__next__)
    entries: dict[str, CachedSource] = field(default_factory=dict, init=False)
    builds: int = field(default=0, init=False)
    reuses: int = field(default=0, init=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)
    _building: dict = field(default_factory=dict, init=False, repr=False)

    def entry(self, attribute: str, build: Callable[[], CachedSource]) -> CachedSource:
        """The attribute's entry, built by ``build`` if absent.

        Concurrent first callers block on the attribute's build lock while
        one of them runs ``build``; the rest then count a reuse of its
        entry (double-checked locking, with real locks).  ``entries`` is
        written only here, under ``_lock``, and by the engine before it
        publishes the record.
        """
        with self._lock:
            entry = self.entries.get(attribute)
            if entry is not None:
                self.reuses += 1
                return entry
            building = self._building.setdefault(attribute, threading.Lock())
        with building:
            with self._lock:
                entry = self.entries.get(attribute)
                if entry is not None:
                    self.reuses += 1
                    return entry
            entry = build()
            with self._lock:
                self.entries[attribute] = entry
                self.builds += 1
            return entry
