"""Outside-in layer attribution: timing wrappers around ``repro``'s public
entry points, installed for the traced run only and removed in a ``finally``.

No file under ``src/`` knows about this module.  Classes get their
attributes replaced; functions are swapped by identity in every loaded
``repro.*`` module, so call sites that did ``from … import evaluate`` are
caught too.

A span is ``[key, parent, query id, start ns, end ns]``; ``key`` indexes
``Tracer.keys`` (``(layer, name)`` pairs).  A layer's self time is its
spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np

from repro.bitmaps.bitvector import BitVector
from repro.bitmaps.compressed import WahBitVector
from repro.bitmaps.roaring import RoaringBitmap
from repro.core import evaluation
from repro.engine.cache import SharedBitmapCache
from repro.query import executor, expression, options
from repro.storage.store import IndexStore, StoreBitmapSource

KERNELS = (
    "__and__", "__or__", "__xor__", "__invert__", "andnot",
    "and_many", "or_many", "threshold_many", "count", "and_count",
)  # fmt: skip
BITMAP_CLASSES = (BitVector, WahBitVector, RoaringBitmap)
EXPRESSION_NODES = (
    expression.Comparison, expression.In, expression.Between, expression.And,
    expression.Or, expression.Xor, expression.Threshold, expression.Not,
)  # fmt: skip

#: (owner class, attribute names, layer, span name or None for the attribute's own).
CLASS_ENTRY_POINTS = (
    *((cls, KERNELS, "bitmaps", "kernel") for cls in BITMAP_CLASSES),
    *((cls, ("indices",), "bitmaps", "materialize") for cls in BITMAP_CLASSES),
    *((cls, ("bitmap",), "query", "walk") for cls in EXPRESSION_NODES),
    (SharedBitmapCache, ("get",), "engine.cache", "get"),
    (SharedBitmapCache, ("put", "drop_group"), "engine.cache", "put"),
    (StoreBitmapSource, ("fetch", "nonnull"), "storage.store", "fetch"),
    (
        IndexStore,
        ("bitmap_source", "relation_view", "relations", "invalidate",
         "build", "append", "compact"),
        "storage.store",
        None,
    ),
)  # fmt: skip

#: (function, layer, span name).
FUNCTION_ENTRY_POINTS = (
    (options.normalize_query, "query", "normalize"),
    (expression.parse_expression, "query", "parse"),
    (executor.execute, "query", "execute"),
    (evaluation.evaluate, "core.evaluation", "evaluate"),
    (evaluation.group_counts, "core.evaluation", "group_counts"),
    (evaluation.threshold_all, "core.evaluation", "threshold_all"),
)

ROOT_LAYER = "engine"


class Tracer:
    def __init__(self):
        self.keys: list[tuple[str, str]] = []
        self._key_ids: dict[tuple[str, str], int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self._query = -1
        self.queries = 0

    def key(self, layer: str, name: str) -> int:
        ident = self._key_ids.get((layer, name))
        if ident is None:
            ident = self._key_ids[(layer, name)] = len(self.keys)
            self.keys.append((layer, name))
        return ident

    @contextlib.contextmanager
    def query(self, op: str):
        """The root span of one query; spans opened inside carry its id."""
        self._query = self.queries
        self.queries += 1
        index = self._open(self.key(ROOT_LAYER, op))
        try:
            yield
        finally:
            self._close(index)
            self._query = -1

    def _open(self, key: int) -> int:
        stack = self._stack
        index = len(self.spans)
        self.spans.append(
            [key, stack[-1] if stack else -1, self._query, time.perf_counter_ns(), 0]
        )
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, layer: str, name: str):
        key, open_span, close_span = self.key(layer, name), self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(key)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point; restore all of them on the way out."""
        undo: list[tuple[object, str, object]] = []
        try:
            for owner, names, layer, span_name in CLASS_ENTRY_POINTS:
                for attr in names:
                    raw = owner.__dict__.get(attr)
                    if raw is None:
                        continue
                    label = span_name or attr
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self._wrap(raw.__func__, layer, label))
                    elif isinstance(raw, property):
                        new = property(self._wrap(raw.fget, layer, label))
                    else:
                        new = self._wrap(raw, layer, label)
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, new)
            for fn, layer, span_name in FUNCTION_ENTRY_POINTS:
                new = self._wrap(fn, layer, span_name)
                for mod_name, module in list(sys.modules.items()):
                    if module is None or not mod_name.startswith("repro"):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            undo.append((module, attr, fn))
                            setattr(module, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def write(self, path: str, queries: int) -> None:
        """Write the spans of the first ``queries`` queries (the first pass)
        with the key table, once, at the end."""
        cut = next(
            (i for i, span in enumerate(self.spans) if span[2] >= queries),
            len(self.spans),
        )
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["key", "parent", "query", "start_ns", "end_ns"],
                    "keys": [list(k) for k in self.keys],
                    "spans_total": len(self.spans),
                    "spans": self.spans[:cut],
                },
                handle,
            )


class SelfTimes:
    """Per-span self times of a finished trace, summed by layer and name."""

    def __init__(self, tracer: Tracer):
        self.keys = tracer.keys
        table = np.array(tracer.spans, dtype=np.int64).reshape(-1, 5)
        self.key, parent, self.query = table[:, 0], table[:, 1], table[:, 2]
        self.duration = (table[:, 4] - table[:, 3]).astype(np.float64)
        covered = np.bincount(
            parent[parent >= 0],
            weights=self.duration[parent >= 0],
            minlength=len(table),
        )
        self.self_ns = self.duration - covered

    def _mask(self, layer: str, name: str | None, queries) -> np.ndarray:
        wanted = [
            i
            for i, (lyr, nm) in enumerate(self.keys)
            if lyr == layer and (name is None or nm == name)
        ]
        mask = np.isin(self.key, wanted) & (self.query >= 0)
        if queries is not None:
            mask &= np.isin(self.query, queries)
        return mask

    def self_ms(self, layer: str, name: str | None = None, queries=None) -> float:
        """Summed self time, inside query roots only, in milliseconds."""
        return float(self.self_ns[self._mask(layer, name, queries)].sum()) / 1e6

    def calls(self, layer: str, name: str, queries=None) -> int:
        return int(self._mask(layer, name, queries).sum())

    def root_ms(self) -> float:
        """Summed duration of the query roots."""
        return float(self.duration[self._mask(ROOT_LAYER, None, None)].sum()) / 1e6
