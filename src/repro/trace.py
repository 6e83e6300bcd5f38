"""Structured per-query tracing and EXPLAIN reports.

The paper's whole evaluation rests on two observable quantities — bitmap
*scans* (I/O) and bitmap *operations* (CPU) — but aggregate counters only
say *how much* a query cost, not *where*.  This module adds the missing
provenance: a :class:`QueryTrace` is a flat list of timed :class:`Span`
records emitted by every layer a query crosses (engine plan selection,
cache/buffer hits, physical bitmap fetches, each AND/OR/XOR/NOT, codec
decode work), and an :class:`ExplainReport` places the paper's *predicted*
cost (:func:`repro.core.costmodel.scans_for_predicate`) side by side with
the *actual* :class:`~repro.stats.ExecutionStats` counters, flagging any
divergence.

Tracing is threaded through the existing ``ExecutionStats`` object that
every layer already receives: ``stats.trace`` is ``None`` on the untraced
hot path (a single attribute read gates all instrumentation, so serving
overhead stays within noise) and a :class:`QueryTrace` when the caller
asked for one (``options=QueryOptions(trace=True)``, or :func:`explain`).

Span kinds, by layer:

========  ==============================================================
kind      emitted by
========  ==============================================================
plan      engine mode/access-path selection (``engine.dispatch``)
phase     pipeline phases (evaluate, materialize or aggregate.pushdown,
          verify)
fetch     physical bitmap reads (in-memory index, BS/CS/IS files)
cache     shared engine-cache hits
buffer    buffer-pool hits
op        logical bitmap operations (and/or/xor/not, k-way merges)
decode    codec decompression on the read path
shard     per-shard evaluation on the process backend (worker-timed)
fault     resilience events: dispatch retries, backend degradations,
          deadline expiry (``dispatch.retry``, ``deadline.exceeded``)
========  ==============================================================

A trace is owned by one query on one thread; it is not thread-safe and is
never shared across queries.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import InvalidPredicateError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.query.executor import QueryResult
    from repro.relation.relation import Relation


@dataclass
class Span:
    """One timed, attributed event inside a query trace.

    ``start`` and ``duration`` are seconds relative to the trace origin;
    instantaneous events have ``duration == 0``.  ``depth`` is the nesting
    level at emission time, used by :meth:`QueryTrace.format` to indent.
    """

    name: str
    kind: str
    start: float
    duration: float
    depth: int
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "attrs": dict(self.attrs),
        }


class QueryTrace:
    """An append-only record of spans produced by one query evaluation."""

    def __init__(self, label: str = "query"):
        self.label = label
        self.spans: list[Span] = []
        self._origin = time.perf_counter()
        self._depth = 0
        self._finished: float | None = None

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, kind: str = "phase", **attrs) -> Iterator[Span]:
        """Time a block; the span is recorded when the block exits."""
        started = time.perf_counter()
        record = Span(name, kind, started - self._origin, 0.0, self._depth, attrs)
        self._depth += 1
        try:
            yield record
        finally:
            self._depth -= 1
            record.duration = time.perf_counter() - started
            self.spans.append(record)

    def event(self, name: str, kind: str = "event", **attrs) -> Span:
        """Record an instantaneous event at the current nesting depth."""
        record = Span(
            name, kind, time.perf_counter() - self._origin, 0.0, self._depth, attrs
        )
        self.spans.append(record)
        return record

    def add_span(
        self, name: str, kind: str = "phase", *, seconds: float = 0.0, **attrs
    ) -> Span:
        """Record a span whose duration was measured elsewhere.

        The process backend uses this to surface per-shard evaluation
        times clocked inside worker processes: the work did not happen on
        this trace's thread, so :meth:`span` cannot time it, but it still
        belongs in the query's timeline.  The span is stamped at the
        current trace offset with the externally-measured ``seconds``.
        """
        record = Span(
            name,
            kind,
            time.perf_counter() - self._origin,
            seconds,
            self._depth,
            attrs,
        )
        self.spans.append(record)
        return record

    def finish(self) -> None:
        """Pin the trace's total duration (idempotent; optional)."""
        if self._finished is None:
            self._finished = time.perf_counter() - self._origin

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        """Trace duration: time from origin to :meth:`finish` (or now)."""
        if self._finished is not None:
            return self._finished
        return time.perf_counter() - self._origin

    def spans_of(self, kind: str) -> list[Span]:
        """Spans of one kind, in emission order."""
        return [s for s in self.spans if s.kind == kind]

    def count(self, kind: str) -> int:
        return sum(1 for s in self.spans if s.kind == kind)

    def summary(self) -> dict[str, dict]:
        """Per-kind rollup: span count and summed duration."""
        out: dict[str, dict] = {}
        for s in self.spans:
            entry = out.setdefault(s.kind, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += s.duration
        return out

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "total_seconds": self.total_seconds,
            "summary": self.summary(),
            "spans": [s.as_dict() for s in sorted(self.spans, key=lambda s: s.start)],
        }

    def format(self) -> str:
        """The trace as an indented, human-readable text tree."""
        lines = [f"trace: {self.label}  ({1e3 * self.total_seconds:.3f} ms)"]
        for s in sorted(self.spans, key=lambda s: (s.start, s.depth)):
            attrs = " ".join(f"{k}={v}" for k, v in s.attrs.items())
            pad = "  " * (s.depth + 1)
            lines.append(
                f"{pad}{s.name} [{s.kind}] {1e3 * s.duration:.3f} ms"
                + (f"  {attrs}" if attrs else "")
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"QueryTrace(label={self.label!r}, spans={len(self.spans)}, "
            f"seconds={self.total_seconds:.6f})"
        )


# ----------------------------------------------------------------------
# Predicted cost (the paper's model) for one query
# ----------------------------------------------------------------------


def predicted_leaf_costs(
    relation: "Relation",
    query,
    sources: dict,
    algorithm: str = "auto",
) -> list[dict]:
    """Per-leaf predicted bitmap scans for an expression tree.

    ``sources`` maps attribute names to bitmap-source-like objects exposing
    ``base``, ``cardinality``, and ``encoding`` (a
    :class:`~repro.core.index.BitmapIndex`, a storage scheme, or the
    engine's cached view).  Each leaf entry carries the translated
    code-domain predicate so the prediction mirrors exactly what the
    evaluator will run.
    """
    from repro.core.costmodel import scans_for_predicate

    costs: list[dict] = []
    for leaf in query.leaves():
        column = relation.column(leaf.attribute)
        source = sources.get(leaf.attribute)
        if source is None:
            raise InvalidPredicateError(
                f"no bitmap source for attribute {leaf.attribute!r}"
            )
        code_op, code = column.code_bounds(leaf.op, leaf.value)
        entry = {
            "predicate": str(leaf),
            "attribute": leaf.attribute,
            "code_op": code_op,
            "code": int(code),
            "base": str(source.base),
            "encoding": source.encoding.value,
            "scans": scans_for_predicate(
                source.base,
                source.cardinality,
                code_op,
                code,
                source.encoding,
                algorithm=algorithm,
            ),
        }
        costs.append(entry)
    return costs


# ----------------------------------------------------------------------
# EXPLAIN
# ----------------------------------------------------------------------


@dataclass
class ExplainReport:
    """Predicted vs. actual cost of one query, plus its trace.

    ``predicted_scans`` is the paper's cost-model scan count summed over
    the query's leaves.  ``actual`` is the executed query's
    :meth:`~repro.stats.ExecutionStats.as_dict`.  On an uncached run
    ``actual["scans"]`` equals ``predicted_scans``; on a warm cache the
    invariant that holds instead is ``scans + buffer_hits ==
    predicted_scans`` (a hit replaces a physical scan one-for-one), which
    is what :attr:`divergences` checks.
    """

    query: str
    relation: str
    mode: str  # "predicate" | "expression"
    bitmap_codec: str
    rows: int
    predicted_scans: int
    predicted_leaves: list[dict]
    actual: dict
    divergences: list[str]
    trace: QueryTrace | None = None
    storage_io: dict | None = None
    plan: str | None = None

    compressed = property(lambda self: self.bitmap_codec != "dense")

    @property
    def effective_fetches(self) -> int:
        """Physical scans plus cache/buffer hits — comparable to prediction."""
        return int(self.actual.get("scans", 0)) + int(
            self.actual.get("buffer_hits", 0)
        )

    @property
    def matches_prediction(self) -> bool:
        """True when the cost model accounts for every observed fetch."""
        return not self.divergences

    def as_dict(self) -> dict:
        out = {
            "query": self.query,
            "relation": self.relation,
            "mode": self.mode,
            "compressed": self.compressed,
            "rows": self.rows,
            "predicted_scans": self.predicted_scans,
            "predicted_leaves": self.predicted_leaves,
            "actual": dict(self.actual),
            "effective_fetches": self.effective_fetches,
            "divergences": list(self.divergences),
            "storage_io": self.storage_io,
            "plan": self.plan,
        }
        if self.trace is not None:
            out["trace"] = self.trace.as_dict()
        return out

    def format(self) -> str:
        """The report as a readable text block (the EXPLAIN output)."""
        lines = [f"EXPLAIN {self.query}  ON {self.relation}"]
        lines.append(
            f"  mode={self.mode}  compressed={'yes' if self.compressed else 'no'}"
            + (f"  plan={self.plan}" if self.plan else "")
        )
        lines.append(f"  predicted (cost model): {self.predicted_scans} bitmap scans")
        for leaf in self.predicted_leaves:
            lines.append(
                f"    {leaf['predicate']}  ->  A {leaf['code_op']} "
                f"{leaf['code']}  [base {leaf['base']}, {leaf['encoding']}]"
                f": {leaf['scans']} scans"
            )
        a = self.actual
        lines.append(
            f"  actual: {a.get('scans', 0)} scans, "
            f"{a.get('buffer_hits', 0)} cache/buffer hits, "
            f"{a.get('ops', 0)} bitmap ops "
            f"({a.get('ands', 0)} AND, {a.get('ors', 0)} OR, "
            f"{a.get('xors', 0)} XOR, {a.get('nots', 0)} NOT), "
            f"{a.get('bytes_read', 0)} bytes read"
        )
        if a.get("decompressed_bytes"):
            lines.append(f"  decode: {a['decompressed_bytes']} bytes inflated")
        if self.storage_io is not None:
            s = self.storage_io
            lines.append(
                f"  storage I/O ({s.get('backend', '?')}, cumulative): "
                f"{s.get('payload_bytes_read', 0)} payload bytes read, "
                f"{s.get('bitmaps_materialized', 0)} bitmaps materialized, "
                f"{s.get('dict_bytes', 0)} dictionary bytes, "
                f"{s.get('pages_touched', 0)} pages touched"
            )
        lines.append(f"  rows: {self.rows}")
        if self.divergences:
            for message in self.divergences:
                lines.append(f"  DIVERGENCE: {message}")
        else:
            lines.append(
                "  verdict: cost model matches observation "
                f"(scans + hits = {self.effective_fetches})"
            )
        if self.trace is not None:
            lines.append(self.trace.format())
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


def build_explain_report(
    relation: "Relation",
    query,
    sources: dict,
    result: "QueryResult",
    *,
    mode: str,
    bitmap_codec: str = "dense",
    algorithm: str = "auto",
    storage_io: dict | None = None,
    plan: str | None = None,
) -> ExplainReport:
    """Assemble an :class:`ExplainReport` from an executed, traced query."""
    leaves = predicted_leaf_costs(relation, query, sources, algorithm=algorithm)
    predicted = sum(leaf["scans"] for leaf in leaves)
    actual = result.stats.as_dict()
    divergences: list[str] = []
    effective = actual["scans"] + actual["buffer_hits"]
    if effective != predicted:
        divergences.append(
            f"cost model predicted {predicted} bitmap scans but the run "
            f"observed {actual['scans']} scans + {actual['buffer_hits']} "
            f"cache/buffer hits = {effective}"
        )
    return ExplainReport(
        query=str(query),
        relation=relation.name,
        mode=mode,
        bitmap_codec=bitmap_codec,
        rows=result.count,
        predicted_scans=predicted,
        predicted_leaves=leaves,
        actual=actual,
        divergences=divergences,
        trace=result.trace,
        storage_io=storage_io,
        plan=plan,
    )


def explain(
    relation: "Relation",
    query,
    indexes: dict,
    *,
    algorithm: str = "auto",
    verify: bool = False,
) -> ExplainReport:
    """Run ``query`` through ``indexes`` with tracing on and explain it.

    The engine-free counterpart of :meth:`QueryEngine.explain
    <repro.engine.engine.QueryEngine.explain>`: the query runs through
    :func:`~repro.query.executor.execute`, so ``query`` is any form that
    door takes and ``indexes`` maps attribute names to bitmap sources.
    """
    from repro.query.executor import execute
    from repro.query.expression import query_mode
    from repro.query.options import QueryOptions, normalize_query

    q = normalize_query(query)
    options = QueryOptions(verify=verify, algorithm=algorithm, trace=True)
    return build_explain_report(
        relation,
        q,
        indexes,
        execute(relation, q, indexes, options=options),
        mode=query_mode(q),
        bitmap_codec=indexes[min(q.attributes())].bitmap_codec,
        algorithm=algorithm,
    )
