"""Selection-query evaluation algorithms over bitmap indexes.

Three algorithms from the paper (Section 3 and Figure 6):

- :func:`range_eval` — Algorithm ``RangeEval`` (O'Neil & Quass' Algorithm
  4.3), the prior state of the art for range-encoded indexes.  It
  incrementally maintains ``B_EQ`` plus ``B_LT``/``B_GT`` over the
  components, which costs roughly twice the bitmap operations and one more
  bitmap scan than necessary for range predicates.
- :func:`range_eval_opt` — Algorithm ``RangeEval-Opt``, the paper's
  improvement.  It rewrites every range predicate in terms of ``<=`` alone
  using the identities ``A < v ≡ A <= v-1``, ``A > v ≡ NOT(A <= v)``,
  ``A >= v ≡ NOT(A <= v-1)`` and computes a single running bitmap.
- :func:`equality_eval` — the evaluator for *equality-encoded* indexes
  (sketched in the paper's Section 5; the full version lived in the
  companion technical report).  Reconstructed here with the complement
  optimization: a per-component ``digit < v_i`` bitmap is built from
  whichever side of the component needs fewer bitmap reads, and the
  ``digit = v_i`` bitmap is reused from the complement scan when possible.

Every algorithm takes any object implementing the
:class:`~repro.core.index.BitmapSource` protocol and an
:class:`~repro.stats.ExecutionStats` to which it charges bitmap scans
(via ``source.fetch``) and logical operations.

The algorithms are generic over the bitmap algebra: a source declares the
representation it serves via its ``bitmap_codec`` attribute (``"dense"``,
``"wah"``, or ``"roaring"``) and the same code paths run entirely in that
domain, producing bit-identical results with identical operation counts
(the virtual all-zero/all-one bitmaps are synthesized in the source's
representation via :func:`_zeros`/:func:`_ones`).

Conventions shared with the paper's cost model:

- Reads of the non-null bitmap ``B_nn`` are not charged as scans.
- Virtual bitmaps (the all-ones top bitmap of a range-encoded component,
  an all-zero ``B_LT`` accumulator before its first update) cost no scan;
  operations against them are charged as performed.
- Predicate constants outside ``[0, C)`` are legal and short-circuit to
  the trivial all/none result without touching the index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitmaps import Bitmap, BitVector, bitmap_class
from repro.core.encoding import EncodingScheme
from repro.core.index import BitmapSource
from repro.errors import InvalidPredicateError
from repro.stats import ExecutionStats

#: The six comparison operators of the paper's query class.
OPERATORS = ("<", "<=", "=", "!=", ">=", ">")
RANGE_OPERATORS = ("<", "<=", ">=", ">")
EQUALITY_OPERATORS = ("=", "!=")


@dataclass(frozen=True)
class Predicate:
    """A selection predicate ``A op value``.

    ``op`` is one of ``<  <=  =  !=  >=  >`` and ``value`` an integer.
    """

    op: str
    value: int

    def __post_init__(self):
        if self.op not in OPERATORS:
            raise InvalidPredicateError(
                f"unknown operator {self.op!r}; expected one of {OPERATORS}"
            )

    @property
    def is_range(self) -> bool:
        """``True`` for the four range operators, ``False`` for ``=``/``!=``."""
        return self.op in RANGE_OPERATORS

    def matches(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of rows satisfying the predicate (ground truth)."""
        v = np.asarray(values)
        if self.op == "<":
            return v < self.value
        if self.op == "<=":
            return v <= self.value
        if self.op == "=":
            return v == self.value
        if self.op == "!=":
            return v != self.value
        if self.op == ">=":
            return v >= self.value
        return v > self.value

    def __str__(self) -> str:
        return f"A {self.op} {self.value}"


# ----------------------------------------------------------------------
# Counted logical operations
# ----------------------------------------------------------------------


def _and(a: Bitmap, b: Bitmap, stats: ExecutionStats) -> Bitmap:
    stats.ands += 1
    if stats.trace is not None:
        with stats.trace.span("and", kind="op", nbits=a.nbits):
            return a & b
    return a & b


def _or(a: Bitmap, b: Bitmap, stats: ExecutionStats) -> Bitmap:
    stats.ors += 1
    if stats.trace is not None:
        with stats.trace.span("or", kind="op", nbits=a.nbits):
            return a | b
    return a | b


def _xor(a: Bitmap, b: Bitmap, stats: ExecutionStats) -> Bitmap:
    stats.xors += 1
    if stats.trace is not None:
        with stats.trace.span("xor", kind="op", nbits=a.nbits):
            return a ^ b
    return a ^ b


def _not(a: Bitmap, stats: ExecutionStats) -> Bitmap:
    stats.nots += 1
    if stats.trace is not None:
        with stats.trace.span("not", kind="op", nbits=a.nbits):
            return ~a
    return ~a


def _or_all(vectors: list, stats: ExecutionStats) -> Bitmap:
    """OR a non-empty list of bitmaps, charging ``len - 1`` operations.

    Compressed operands go through their codec's k-way kernel
    (:meth:`~repro.bitmaps.compressed.WahBitVector.or_many` run merge,
    :meth:`~repro.bitmaps.roaring.RoaringBitmap.or_many` container merge —
    one pass over the operands instead of ``k - 1`` intermediate
    payloads); dense operands fold pairwise.  Either way the charged
    operation count is identical, so all executions report the same
    :class:`ExecutionStats`.
    """
    if len(vectors) == 1:
        return vectors[0]
    stats.ors += len(vectors) - 1

    def merge() -> Bitmap:
        cls = type(vectors[0])
        if cls is not BitVector and all(type(v) is cls for v in vectors):
            return cls.or_many(vectors)
        acc = vectors[0]
        for v in vectors[1:]:
            acc = acc | v
        return acc

    if stats.trace is not None:
        with stats.trace.span(
            "or_many", kind="op", nbits=vectors[0].nbits, count=len(vectors) - 1
        ):
            return merge()
    return merge()


def threshold_all(vectors: list, k: int, stats: ExecutionStats) -> Bitmap:
    """k-of-N threshold over a non-empty list of bitmaps.

    Bit ``i`` of the result is set iff at least ``k`` operands set it.
    Each codec runs its native k-way kernel
    (:meth:`~repro.bitmaps.compressed.WahBitVector.threshold_many`
    run-aligned counting,
    :meth:`~repro.bitmaps.roaring.RoaringBitmap.threshold_many`
    container-wise counters, :meth:`BitVector.threshold_many` word
    counting); mixed-representation operands fall back to counting over
    booleans.  The charged operation count — ``len(vectors) - 1`` ORs,
    the same as :func:`_or_all` — is identical across codecs and
    independent of the data, so every execution reports the same
    :class:`ExecutionStats`.

    ``k <= 0`` (trivially all rows) and ``k > N`` (unsatisfiable) clamp
    to the constant bitmap without charging any operation, mirroring
    :func:`_clamp_trivial`.
    """
    cls = type(vectors[0])
    if k <= 0:
        return cls.ones(vectors[0].nbits)
    if k > len(vectors):
        return cls.zeros(vectors[0].nbits)
    if len(vectors) == 1:
        return vectors[0]
    stats.ors += len(vectors) - 1

    def merge() -> Bitmap:
        if all(type(v) is cls for v in vectors):
            return cls.threshold_many(vectors, k)
        counts = np.zeros(vectors[0].nbits, dtype=np.int32)
        for v in vectors:
            counts += v.to_bools()
        return cls.from_bitvector(BitVector.from_bools(counts >= k))

    if stats.trace is not None:
        with stats.trace.span(
            "threshold",
            kind="op",
            nbits=vectors[0].nbits,
            k=k,
            count=len(vectors) - 1,
        ):
            return merge()
    return merge()


def _zeros(source: BitmapSource) -> Bitmap:
    """A virtual all-zero bitmap in the source's representation."""
    return bitmap_class(source.bitmap_codec).zeros(source.nbits)


def _ones(source: BitmapSource) -> Bitmap:
    """A virtual all-one bitmap in the source's representation."""
    return bitmap_class(source.bitmap_codec).ones(source.nbits)


def _all_rows(source: BitmapSource, stats: ExecutionStats) -> Bitmap:
    """The `everything` result: all rows, masked by ``B_nn`` when present."""
    if source.nonnull is not None:
        return source.nonnull.copy()
    return _ones(source)


def _mask_nn(
    result: Bitmap, source: BitmapSource, stats: ExecutionStats
) -> Bitmap:
    """AND the result with ``B_nn`` when the index tracks nulls."""
    if source.nonnull is not None:
        return _and(result, source.nonnull, stats)
    return result


def _clamp_trivial(
    source: BitmapSource, predicate: Predicate, stats: ExecutionStats
) -> Bitmap | None:
    """Short-circuit predicates whose constant lies outside ``[0, C)``."""
    c = source.cardinality
    v, op = predicate.value, predicate.op
    if v < 0:
        if op in ("<", "<=", "="):
            return _zeros(source)
        return _all_rows(source, stats)
    if v >= c:
        if op in ("<", "<=", "!="):
            return _all_rows(source, stats)
        return _zeros(source)
    return None


# ----------------------------------------------------------------------
# Algorithm RangeEval-Opt (the paper's contribution)
# ----------------------------------------------------------------------


def range_eval_opt(
    source: BitmapSource,
    predicate: Predicate,
    stats: ExecutionStats | None = None,
) -> Bitmap:
    """Evaluate a predicate on a *range-encoded* index with RangeEval-Opt.

    Returns the result bitmap; scans/ops are recorded on ``stats``.
    """
    stats = stats if stats is not None else ExecutionStats()
    _require_encoding(source, EncodingScheme.RANGE)
    trivial = _clamp_trivial(source, predicate, stats)
    if trivial is not None:
        return trivial

    op, v = predicate.op, predicate.value
    complement = op in (">", ">=", "!=")
    if op in ("<", ">="):
        v -= 1

    if predicate.is_range:
        if v < 0:
            result = _zeros(source)
            if complement:
                result = _all_rows(source, stats)
            return result
        if v >= source.cardinality - 1:
            # A <= v is everything (within the domain).
            if complement:
                return _zeros(source)
            return _all_rows(source, stats)
        result = _le_bitmap_opt(source, v, stats)
    else:
        result = _eq_bitmap_range_encoded(source, v, stats)

    if complement:
        result = _not(result, stats)
    return _mask_nn(result, source, stats)


def _le_bitmap_opt(
    source: BitmapSource, v: int, stats: ExecutionStats
) -> Bitmap:
    """``A <= v`` via RangeEval-Opt's single-accumulator loop (0 <= v < C-1)."""
    base = source.base
    digits = base.digits(v)
    b1 = base.component(1)
    if digits[0] < b1 - 1:
        acc = source.fetch(1, digits[0], stats)
    else:
        acc = _ones(source)  # virtual B_1^{b_1 - 1}
    for i in range(2, base.n + 1):
        vi = digits[i - 1]
        bi = base.component(i)
        if vi != bi - 1:
            acc = _and(acc, source.fetch(i, vi, stats), stats)
        if vi != 0:
            acc = _or(acc, source.fetch(i, vi - 1, stats), stats)
    return acc


def _eq_bitmap_range_encoded(
    source: BitmapSource, v: int, stats: ExecutionStats
) -> Bitmap:
    """``A = v`` on a range-encoded index (shared by both algorithms)."""
    base = source.base
    digits = base.digits(v)
    acc: Bitmap | None = None
    for i in range(1, base.n + 1):
        vi = digits[i - 1]
        bi = base.component(i)
        if vi == 0:
            term = source.fetch(i, 0, stats)
        elif vi == bi - 1:
            term = _not(source.fetch(i, bi - 2, stats), stats)
        else:
            term = _xor(
                source.fetch(i, vi, stats),
                source.fetch(i, vi - 1, stats),
                stats,
            )
        acc = term if acc is None else _and(acc, term, stats)
    assert acc is not None
    return acc


# ----------------------------------------------------------------------
# Algorithm RangeEval (O'Neil & Quass 4.3) — the baseline
# ----------------------------------------------------------------------


def range_eval(
    source: BitmapSource,
    predicate: Predicate,
    stats: ExecutionStats | None = None,
) -> Bitmap:
    """Evaluate a predicate on a *range-encoded* index with RangeEval.

    Maintains ``B_EQ`` plus ``B_LT`` or ``B_GT`` across components.  Only
    the accumulators the requested operator needs are computed (the paper:
    "steps that involved B_GT, B_GE, or B_NE are not required" for ``<=``).
    A bitmap fetched twice within one component (``B^{v_i-1}`` feeds both
    the LT and EQ updates) is read once and reused, which yields the
    paper's worst case of 2n scans per range predicate.
    """
    stats = stats if stats is not None else ExecutionStats()
    _require_encoding(source, EncodingScheme.RANGE)
    trivial = _clamp_trivial(source, predicate, stats)
    if trivial is not None:
        return trivial

    op, v = predicate.op, predicate.value
    need_lt = op in ("<", "<=")
    need_gt = op in (">", ">=")
    base = source.base
    digits = base.digits(v)

    cache: dict[tuple[int, int], Bitmap] = {}

    def fetch(i: int, slot: int) -> Bitmap:
        key = (i, slot)
        if key not in cache:
            cache[key] = source.fetch(i, slot, stats)
        return cache[key]

    b_eq = _all_rows(source, stats)
    b_lt = _zeros(source)
    b_gt = _zeros(source)

    for i in range(base.n, 0, -1):
        vi = digits[i - 1]
        bi = base.component(i)
        cache.clear()
        if vi > 0:
            if need_lt:
                b_lt = _or(b_lt, _and(b_eq, fetch(i, vi - 1), stats), stats)
            if vi < bi - 1:
                if need_gt:
                    b_gt = _or(
                        b_gt, _and(b_eq, _not(fetch(i, vi), stats), stats), stats
                    )
                b_eq = _and(
                    b_eq, _xor(fetch(i, vi), fetch(i, vi - 1), stats), stats
                )
            else:
                b_eq = _and(b_eq, _not(fetch(i, bi - 2), stats), stats)
        else:
            if need_gt:
                b_gt = _or(
                    b_gt, _and(b_eq, _not(fetch(i, 0), stats), stats), stats
                )
            b_eq = _and(b_eq, fetch(i, 0), stats)

    if op == "<":
        return b_lt
    if op == "<=":
        return _or(b_lt, b_eq, stats)
    if op == ">":
        return b_gt
    if op == ">=":
        return _or(b_gt, b_eq, stats)
    if op == "=":
        return b_eq
    # op == "!=": B_NE = NOT B_EQ AND B_nn
    return _mask_nn(_not(b_eq, stats), source, stats)


# ----------------------------------------------------------------------
# Equality-encoded evaluation
# ----------------------------------------------------------------------


def equality_eval(
    source: BitmapSource,
    predicate: Predicate,
    stats: ExecutionStats | None = None,
) -> Bitmap:
    """Evaluate a predicate on an *equality-encoded* index.

    Equality predicates cost one scan per component.  Range predicates are
    reduced to ``A <= v`` form and evaluated with the Horner-style
    combination ``LE_i = LT_i OR (EQ_i AND LE_{i-1})``; each component's
    ``LT``/``LE`` bitmap is assembled from whichever side of the component
    needs fewer bitmap reads (the complement optimization the paper's
    "between two and half the number of bitmaps in that component" cost
    statement presumes).
    """
    stats = stats if stats is not None else ExecutionStats()
    _require_encoding(source, EncodingScheme.EQUALITY)
    trivial = _clamp_trivial(source, predicate, stats)
    if trivial is not None:
        return trivial

    op, v = predicate.op, predicate.value
    complement = op in (">", ">=", "!=")
    if op in ("<", ">="):
        v -= 1

    if predicate.is_range:
        if v < 0:
            return (
                _all_rows(source, stats) if complement else _zeros(source)
            )
        if v >= source.cardinality - 1:
            return (
                _zeros(source) if complement else _all_rows(source, stats)
            )
        result = _le_bitmap_equality(source, v, stats)
    else:
        result = _eq_bitmap_equality(source, v, stats)

    if complement:
        result = _not(result, stats)
    return _mask_nn(result, source, stats)


def _fetch_eq(
    source: BitmapSource, i: int, j: int, stats: ExecutionStats
) -> Bitmap:
    """``digit_i == j`` on an equality-encoded component (complement trick)."""
    bi = source.base.component(i)
    if bi == 2 and j == 0:
        return _not(source.fetch(i, 1, stats), stats)
    return source.fetch(i, j, stats)


def _eq_bitmap_equality(
    source: BitmapSource, v: int, stats: ExecutionStats
) -> Bitmap:
    base = source.base
    digits = base.digits(v)
    acc: Bitmap | None = None
    for i in range(1, base.n + 1):
        term = _fetch_eq(source, i, digits[i - 1], stats)
        acc = term if acc is None else _and(acc, term, stats)
    assert acc is not None
    return acc


def _or_slots(
    source: BitmapSource,
    i: int,
    slots: range,
    stats: ExecutionStats,
) -> Bitmap:
    """OR together the stored bitmaps of ``slots`` (must be non-empty).

    On a compressed source the whole set is aggregated in one k-way run
    merge (:func:`_or_all`); the charged operation count matches the
    pairwise dense fold.
    """
    assert len(slots) > 0
    return _or_all([source.fetch(i, j, stats) for j in slots], stats)


def _le_bitmap_equality(
    source: BitmapSource, v: int, stats: ExecutionStats
) -> Bitmap:
    """``A <= v`` on an equality-encoded index (0 <= v < C-1)."""
    base = source.base
    digits = base.digits(v)

    # Component 1: LE_1 = (digit_1 <= v_1).
    b1 = base.component(1)
    v1 = digits[0]
    if v1 == b1 - 1:
        acc = _ones(source)
    elif b1 == 2:
        # v1 == 0: digit <= 0 is digit == 0 = NOT stored-slot-1.
        acc = _fetch_eq(source, 1, 0, stats)
    elif v1 + 1 <= b1 - 1 - v1:
        acc = _or_slots(source, 1, range(0, v1 + 1), stats)
    else:
        acc = _not(_or_slots(source, 1, range(v1 + 1, b1), stats), stats)

    # Components 2..n: LE_i = LT_i OR (EQ_i AND LE_{i-1}).
    for i in range(2, base.n + 1):
        vi = digits[i - 1]
        bi = base.component(i)
        if bi == 2:
            stored = source.fetch(i, 1, stats)
            if vi == 0:
                eq = _not(stored, stats)
                acc = _and(eq, acc, stats)
            else:
                lt = _not(stored, stats)
                acc = _or(lt, _and(stored, acc, stats), stats)
            continue
        if vi == 0:
            eq = source.fetch(i, 0, stats)
            acc = _and(eq, acc, stats)
        elif vi + 1 <= bi - vi:
            # Direct side: LT from slots [0, vi), EQ scanned separately.
            lt = _or_slots(source, i, range(0, vi), stats)
            eq = source.fetch(i, vi, stats)
            acc = _or(lt, _and(eq, acc, stats), stats)
        else:
            # Complement side: GE from slots [vi, bi); the slot-vi scan is
            # reused as EQ, saving one read.
            eq = source.fetch(i, vi, stats)
            ge = _or_all(
                [eq] + [source.fetch(i, j, stats) for j in range(vi + 1, bi)],
                stats,
            )
            lt = _not(ge, stats)
            acc = _or(lt, _and(eq, acc, stats), stats)
    return acc


# ----------------------------------------------------------------------
# Interval-encoded evaluation (extension: Chan & Ioannidis, SIGMOD 1999)
# ----------------------------------------------------------------------


def interval_eval(
    source: BitmapSource,
    predicate: Predicate,
    stats: ExecutionStats | None = None,
) -> Bitmap:
    """Evaluate a predicate on an *interval-encoded* index.

    With window length ``m = ceil(b_i / 2)``, every per-digit predicate is
    a combination of at most two interval bitmaps:

    - ``digit <= v``: ``I^0 AND NOT I^(v+1)`` below the window, ``I^0`` at
      ``v = m - 1``, and ``I^0 OR I^(v-m+1)`` above it;
    - ``digit = v``: the set difference of two adjacent windows (or the
      window intersection ``I^0 AND I^(m-1)`` exactly at ``v = m - 1``).

    Range predicates combine components with the same Horner recurrence as
    the equality evaluator; bitmaps a component needs for both its ``<``
    and ``=`` parts are fetched once.
    """
    stats = stats if stats is not None else ExecutionStats()
    _require_encoding(source, EncodingScheme.INTERVAL)
    trivial = _clamp_trivial(source, predicate, stats)
    if trivial is not None:
        return trivial

    op, v = predicate.op, predicate.value
    complement = op in (">", ">=", "!=")
    if op in ("<", ">="):
        v -= 1

    if predicate.is_range:
        if v < 0:
            return (
                _all_rows(source, stats) if complement else _zeros(source)
            )
        if v >= source.cardinality - 1:
            return (
                _zeros(source) if complement else _all_rows(source, stats)
            )
        result = _le_bitmap_interval(source, v, stats)
    else:
        result = _eq_bitmap_interval(source, v, stats)

    if complement:
        result = _not(result, stats)
    return _mask_nn(result, source, stats)


class _ComponentFetcher:
    """Per-component fetch cache so shared interval bitmaps scan once."""

    def __init__(self, source: BitmapSource, component: int, stats: ExecutionStats):
        self._source = source
        self._component = component
        self._stats = stats
        self._cache: dict[int, Bitmap] = {}

    def __call__(self, slot: int) -> Bitmap:
        if slot not in self._cache:
            self._cache[slot] = self._source.fetch(
                self._component, slot, self._stats
            )
        return self._cache[slot]


def _interval_le(
    b: int, v: int, fetch: _ComponentFetcher, stats: ExecutionStats
) -> Bitmap | None:
    """``digit <= v`` on one interval-encoded component (None = all rows)."""
    m = (b + 1) // 2
    if v >= b - 1:
        return None
    if v <= m - 2:
        return _and(fetch(0), _not(fetch(v + 1), stats), stats)
    if v == m - 1:
        return fetch(0)
    return _or(fetch(0), fetch(v - m + 1), stats)


def _interval_eq(
    b: int, v: int, fetch: _ComponentFetcher, stats: ExecutionStats
) -> Bitmap:
    """``digit = v`` on one interval-encoded component."""
    m = (b + 1) // 2
    if m == 1:  # b == 2: I^0 marks digit 0
        return fetch(0) if v == 0 else _not(fetch(0), stats)
    if v <= m - 2:
        return _and(fetch(v), _not(fetch(v + 1), stats), stats)
    if v == m - 1:
        return _and(fetch(0), fetch(m - 1), stats)
    if v <= 2 * m - 2:
        return _and(fetch(v - m + 1), _not(fetch(v - m), stats), stats)
    # v == 2m - 1 == b - 1 (even b): the complement of digit <= b - 2.
    below = _interval_le(b, b - 2, fetch, stats)
    assert below is not None
    return _not(below, stats)


def _eq_bitmap_interval(
    source: BitmapSource, v: int, stats: ExecutionStats
) -> Bitmap:
    base = source.base
    digits = base.digits(v)
    acc: Bitmap | None = None
    for i in range(1, base.n + 1):
        fetch = _ComponentFetcher(source, i, stats)
        term = _interval_eq(base.component(i), digits[i - 1], fetch, stats)
        acc = term if acc is None else _and(acc, term, stats)
    assert acc is not None
    return acc


def _le_bitmap_interval(
    source: BitmapSource, v: int, stats: ExecutionStats
) -> Bitmap:
    """``A <= v`` on an interval-encoded index (0 <= v < C-1)."""
    base = source.base
    digits = base.digits(v)

    fetch = _ComponentFetcher(source, 1, stats)
    le = _interval_le(base.component(1), digits[0], fetch, stats)
    acc = le if le is not None else _ones(source)

    for i in range(2, base.n + 1):
        vi = digits[i - 1]
        bi = base.component(i)
        fetch = _ComponentFetcher(source, i, stats)
        eq = _interval_eq(bi, vi, fetch, stats)
        if vi == 0:
            acc = _and(eq, acc, stats)
        else:
            lt = _interval_le(bi, vi - 1, fetch, stats)
            assert lt is not None  # vi - 1 < b - 1
            acc = _or(lt, _and(eq, acc, stats), stats)
    return acc


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------

_ALGORITHMS = {
    "range_eval": range_eval,
    "range_eval_opt": range_eval_opt,
    "equality_eval": equality_eval,
    "interval_eval": interval_eval,
}


def evaluate(
    source: BitmapSource,
    predicate: Predicate,
    algorithm: str = "auto",
    stats: ExecutionStats | None = None,
) -> Bitmap:
    """Evaluate ``predicate`` over ``source`` with the named algorithm.

    ``algorithm='auto'`` picks the paper's recommendation: RangeEval-Opt
    for range-encoded indexes, the equality evaluator otherwise.

    This is the evaluator seam of cooperative cancellation: when the
    stats object carries a :class:`~repro.faults.Deadline`, it is checked
    once per evaluation (i.e. per expression leaf), so a query that has
    outlived its budget aborts with
    :class:`~repro.errors.QueryTimeoutError` before fetching more bitmaps.
    """
    if stats is not None and stats.deadline is not None:
        stats.deadline.check("evaluate")
    if algorithm == "auto":
        if source.encoding is EncodingScheme.RANGE:
            algorithm = "range_eval_opt"
        elif source.encoding is EncodingScheme.INTERVAL:
            algorithm = "interval_eval"
        else:
            algorithm = "equality_eval"
    try:
        func = _ALGORITHMS[algorithm]
    except KeyError:
        known = ", ".join(sorted(_ALGORITHMS))
        raise InvalidPredicateError(
            f"unknown algorithm {algorithm!r}; expected one of: {known}, auto"
        ) from None
    if stats is not None and stats.trace is not None:
        with stats.trace.span(
            algorithm,
            kind="phase",
            op=predicate.op,
            value=predicate.value,
            encoding=source.encoding.value,
            codec=source.bitmap_codec,
        ):
            return func(source, predicate, stats)
    return func(source, predicate, stats)


def _require_encoding(source: BitmapSource, expected: EncodingScheme) -> None:
    if source.encoding is not expected:
        raise InvalidPredicateError(
            f"algorithm requires a {expected.value}-encoded index, got "
            f"{source.encoding.value}"
        )


def group_counts(
    source: BitmapSource,
    bitmap: Bitmap,
    stats: ExecutionStats,
    algorithm: str = "auto",
) -> np.ndarray:
    """Intersection cardinality of ``bitmap`` with each value of ``source``.

    The GROUP BY half of aggregate pushdown: ``counts[v]`` is the number
    of rows where ``bitmap`` is set and the indexed attribute equals
    ``v``, computed entirely from popcounts — no RID list, no group eq
    bitmap survives the call.

    On a single-component *range-encoded* source the stored bitmaps are
    cumulative (``R_v = A <= v``), so the per-value counts come from
    ``C - 1`` fused intersect-popcounts and a running difference::

        count(A = v AND B) = count(R_v AND B) - count(R_{v-1} AND B)

    — no equality bitmap is ever XOR-materialized, which matters because
    ``R_v XOR R_{v-1}`` is exactly the expensive step of
    :func:`_eq_bitmap_range_encoded`.  Every other shape (equality or
    interval encoding, multi-component bases, non-default algorithms)
    falls back to per-value equality evaluation plus a fused
    ``and_count``.  Both paths mask NULL rows of the grouping attribute
    into no group.
    """
    cardinality = source.cardinality
    counts = np.zeros(cardinality, dtype=np.int64)
    if (
        source.encoding is EncodingScheme.RANGE
        and source.base.n == 1
        and algorithm in ("auto", "range_eval_opt")
    ):
        masked = bitmap
        if source.nonnull is not None:
            masked = _and(bitmap, source.nonnull, stats)
        previous = 0
        for code in range(cardinality - 1):
            stats.ands += 1
            cumulative = int(masked.and_count(source.fetch(1, code, stats)))
            counts[code] = cumulative - previous
            previous = cumulative
        counts[cardinality - 1] = int(masked.count()) - previous
        return counts
    for code in range(cardinality):
        member = evaluate(source, Predicate("=", code), algorithm=algorithm, stats=stats)
        stats.ands += 1
        counts[code] = int(bitmap.and_count(member))
    return counts
