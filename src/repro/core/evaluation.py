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

Figure 6 gives every predicate one shape, so the reduction is written
once (:func:`_reduce`): clamp constants outside the domain, rewrite the
six operators to ``A <= v`` or ``A = v`` plus at most one ``NOT``, mask
with ``B_nn``.  Each encoding states its per-digit rules once
(:class:`_RangeDigits`, :class:`_EqualityDigits`,
:class:`_IntervalDigits`) — ``digit = d``, ``digit <= d`` and the pair
``(digit < d, digit = d)`` sharing its reads — the execution-side twin
of :mod:`repro.core.costmodel`'s per-digit scan rule.  ``A = v`` is then
one AND over the components (:func:`_equal`) for every encoding, and
``A <= v`` one Horner loop ``LE_i = LT_i OR (EQ_i AND LE_{i-1})``
(:func:`_horner`) for equality and interval encoding.  RangeEval-Opt's
``A <= v`` and :func:`range_eval` keep their own loops: their operation
counts are what the paper studies.

Every algorithm takes any object implementing the
:class:`~repro.core.index.BitmapSource` protocol and an
:class:`~repro.stats.ExecutionStats` to which it charges bitmap scans
(via ``source.fetch``) and logical operations.  The counted operations
(:func:`and_`, :func:`or_`, :func:`xor_`, :func:`not_`, the k-way
:func:`threshold_all`) are the one place an operation is charged, timed
and run; the expression tree's connectives call them too.

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

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bitmaps import Bitmap, bitmap_class
from repro.core.encoding import EncodingScheme
from repro.core.index import BitmapSource
from repro.errors import InvalidPredicateError
from repro.stats import ExecutionStats

#: The six comparison operators of the paper's query class, each with the
#: function applying it to a column (``COMPARE[op](values, constant)``).
COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}
OPERATORS = tuple(COMPARE)
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
        return COMPARE[self.op](np.asarray(values), self.value)

    def __str__(self) -> str:
        return f"A {self.op} {self.value}"


# ----------------------------------------------------------------------
# Counted logical operations
# ----------------------------------------------------------------------
#
# Charge, time, run.  These four and :func:`evaluate` run several times a
# query, so they keep a guard on ``stats.trace`` where every other site
# says ``with stats.span(...)``: untraced, the guard is one attribute
# read, the shared null context a call plus a ``with``.


def and_(a: Bitmap, b: Bitmap, stats: ExecutionStats) -> Bitmap:
    """``a AND b``: one operation on ``stats``, one ``op`` span when traced."""
    stats.ands += 1
    if stats.trace is not None:
        with stats.trace.span("and", kind="op", nbits=a.nbits):
            return a & b
    return a & b


def and_count(a: Bitmap, b: Bitmap, stats: ExecutionStats) -> int:
    """``count(a AND b)`` without the intermediate: charged and traced as one AND."""
    stats.ands += 1
    if stats.trace is not None:
        with stats.trace.span("and", kind="op", nbits=a.nbits):
            return int(a.and_count(b))
    return int(a.and_count(b))


def or_(a: Bitmap, b: Bitmap, stats: ExecutionStats) -> Bitmap:
    """``a OR b``: one operation on ``stats``, one ``op`` span when traced."""
    stats.ors += 1
    if stats.trace is not None:
        with stats.trace.span("or", kind="op", nbits=a.nbits):
            return a | b
    return a | b


def xor_(a: Bitmap, b: Bitmap, stats: ExecutionStats) -> Bitmap:
    """``a XOR b``: one operation on ``stats``, one ``op`` span when traced."""
    stats.xors += 1
    if stats.trace is not None:
        with stats.trace.span("xor", kind="op", nbits=a.nbits):
            return a ^ b
    return a ^ b


def not_(a: Bitmap, stats: ExecutionStats) -> Bitmap:
    """``NOT a``: one operation on ``stats``, one ``op`` span when traced."""
    stats.nots += 1
    if stats.trace is not None:
        with stats.trace.span("not", kind="op", nbits=a.nbits):
            return ~a
    return ~a


def _or_all(vectors: list, stats: ExecutionStats) -> Bitmap:
    """OR a non-empty list of bitmaps, charging ``len - 1`` operations.

    Every codec runs its k-way kernel
    (:meth:`~repro.bitmaps.compressed.WahBitVector.or_many` run merge,
    :meth:`~repro.bitmaps.roaring.RoaringBitmap.or_many` container merge,
    :meth:`BitVector.or_many` in-place word OR) — one pass over the
    operands instead of ``k - 1`` intermediates — and the charged count
    is the pairwise fold's, so all executions report the same
    :class:`ExecutionStats`.
    """
    if len(vectors) == 1:
        return vectors[0]
    stats.ors += len(vectors) - 1
    with stats.span(
        "or_many", kind="op", nbits=vectors[0].nbits, count=len(vectors) - 1
    ):
        return type(vectors[0]).or_many(vectors)


def threshold_all(vectors: list, k: int, stats: ExecutionStats) -> Bitmap:
    """k-of-N threshold over a non-empty list of bitmaps.

    Bit ``i`` of the result is set iff at least ``k`` operands set it.
    Each codec runs its native k-way kernel
    (:meth:`~repro.bitmaps.compressed.WahBitVector.threshold_many`
    run-aligned counting,
    :meth:`~repro.bitmaps.roaring.RoaringBitmap.threshold_many`
    container-wise counters, :meth:`BitVector.threshold_many` word
    counting).  The charged operation count — ``len(vectors) - 1`` ORs,
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
    with stats.span(
        "threshold", kind="op", nbits=vectors[0].nbits, k=k, count=len(vectors) - 1
    ):
        return cls.threshold_many(vectors, k)


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
        return and_(result, source.nonnull, stats)
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
# The Figure 6 reduction, shared by the three evaluators that use it
# ----------------------------------------------------------------------


def _reduce(
    source: BitmapSource,
    predicate: Predicate,
    stats: ExecutionStats | None,
    encoding: EncodingScheme,
    le_bitmap: Callable[[BitmapSource, int, ExecutionStats], Bitmap],
) -> Bitmap:
    """Evaluate ``predicate`` as ``A <= v`` or ``A = v`` plus at most one NOT.

    ``le_bitmap(source, v, stats)`` builds ``A <= v`` for ``0 <= v < C-1``
    on an ``encoding``-encoded source, and :func:`_equal` builds ``A = v``;
    everything else an evaluator does — the out-of-domain clamp,
    ``<``/``>=`` to ``v-1``, the two whole-domain short-circuits, the
    complement, the ``B_nn`` mask — is the same for all three and lives
    here.
    """
    stats = stats if stats is not None else ExecutionStats()
    _require_encoding(source.encoding, encoding)
    trivial = _clamp_trivial(source, predicate, stats)
    if trivial is not None:
        return trivial

    op, v = predicate.op, predicate.value
    complement = op in (">", ">=", "!=")
    if op in ("<", ">="):
        v -= 1

    if predicate.is_range:
        if v < 0:
            return _all_rows(source, stats) if complement else _zeros(source)
        if v >= source.cardinality - 1:
            # A <= v is everything (within the domain).
            return _zeros(source) if complement else _all_rows(source, stats)
        result = le_bitmap(source, v, stats)
    else:
        result = _equal(source, v, stats)

    if complement:
        result = not_(result, stats)
    return _mask_nn(result, source, stats)


# ----------------------------------------------------------------------
# Per-digit rules: one per encoding, and the two loops that combine them
# ----------------------------------------------------------------------


class _ComponentFetcher:
    """One component's stored bitmaps, each scanned at most once: what
    the rules of one digit (``digit < d`` and ``digit = d``) share."""

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


class _DigitRules:
    """How one encoding tests one digit ``d`` of a component of base
    ``b``, reading its bitmaps through ``fetch``: ``eq`` builds
    ``digit = d``, ``le`` builds ``digit <= d`` (``None``: every row), and
    ``lt_eq`` the pair ``(digit < d, digit = d)`` for ``0 < d``.  The scan
    counts they imply are :mod:`repro.core.costmodel`'s per-digit rule."""

    @staticmethod
    def eq(b: int, d: int, fetch: _ComponentFetcher, stats: ExecutionStats) -> Bitmap:
        raise NotImplementedError

    @staticmethod
    def le(b: int, d: int, fetch: _ComponentFetcher, stats: ExecutionStats) -> Bitmap | None:
        raise NotImplementedError

    @classmethod
    def lt_eq(
        cls, b: int, d: int, fetch: _ComponentFetcher, stats: ExecutionStats
    ) -> tuple[Bitmap, Bitmap]:
        """``digit = d`` first, then ``digit <= d - 1`` over the same reads."""
        eq = cls.eq(b, d, fetch, stats)
        return cls.le(b, d - 1, fetch, stats), eq


class _RangeDigits(_DigitRules):
    """Range encoding: the stored ``B^d`` is ``digit <= d`` itself; the
    top ``B^(b-1)`` is virtual (all ones)."""

    @staticmethod
    def eq(b: int, d: int, fetch: _ComponentFetcher, stats: ExecutionStats) -> Bitmap:
        """``B^0`` or ``NOT B^(b-2)`` at the ends, ``B^d XOR B^(d-1)`` inside."""
        if d == 0:
            return fetch(0)
        if d == b - 1:
            return not_(fetch(b - 2), stats)
        return xor_(fetch(d), fetch(d - 1), stats)

    @staticmethod
    def le(b: int, d: int, fetch: _ComponentFetcher, stats: ExecutionStats) -> Bitmap | None:
        return fetch(d) if d < b - 1 else None


class _EqualityDigits(_DigitRules):
    """Equality encoding: the stored ``E^d`` is ``digit = d``, except that
    a base-2 component stores ``E^1`` alone.  ``digit <= d`` and
    ``digit < d`` OR the slots of whichever side of the component needs
    fewer reads (the complement optimization)."""

    @staticmethod
    def eq(b: int, d: int, fetch: _ComponentFetcher, stats: ExecutionStats) -> Bitmap:
        if b == 2 and d == 0:
            return not_(fetch(1), stats)
        return fetch(d)

    @staticmethod
    def le(b: int, d: int, fetch: _ComponentFetcher, stats: ExecutionStats) -> Bitmap | None:
        """``E^0 OR .. OR E^d`` (``d + 1`` reads) or ``NOT (E^(d+1) OR ..
        OR E^(b-1))`` (``b - 1 - d`` reads)."""
        if d >= b - 1:
            return None
        if b == 2:
            return _EqualityDigits.eq(b, 0, fetch, stats)
        if d + 1 <= b - 1 - d:
            return _or_all([fetch(j) for j in range(d + 1)], stats)
        return not_(_or_all([fetch(j) for j in range(d + 1, b)], stats), stats)

    @classmethod
    def lt_eq(
        cls, b: int, d: int, fetch: _ComponentFetcher, stats: ExecutionStats
    ) -> tuple[Bitmap, Bitmap]:
        """``E^0 OR .. OR E^(d-1)`` and then ``E^d`` (``d + 1`` reads), or
        ``NOT (E^d OR .. OR E^(b-1))`` reusing ``E^d`` (``b - d`` reads)."""
        if d + 1 <= b - d:
            lt = _or_all([fetch(j) for j in range(d)], stats)
        else:
            lt = not_(_or_all([fetch(j) for j in range(d, b)], stats), stats)
        return lt, fetch(d)


class _IntervalDigits(_DigitRules):
    """Interval encoding (Chan & Ioannidis, SIGMOD 1999): ``I^j`` holds
    the digits ``j .. j+m-1``, ``m = ceil(b / 2)``, and every per-digit
    test combines at most two windows."""

    @staticmethod
    def eq(b: int, d: int, fetch: _ComponentFetcher, stats: ExecutionStats) -> Bitmap:
        """The set difference of two adjacent windows, or the window
        intersection ``I^0 AND I^(m-1)`` exactly at ``d = m - 1``."""
        m = (b + 1) // 2
        if m == 1:  # b == 2: I^0 marks digit 0
            return fetch(0) if d == 0 else not_(fetch(0), stats)
        if d <= m - 2:
            return and_(fetch(d), not_(fetch(d + 1), stats), stats)
        if d == m - 1:
            return and_(fetch(0), fetch(m - 1), stats)
        if d <= 2 * m - 2:
            return and_(fetch(d - m + 1), not_(fetch(d - m), stats), stats)
        # d == 2m - 1 == b - 1 (even b): the complement of digit <= b - 2.
        return not_(_IntervalDigits.le(b, b - 2, fetch, stats), stats)

    @staticmethod
    def le(b: int, d: int, fetch: _ComponentFetcher, stats: ExecutionStats) -> Bitmap | None:
        """``I^0 AND NOT I^(d+1)`` below the window, ``I^0`` at
        ``d = m - 1``, ``I^0 OR I^(d-m+1)`` above it."""
        m = (b + 1) // 2
        if d >= b - 1:
            return None
        if d <= m - 2:
            return and_(fetch(0), not_(fetch(d + 1), stats), stats)
        if d == m - 1:
            return fetch(0)
        return or_(fetch(0), fetch(d - m + 1), stats)


#: Each encoding's per-digit rules.
_RULES: dict[EncodingScheme, type[_DigitRules]] = {
    EncodingScheme.RANGE: _RangeDigits,
    EncodingScheme.EQUALITY: _EqualityDigits,
    EncodingScheme.INTERVAL: _IntervalDigits,
}


def _equal(source: BitmapSource, v: int, stats: ExecutionStats) -> Bitmap:
    """``A = v`` on any encoding: the AND of every component's ``digit = v_i``."""
    rules, base = _RULES[source.encoding], source.base
    acc: Bitmap | None = None
    for i, d in enumerate(base.digits(v), 1):
        term = rules.eq(base.component(i), d, _ComponentFetcher(source, i, stats), stats)
        acc = term if acc is None else and_(acc, term, stats)
    assert acc is not None
    return acc


def _horner(source: BitmapSource, v: int, stats: ExecutionStats) -> Bitmap:
    """``A <= v`` (``0 <= v < C-1``) on equality or interval encoding:
    component 1's ``digit <= v_1``, then ``LE_i = LT_i OR (EQ_i AND
    LE_{i-1})``, which a zero digit cuts to ``EQ_i AND LE_{i-1}``."""
    rules, base = _RULES[source.encoding], source.base
    digits = base.digits(v)
    acc = rules.le(base.component(1), digits[0], _ComponentFetcher(source, 1, stats), stats)
    if acc is None:
        acc = _ones(source)
    for i in range(2, base.n + 1):
        b, d = base.component(i), digits[i - 1]
        fetch = _ComponentFetcher(source, i, stats)
        if d == 0:
            acc = and_(rules.eq(b, 0, fetch, stats), acc, stats)
        else:
            lt, eq = rules.lt_eq(b, d, fetch, stats)
            acc = or_(lt, and_(eq, acc, stats), stats)
    return acc


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
    return _reduce(source, predicate, stats, EncodingScheme.RANGE, _le_bitmap_opt)


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
            acc = and_(acc, source.fetch(i, vi, stats), stats)
        if vi != 0:
            acc = or_(acc, source.fetch(i, vi - 1, stats), stats)
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
    _require_encoding(source.encoding, EncodingScheme.RANGE)
    trivial = _clamp_trivial(source, predicate, stats)
    if trivial is not None:
        return trivial

    op, v = predicate.op, predicate.value
    need_lt = op in ("<", "<=")
    need_gt = op in (">", ">=")
    base = source.base
    digits = base.digits(v)

    b_eq = _all_rows(source, stats)
    b_lt = _zeros(source)
    b_gt = _zeros(source)

    for i in range(base.n, 0, -1):
        vi = digits[i - 1]
        bi = base.component(i)
        fetch = _ComponentFetcher(source, i, stats)
        if vi > 0:
            if need_lt:
                b_lt = or_(b_lt, and_(b_eq, fetch(vi - 1), stats), stats)
            if vi < bi - 1:
                if need_gt:
                    b_gt = or_(
                        b_gt, and_(b_eq, not_(fetch(vi), stats), stats), stats
                    )
                b_eq = and_(
                    b_eq, xor_(fetch(vi), fetch(vi - 1), stats), stats
                )
            else:
                b_eq = and_(b_eq, not_(fetch(bi - 2), stats), stats)
        else:
            if need_gt:
                b_gt = or_(
                    b_gt, and_(b_eq, not_(fetch(0), stats), stats), stats
                )
            b_eq = and_(b_eq, fetch(0), stats)

    if op == "<":
        return b_lt
    if op == "<=":
        return or_(b_lt, b_eq, stats)
    if op == ">":
        return b_gt
    if op == ">=":
        return or_(b_gt, b_eq, stats)
    if op == "=":
        return b_eq
    # op == "!=": B_NE = NOT B_EQ AND B_nn
    return _mask_nn(not_(b_eq, stats), source, stats)


# ----------------------------------------------------------------------
# Equality- and interval-encoded evaluation
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
    return _reduce(source, predicate, stats, EncodingScheme.EQUALITY, _horner)


def interval_eval(
    source: BitmapSource,
    predicate: Predicate,
    stats: ExecutionStats | None = None,
) -> Bitmap:
    """Evaluate a predicate on an *interval-encoded* index.

    Every per-digit predicate is a combination of at most two interval
    bitmaps (:class:`_IntervalDigits`).  Range predicates combine
    components with the same Horner recurrence as the equality evaluator;
    bitmaps a component needs for both its ``<`` and ``=`` parts are
    fetched once.
    """
    return _reduce(source, predicate, stats, EncodingScheme.INTERVAL, _horner)


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------

#: Each algorithm's evaluator and the encoding it serves.
_ALGORITHMS = {
    "range_eval": (range_eval, EncodingScheme.RANGE),
    "range_eval_opt": (range_eval_opt, EncodingScheme.RANGE),
    "equality_eval": (equality_eval, EncodingScheme.EQUALITY),
    "interval_eval": (interval_eval, EncodingScheme.INTERVAL),
}

#: What ``'auto'`` names on each encoding: the paper's recommendation.
_AUTO = {
    EncodingScheme.RANGE: "range_eval_opt",
    EncodingScheme.EQUALITY: "equality_eval",
    EncodingScheme.INTERVAL: "interval_eval",
}


def resolve_algorithm(algorithm: str, encoding: EncodingScheme) -> str:
    """The algorithm ``algorithm`` names on an ``encoding``-encoded index.

    ``'auto'`` is the paper's recommendation (RangeEval-Opt for range
    encoding, the encoding's own evaluator otherwise).  An unknown name,
    or one the encoding cannot serve, raises
    :class:`~repro.errors.InvalidPredicateError`.
    """
    name = _AUTO[encoding] if algorithm == "auto" else algorithm
    try:
        _require_encoding(encoding, _ALGORITHMS[name][1])
    except KeyError:
        known = ", ".join(sorted(_ALGORITHMS))
        raise InvalidPredicateError(
            f"unknown algorithm {algorithm!r}; expected one of: {known}, auto"
        ) from None
    return name


def evaluate(
    source: BitmapSource,
    predicate: Predicate,
    algorithm: str = "auto",
    stats: ExecutionStats | None = None,
) -> Bitmap:
    """Evaluate ``predicate`` over ``source`` with the named algorithm
    (:func:`resolve_algorithm`; ``'auto'`` is the paper's recommendation).

    This is the evaluator seam of cooperative cancellation: when the
    stats object carries a :class:`~repro.faults.Deadline`, it is checked
    once per evaluation (i.e. per expression leaf), so a query that has
    outlived its budget aborts with
    :class:`~repro.errors.QueryTimeoutError` before fetching more bitmaps.
    """
    if stats is not None and stats.deadline is not None:
        stats.deadline.check("evaluate")
    algorithm = resolve_algorithm(algorithm, source.encoding)
    func = _ALGORITHMS[algorithm][0]
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


def _require_encoding(encoding: EncodingScheme, expected: EncodingScheme) -> None:
    if encoding is not expected:
        raise InvalidPredicateError(
            f"algorithm requires a {expected.value}-encoded index, got "
            f"{encoding.value}"
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
    ``R_v XOR R_{v-1}`` is exactly the expensive step of range encoding's
    ``digit = d`` rule (:meth:`_RangeDigits.eq`).  Every other shape
    (equality or interval encoding, multi-component bases, non-default
    algorithms) falls back to per-value equality evaluation plus a fused
    ``and_count``.  Both paths mask NULL rows of the grouping attribute
    into no group.
    """
    cardinality = source.cardinality
    counts = np.zeros(cardinality, dtype=np.int64)
    if source.base.n == 1 and resolve_algorithm(algorithm, source.encoding) == "range_eval_opt":
        masked = bitmap
        if source.nonnull is not None:
            masked = and_(bitmap, source.nonnull, stats)
        previous = 0
        for code in range(cardinality - 1):
            cumulative = and_count(masked, source.fetch(1, code, stats), stats)
            counts[code] = cumulative - previous
            previous = cumulative
        counts[cardinality - 1] = int(masked.count()) - previous
        return counts
    for code in range(cardinality):
        member = evaluate(source, Predicate("=", code), algorithm=algorithm, stats=stats)
        counts[code] = and_count(bitmap, member, stats)
    return counts


def rank_sum(source: BitmapSource, bitmap: Bitmap, stats: ExecutionStats) -> int:
    """``Σ rank`` over the rows of ``bitmap`` (NULL rows already out).

    A rank is ``Σ_i w_i·digit_i`` (``w_i`` the mixed-radix weight), and
    component ``i``'s digit sum over ``F`` is ``Σ_{j≥1} j·|F ∧ E_i^j|``
    under equality encoding, else ``Σ_{j<b_i−1} (|F| − |F ∧ digit_i ≤ j|)``
    — under range encoding ``digit_i ≤ j`` is the stored ``B_i^j``, so
    the paper's Bit-Sliced index sums with one ``and_count`` per bitmap.
    Each stored bitmap is read at most once: at most Space(I) scans, and
    exactly Space(I) under range encoding.
    """
    rules, rows, total, weight = _RULES[source.encoding], int(bitmap.count()), 0, 1
    for i in range(1, source.base.n + 1):
        b, fetch = source.base.component(i), _ComponentFetcher(source, i, stats)
        if source.encoding is EncodingScheme.EQUALITY:
            eqs = ((j, rules.eq(b, j, fetch, stats)) for j in range(1, b))
            terms = (j * and_count(bitmap, eq, stats) for j, eq in eqs)
        else:
            les = (rules.le(b, j, fetch, stats) for j in range(b - 1))
            terms = (rows - and_count(bitmap, le, stats) for le in les)
        total += weight * sum(terms)
        weight *= b
    return total


def rank_bound(
    source: BitmapSource, bitmap: Bitmap, target: int, stats: ExecutionStats, algorithm: str
) -> int:
    """The least rank ``v`` with ``|bitmap ∧ (A <= v)| >= target`` (MIN:
    ``target = 1``; MAX: ``|bitmap|``), found by binary search: at most
    ``⌈log₂ C⌉`` evaluations through :func:`evaluate`, for any encoding."""
    lo, hi = 0, source.cardinality - 1
    while lo < hi:
        mid = (lo + hi) // 2
        below = evaluate(source, Predicate("<=", mid), algorithm, stats)
        lo, hi = (lo, mid) if and_count(bitmap, below, stats) >= target else (mid + 1, hi)
    return lo
