"""The paper's space/time cost model (Section 4, Theorem 5.1, Eq. 5).

Two metrics (paper Section 4):

- **Space** — number of stored bitmaps.
- **Time** — expected number of bitmap scans to evaluate one query drawn
  uniformly from ``Q = {A op v : op in {<, <=, =, !=, >=, >}, 0 <= v < C}``.

For each encoding the module provides:

- a *closed-form* time (the paper's Theorem 5.1 expressions, which assume
  the digits of the predicate constant are uniform and independent —
  exact when the base's capacity equals ``C``), and
- an *exact* time (:func:`expected_scans`) obtained by enumerating the
  whole query space arithmetically (no bitmaps are touched), vectorized
  over the ``6C`` queries.  The exact computation also covers the baseline
  ``RangeEval`` algorithm and non-tight bases.

The scan-count logic here deliberately mirrors
:mod:`repro.core.evaluation`; the test suite asserts that, for every
operator and constant, the arithmetic counts equal the instrumented counts
of a real evaluation.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme, stored_bitmap_count
from repro.errors import BufferConfigError, InvalidPredicateError

#: Fraction of the query space that uses a range operator (4 of 6).
_RANGE_WEIGHT = Fraction(4, 6)
_EQUALITY_WEIGHT = Fraction(2, 6)


# ----------------------------------------------------------------------
# Space (Theorem 5.1)
# ----------------------------------------------------------------------


def space(base: Base, encoding: EncodingScheme = EncodingScheme.RANGE) -> int:
    """Stored bitmaps of an index with this base and encoding.

    Range encoding: ``sum(b_i - 1)``.  Equality encoding: ``sum(s_i)`` with
    ``s_i = b_i`` when ``b_i > 2`` and ``1`` otherwise (complement trick).
    """
    return sum(stored_bitmap_count(b, encoding) for b in base)


def space_range(base: Base) -> int:
    """``Space`` for a range-encoded index (Theorem 5.1)."""
    return space(base, EncodingScheme.RANGE)


def space_equality(base: Base) -> int:
    """``Space`` for an equality-encoded index (Theorem 5.1)."""
    return space(base, EncodingScheme.EQUALITY)


# ----------------------------------------------------------------------
# Closed-form time (Theorem 5.1)
# ----------------------------------------------------------------------


def time_range(base: Base) -> float:
    """Expected scans for a range-encoded index under ``RangeEval-Opt``.

    ``Time = 2 (n - sum 1/b_i) + (2/3) (1/b_1 - 1)`` — the paper's Eq. (4),
    re-derived: range operators (weight 4/6) cost ``1 - 1/b_1`` scans on
    component 1 and ``2 - 2/b_i`` on the others; equality operators
    (weight 2/6) cost ``2 - 2/b_i`` on every component.
    """
    n = base.n
    inv_sum = sum(Fraction(1, b) for b in base)
    b1 = base.component(1)
    result = 2 * (n - inv_sum) + Fraction(2, 3) * (Fraction(1, b1) - 1)
    return float(result)


def time_equality(base: Base) -> float:
    """Expected scans for an equality-encoded index (Theorem 5.1 analogue).

    Uses the evaluator of :func:`repro.core.evaluation.equality_eval`:
    equality operators cost one scan per component; range operators cost,
    per component, the cheaper of the direct and complemented bitmap-OR
    (with the ``=`` bitmap reused from a complement scan).  The expectation
    is taken over uniform digits, mirroring Eq. (4)'s assumption.
    """
    range_cost = Fraction(0)
    for i in range(1, base.n + 1):
        b = base.component(i)
        total = sum(
            _equality_range_scans(d, b, is_component_one=(i == 1))
            for d in range(b)
        )
        range_cost += Fraction(total, b)
    equality_cost = Fraction(base.n)
    return float(_RANGE_WEIGHT * range_cost + _EQUALITY_WEIGHT * equality_cost)


def time(base: Base, encoding: EncodingScheme = EncodingScheme.RANGE) -> float:
    """Closed-form expected scans for the given encoding.

    Interval encoding (the 1999 extension) has no published closed form;
    its time is computed by exact simulation over the query space with the
    base's full capacity as the cardinality.
    """
    if encoding is EncodingScheme.RANGE:
        return time_range(base)
    if encoding is EncodingScheme.INTERVAL:
        return expected_scans_simulated(base, base.capacity, encoding)
    return time_equality(base)


def _equality_range_scans(d: int, b: int, is_component_one: bool) -> int:
    """Scans one equality-encoded component costs toward ``A <= v``.

    ``d`` is the component's digit of the (already ``<=``-normalized)
    constant.  Component 1 needs ``digit <= d``; other components need both
    ``digit < d`` and ``digit = d``.
    """
    if is_component_one:
        if d == b - 1:
            return 0
        if b == 2:
            return 1
        return min(d + 1, b - 1 - d)
    if b == 2 or d == 0:
        return 1
    return min(d + 1, b - d)


# ----------------------------------------------------------------------
# Buffered time (Eq. 5, Section 10)
# ----------------------------------------------------------------------


def time_range_buffered(base: Base, buffered: tuple[int, ...]) -> float:
    """Expected scans with ``f_i`` bitmaps of component ``i`` buffered.

    ``buffered`` is least-significant-first: ``buffered[0]`` is ``f_1``.
    The paper's Eq. (5):
    ``Time = 2 (n - sum (1 + f_i)/b_i) + (2/3) ((1 + f_1)/b_1 - 1)``,
    assuming each reference to a component-``i`` bitmap hits the buffer
    with probability ``f_i / (b_i - 1)``.
    """
    if len(buffered) != base.n:
        raise BufferConfigError(
            f"buffer assignment has {len(buffered)} entries for an "
            f"{base.n}-component index"
        )
    total = Fraction(0)
    for i in range(1, base.n + 1):
        b = base.component(i)
        f = buffered[i - 1]
        if not 0 <= f <= b - 1:
            raise BufferConfigError(
                f"f_{i} = {f} outside [0, {b - 1}] for base number {b}"
            )
        total += Fraction(1 + f, b)
    b1 = base.component(1)
    f1 = buffered[0]
    result = 2 * (base.n - total) + Fraction(2, 3) * (Fraction(1 + f1, b1) - 1)
    return float(result)


# ----------------------------------------------------------------------
# Exact expected scans by query-space enumeration
# ----------------------------------------------------------------------


def _digit_matrix(base: Base, cardinality: int) -> list[np.ndarray]:
    """Digit arrays of every value in ``[0, cardinality)``, widened: the
    scan formulas below do arithmetic on them."""
    digits = base.digit_arrays(np.arange(cardinality, dtype=np.int64))
    return [d.astype(np.int64) for d in digits]


def _le_scans_range_opt(base: Base, digits: list[np.ndarray]) -> np.ndarray:
    """Per-constant scans of RangeEval-Opt's ``A <= v`` loop."""
    scans = np.zeros(len(digits[0]), dtype=np.int64)
    for i in range(1, base.n + 1):
        d = digits[i - 1]
        b = base.component(i)
        if i == 1:
            scans += (d < b - 1).astype(np.int64)
        else:
            scans += (d != b - 1).astype(np.int64)
            scans += (d != 0).astype(np.int64)
    return scans


def _eq_scans_range(base: Base, digits: list[np.ndarray]) -> np.ndarray:
    """Per-constant scans of the range-encoded ``A = v`` evaluation.

    Identical for RangeEval and RangeEval-Opt, and — component-wise — also
    equal to RangeEval's per-component scan count for *range* operators
    (1 scan for boundary digits, 2 otherwise), which is why RangeEval's
    expected scans do not depend on the operator.
    """
    scans = np.zeros(len(digits[0]), dtype=np.int64)
    for i in range(1, base.n + 1):
        d = digits[i - 1]
        b = base.component(i)
        boundary = (d == 0) | (d == b - 1)
        scans += np.where(boundary, 1, 2)
    return scans


def _le_scans_equality(base: Base, digits: list[np.ndarray]) -> np.ndarray:
    """Per-constant scans of the equality-encoded ``A <= v`` evaluation."""
    scans = np.zeros(len(digits[0]), dtype=np.int64)
    for i in range(1, base.n + 1):
        d = digits[i - 1]
        b = base.component(i)
        if i == 1:
            if b == 2:
                cost = np.where(d == b - 1, 0, 1)
            else:
                cost = np.where(d == b - 1, 0, np.minimum(d + 1, b - 1 - d))
        else:
            if b == 2:
                cost = np.ones_like(d)
            else:
                cost = np.where(d == 0, 1, np.minimum(d + 1, b - d))
        scans += cost
    return scans


def expected_scans(
    base: Base,
    cardinality: int,
    encoding: EncodingScheme = EncodingScheme.RANGE,
    algorithm: str = "auto",
) -> float:
    """Exact expected scans over the uniform query space ``Q``.

    Enumerates all ``6 * cardinality`` queries arithmetically — no bitmaps
    are built.  ``algorithm`` is ``'range_eval'``, ``'range_eval_opt'``,
    ``'equality_eval'``, or ``'auto'`` (the encoding's recommended
    algorithm).
    """
    if algorithm == "auto":
        if encoding is EncodingScheme.RANGE:
            algorithm = "range_eval_opt"
        elif encoding is EncodingScheme.INTERVAL:
            algorithm = "interval_eval"
        else:
            algorithm = "equality_eval"
    if algorithm == "interval_eval":
        if encoding is not EncodingScheme.INTERVAL:
            raise InvalidPredicateError("interval_eval needs interval encoding")
        # No arithmetic mirror for the interval extension; simulate.
        return expected_scans_simulated(base, cardinality, encoding, algorithm)
    digits = _digit_matrix(base, cardinality)
    c = cardinality

    if algorithm == "range_eval":
        if encoding is not EncodingScheme.RANGE:
            raise InvalidPredicateError("range_eval needs range encoding")
        # Same per-query cost for all six operators.
        return float(_eq_scans_range(base, digits).mean())

    if algorithm == "range_eval_opt":
        if encoding is not EncodingScheme.RANGE:
            raise InvalidPredicateError("range_eval_opt needs range encoding")
        le = _le_scans_range_opt(base, digits)
        eq = _eq_scans_range(base, digits)
    elif algorithm == "equality_eval":
        if encoding is not EncodingScheme.EQUALITY:
            raise InvalidPredicateError("equality_eval needs equality encoding")
        le = _le_scans_equality(base, digits)
        eq = np.full(c, base.n, dtype=np.int64)
    else:
        raise InvalidPredicateError(f"unknown algorithm {algorithm!r}")

    # A <= v (and its complement A > v) scan LE(v); LE(C-1) is trivial.
    le_cost = le.copy()
    le_cost[c - 1] = 0
    # A < v and A >= v scan LE(v-1); LE(-1) is trivial.
    shifted = np.zeros(c, dtype=np.int64)
    shifted[1:] = le_cost[: c - 1]
    total = 2 * le_cost.sum() + 2 * shifted.sum() + 2 * eq.sum()
    return float(total) / (6 * c)


def expected_scans_weighted(
    base: Base,
    cardinality: int,
    weights: np.ndarray,
    encoding: EncodingScheme = EncodingScheme.RANGE,
    algorithm: str = "auto",
) -> float:
    """Expected scans when predicate *constants* are drawn non-uniformly.

    ``weights[v]`` is the (unnormalized) probability of constant ``v``;
    operators stay uniform, matching the paper's query model except for
    the constant distribution.  Used by the ``ablation_query_skew``
    experiment to probe how robust the Section 6–7 characterizations are
    to skewed workloads.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != cardinality:
        raise InvalidPredicateError(
            f"need one weight per value: got {len(weights)} for C={cardinality}"
        )
    if weights.min() < 0 or weights.sum() <= 0:
        raise InvalidPredicateError("weights must be non-negative, not all zero")
    if algorithm == "auto":
        if encoding is EncodingScheme.RANGE:
            algorithm = "range_eval_opt"
        elif encoding is EncodingScheme.EQUALITY:
            algorithm = "equality_eval"
        else:
            raise InvalidPredicateError(
                "weighted scans support the paper's two encodings"
            )
    digits = _digit_matrix(base, cardinality)
    c = cardinality

    if algorithm == "range_eval":
        per_value = _eq_scans_range(base, digits).astype(np.float64)
        return float((per_value * weights).sum() / weights.sum())
    if algorithm == "range_eval_opt":
        le = _le_scans_range_opt(base, digits)
        eq = _eq_scans_range(base, digits)
    elif algorithm == "equality_eval":
        le = _le_scans_equality(base, digits)
        eq = np.full(c, base.n, dtype=np.int64)
    else:
        raise InvalidPredicateError(f"unknown algorithm {algorithm!r}")

    le_cost = le.astype(np.float64)
    le_cost[c - 1] = 0.0
    shifted = np.zeros(c)
    shifted[1:] = le_cost[: c - 1]
    per_value = (2 * le_cost + 2 * shifted + 2 * eq) / 6.0
    return float((per_value * weights).sum() / weights.sum())


def expected_scans_simulated(
    base: Base,
    cardinality: int,
    encoding: EncodingScheme,
    algorithm: str = "auto",
) -> float:
    """Exact expected scans by running the real evaluator on a 1-row index.

    The evaluation algorithms' control flow — and therefore their scan
    count — depends only on the predicate's digits, never on bitmap
    contents, so a single-row index gives exact per-query costs at
    negligible expense.  This covers encodings without an arithmetic
    mirror (interval encoding) and doubles as an independent check of
    :func:`expected_scans` in the test suite.
    """
    # Imported here: costmodel is a dependency of evaluation's callers,
    # and this helper is the one place the direction reverses.
    from repro.core.evaluation import OPERATORS, Predicate, evaluate
    from repro.core.index import BitmapIndex
    from repro.stats import ExecutionStats

    index = BitmapIndex(
        np.zeros(1, dtype=np.int64), cardinality, base, encoding,
        keep_values=False,
    )
    total = 0
    count = 0
    for op in OPERATORS:
        for v in range(cardinality):
            stats = ExecutionStats()
            evaluate(index, Predicate(op, v), algorithm=algorithm, stats=stats)
            total += stats.scans
            count += 1
    return total / count


def scans_for_predicate(
    base: Base,
    cardinality: int,
    op: str,
    value: int,
    encoding: EncodingScheme = EncodingScheme.RANGE,
    algorithm: str = "auto",
) -> int:
    """Arithmetic scan count for a single predicate (mirrors the evaluators).

    Covers the paper's two encodings; interval encoding has no arithmetic
    mirror (use :func:`expected_scans_simulated` for aggregates).
    """
    if encoding is EncodingScheme.INTERVAL:
        raise InvalidPredicateError(
            "interval encoding has no per-predicate arithmetic mirror; "
            "use expected_scans_simulated"
        )
    if algorithm == "auto":
        algorithm = (
            "range_eval_opt"
            if encoding is EncodingScheme.RANGE
            else "equality_eval"
        )
    c = cardinality
    if value < 0 or value >= c:
        return 0

    if algorithm == "range_eval":
        digits = base.digits(value)
        return sum(
            1 if d in (0, base.component(i + 1) - 1) else 2
            for i, d in enumerate(digits)
        )

    if op in ("=", "!="):
        digits = base.digits(value)
        if algorithm == "equality_eval":
            return base.n
        return sum(
            1 if (base.component(i + 1) == 2 or d in (0, base.component(i + 1) - 1))
            else 2
            for i, d in enumerate(digits)
        )

    # Range operators reduce to LE(w).
    w = value - 1 if op in ("<", ">=") else value
    if w < 0 or w >= c - 1:
        return 0
    digits = base.digits(w)
    total = 0
    for i, d in enumerate(digits):
        b = base.component(i + 1)
        if algorithm == "range_eval_opt":
            if i == 0:
                total += 1 if d < b - 1 else 0
            else:
                total += (1 if d != b - 1 else 0) + (1 if d != 0 else 0)
        else:  # equality_eval
            total += _equality_range_scans(d, b, is_component_one=(i == 0))
    return total
