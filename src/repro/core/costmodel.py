"""The paper's space/time cost model (Section 4, Theorem 5.1, Eq. 5).

Two metrics (paper Section 4):

- **Space** — number of stored bitmaps.
- **Time** — expected number of bitmap scans to evaluate one query drawn
  uniformly from ``Q = {A op v : op in {<, <=, =, !=, >=, >}, 0 <= v < C}``.

Every scan count the module predicts reads one rule per evaluation
algorithm, interval encoding's included: the bitmaps component ``i``
scans for its digit of ``A <= w`` (:func:`_le_cost`) and of ``A = v``
(:func:`_eq_cost`), numpy expressions over a digit array of any shape,
and the reduction of ``A op v`` to one of the two or to nothing
(:func:`_predicate_scans`, which mirrors
:func:`repro.core.evaluation._reduce`).  At one constant the rule is
:func:`scans_for_predicate`; summed over the ``6C`` queries it is the
exact time :func:`expected_scans` (:func:`expected_scans_weighted` when
constants are drawn non-uniformly); averaged over uniform digits it is
:func:`time_equality`.  No bitmap is touched.

Beside the rule stand the paper's *closed forms* (:func:`time_range`,
Eq. 4; :func:`time_range_buffered`, Eq. 5), which assume the constant's
digits uniform and independent — exact when the base's capacity equals
``C`` — and :func:`expected_scans_simulated`, which runs the real
evaluator.  The test suite checks the rule against both and against the
instrumented scans of every operator and constant.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme, stored_bitmap_count
from repro.core.evaluation import OPERATORS, Predicate, evaluate, resolve_algorithm
from repro.core.index import BitmapIndex
from repro.errors import BufferConfigError, InvalidPredicateError
from repro.stats import ExecutionStats

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

    The equality evaluator's rule (:func:`_le_cost`, :func:`_eq_cost`)
    averaged over uniform digits, mirroring Eq. (4)'s assumption: equality
    operators cost one scan per component; range operators cost, per
    component, the cheaper of the direct and complemented bitmap-OR.
    """
    range_cost = equality_cost = Fraction(0)
    for i in range(1, base.n + 1):
        b = base.component(i)
        digits = np.arange(b)
        range_cost += Fraction(int(_le_cost("equality_eval", i, b, digits).sum()), b)
        equality_cost += Fraction(int(_eq_cost("equality_eval", i, b, digits).sum()), b)
    return float(_RANGE_WEIGHT * range_cost + _EQUALITY_WEIGHT * equality_cost)


def time(base: Base, encoding: EncodingScheme = EncodingScheme.RANGE) -> float:
    """Closed-form expected scans for the given encoding.

    Interval encoding (the 1999 extension) has no published closed form;
    its time is the exact expectation over the query space with the
    base's full capacity as the cardinality.
    """
    if encoding is EncodingScheme.RANGE:
        return time_range(base)
    if encoding is EncodingScheme.INTERVAL:
        return expected_scans(base, base.capacity, encoding)
    return time_equality(base)


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
# The scan rule: one per algorithm, per component and digit
# ----------------------------------------------------------------------


def _le_cost(algorithm: str, i: int, b: int, d: np.ndarray) -> np.ndarray:
    """Scans component ``i`` (base number ``b``) costs toward ``A <= w``,
    for each of ``w``'s ``i``-th digits ``d``."""
    if algorithm == "range_eval_opt":
        # B^d unless it is the virtual all-ones top; past component 1
        # also B^(d-1), unless d = 0.
        if i == 1:
            return (d < b - 1).astype(np.int64)
        return (d != b - 1).astype(np.int64) + (d != 0)
    if algorithm == "equality_eval":
        # The cheaper side: digit <= d from d + 1 slots, or its complement
        # from the rest; past component 1 the slot of d is read as
        # digit = d on the direct side and reused by the complement.
        return np.minimum(d + 1, b - d - (i == 1))
    # interval_eval
    m = (b + 1) // 2
    if i == 1:  # I^0 and one more window; I^0 alone at d = m - 1
        return np.where(d == b - 1, 0, np.where(d == m - 1, 1, 2))
    # digit = d, and digit < d sharing what it can: inside either half
    # of the windows the two share only I^0, one scan more.
    r = d % m
    return _eq_cost(algorithm, i, b, d) + ((0 < r) & (r < m - 1))


def _eq_cost(algorithm: str, i: int, b: int, d: np.ndarray) -> np.ndarray:
    """Scans component ``i`` (base number ``b``) costs toward ``A = v``,
    for each of ``v``'s ``i``-th digits ``d``."""
    if algorithm == "equality_eval":
        return np.ones_like(d)
    if algorithm == "interval_eval":  # two windows; the one bitmap when b = 2
        return np.full_like(d, 1 if b == 2 else 2)
    # Range encoding: B^0 or NOT B^(b-2) at the ends, B^d XOR B^(d-1) inside.
    return np.where((d == 0) | (d == b - 1), 1, 2)


def _predicate_scans(
    base: Base, cardinality: int, algorithm: str, op: str, values: np.ndarray
) -> np.ndarray:
    """Scans of ``A op v`` for each constant in ``values``.

    The reduction of :func:`repro.core.evaluation._reduce`: a constant
    outside ``[0, C)`` reads nothing; ``=`` and ``!=`` cost ``A = v``;
    ``<``/``>=`` cost ``A <= v-1`` and ``<=``/``>`` cost ``A <= v``, with
    ``A <= -1`` and ``A <= C-1`` reading nothing.  ``range_eval`` costs
    ``A = v`` under every operator.
    """
    w = values
    live = (0 <= values) & (values < cardinality)
    cost = _eq_cost
    if algorithm != "range_eval" and op not in ("=", "!="):
        cost = _le_cost
        w = values - 1 if op in ("<", ">=") else values
        live &= (0 <= w) & (w < cardinality - 1)
    scans = np.zeros(len(values), dtype=np.int64)
    digits = base.digit_arrays(w[live])
    for i in range(1, base.n + 1):
        scans[live] += cost(algorithm, i, base.component(i), digits[i - 1].astype(np.int64))
    return scans


def scans_for_predicate(
    base: Base,
    cardinality: int,
    op: str,
    value: int,
    encoding: EncodingScheme = EncodingScheme.RANGE,
    algorithm: str = "auto",
) -> int:
    """Scans the evaluator charges for the single predicate ``A op value``
    (any integer ``value``; out of the domain it reads nothing)."""
    algorithm = resolve_algorithm(algorithm, encoding)
    values = np.array([value], dtype=np.int64)
    return int(_predicate_scans(base, cardinality, algorithm, op, values)[0])


# ----------------------------------------------------------------------
# Exact expected scans over the query space
# ----------------------------------------------------------------------


def _scans_per_constant(
    base: Base, cardinality: int, encoding: EncodingScheme, algorithm: str
) -> np.ndarray:
    """Scans of the six queries ``A op v``, summed, for every ``v`` in
    ``[0, C)``: integers, so each expectation divides exactly once."""
    algorithm = resolve_algorithm(algorithm, encoding)
    values = np.arange(cardinality, dtype=np.int64)
    return np.sum(
        [_predicate_scans(base, cardinality, algorithm, op, values) for op in OPERATORS],
        axis=0,
    )


def expected_scans(
    base: Base,
    cardinality: int,
    encoding: EncodingScheme = EncodingScheme.RANGE,
    algorithm: str = "auto",
) -> float:
    """Exact expected scans over the uniform query space ``Q``.

    Sums the rule over all ``6 * cardinality`` queries — no bitmaps are
    built.  ``algorithm`` is any name
    :func:`repro.core.evaluation.evaluate` takes (``'auto'`` is the
    encoding's recommended algorithm).
    """
    totals = _scans_per_constant(base, cardinality, encoding, algorithm)
    return float(totals.sum()) / (6 * cardinality)


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
    per_value = _scans_per_constant(base, cardinality, encoding, algorithm) / 6.0
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
    negligible expense.  It is the reference the test suite checks
    :func:`expected_scans` against.
    """
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
