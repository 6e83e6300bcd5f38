"""Attribute value decomposition — dimension 1 of the paper's design space.

An attribute value ``v`` (an integer in ``[0, C)``) is decomposed into a
sequence of ``n`` digits ``<v_n, …, v_1>`` according to a mixed-radix base
``<b_n, …, b_1>``::

    v = v_n * (b_{n-1} * … * b_1) + … + v_2 * b_1 + v_1,    0 <= v_i < b_i

Component 1 is the *least significant* digit, matching the paper's
numbering.  A base is *well-defined* when every ``b_i >= 2``; it *covers*
cardinality ``C`` when the product of its base numbers is at least ``C``.

The paper's notation writes bases most-significant first
(``<b_n, …, b_1>``); :class:`Base` adopts the same convention for its
constructor and ``repr`` while exposing 1-based, least-significant-first
component access via :meth:`Base.component`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from repro.errors import InvalidBaseError, ValueOutOfRangeError


class Base:
    """A mixed-radix decomposition base ``<b_n, …, b_1>``.

    Instances are immutable and hashable, so they can be used as dictionary
    keys by the optimization algorithms.

    Parameters
    ----------
    bases:
        Base numbers, most significant first (the paper's notation).
        ``Base((3, 3))`` is the paper's base-``<3, 3>``.
    """

    __slots__ = ("_bases", "_weights")

    def __init__(self, bases: Sequence[int]):
        bases = tuple(int(b) for b in bases)
        if not bases:
            raise InvalidBaseError("a base needs at least one component")
        for b in bases:
            if b < 2:
                raise InvalidBaseError(
                    f"base {bases} is not well-defined: every base number "
                    f"must be >= 2, found {b}"
                )
        self._bases = bases
        # _weights[i] = product of bases strictly less significant than
        # component (i+1), least-significant-first; weight of component 1 is 1.
        weights = []
        acc = 1
        for b in reversed(bases):
            weights.append(acc)
            acc *= b
        self._weights = tuple(weights)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def single(cls, cardinality: int) -> "Base":
        """The 1-component base ``<C>`` (the Value-List / time-optimal shape)."""
        if cardinality < 2:
            raise InvalidBaseError("cardinality must be at least 2")
        return cls((cardinality,))

    @classmethod
    def uniform(cls, b: int, cardinality: int) -> "Base":
        """The smallest uniform base-``b`` index covering ``cardinality``.

        Uses ``n = ceil(log_b C)`` components, as in the paper's Figure 5.
        """
        if b < 2:
            raise InvalidBaseError(f"uniform base number must be >= 2, got {b}")
        if cardinality < 2:
            raise InvalidBaseError("cardinality must be at least 2")
        n = 1
        capacity = b
        while capacity < cardinality:
            n += 1
            capacity *= b
        return cls((b,) * n)

    @classmethod
    def binary(cls, cardinality: int) -> "Base":
        """The base-2 index (the paper's space-optimal shape)."""
        return cls.uniform(2, cardinality)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of components."""
        return len(self._bases)

    @property
    def bases(self) -> tuple[int, ...]:
        """Base numbers, most significant first (paper notation)."""
        return self._bases

    @property
    def capacity(self) -> int:
        """Product of the base numbers — the largest representable count."""
        return self._weights[-1] * self._bases[0]

    def component(self, i: int) -> int:
        """Base number ``b_i`` of component ``i`` (1 = least significant)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"component {i} out of range 1..{self.n}")
        return self._bases[self.n - i]

    def covers(self, cardinality: int) -> bool:
        """``True`` if this base can represent all values in ``[0, cardinality)``."""
        return self.capacity >= cardinality

    def is_uniform(self) -> bool:
        """``True`` if every component has the same base number."""
        return len(set(self._bases)) == 1

    # ------------------------------------------------------------------
    # Decompose / compose
    # ------------------------------------------------------------------

    def digits(self, value: int) -> tuple[int, ...]:
        """Digits ``(v_1, …, v_n)`` of ``value``, least significant first."""
        if not 0 <= value < self.capacity:
            raise ValueOutOfRangeError(
                f"value {value} outside [0, {self.capacity}) for base {self}"
            )
        out = []
        rest = value
        for b in reversed(self._bases):
            out.append(rest % b)
            rest //= b
        return tuple(out)

    def compose(self, digits: Sequence[int]) -> int:
        """Inverse of :meth:`digits`."""
        if len(digits) != self.n:
            raise ValueOutOfRangeError(
                f"expected {self.n} digits for base {self}, got {len(digits)}"
            )
        value = 0
        for i, d in enumerate(digits):  # i = 0 -> component 1
            b = self.component(i + 1)
            if not 0 <= d < b:
                raise ValueOutOfRangeError(
                    f"digit {d} out of range [0, {b}) in component {i + 1}"
                )
            value += d * self._weights[i]
        return value

    def digit_arrays(self, values: np.ndarray) -> list[np.ndarray]:
        """Vectorized :meth:`digits` for a whole column.

        Returns a list of ``n`` integer arrays; entry ``i`` (0-based) holds
        digit ``v_{i+1}`` (component ``i + 1``) for every input value, in
        the smallest unsigned dtype that holds ``b_{i+1} - 1`` — the
        encoders compare each digit array once per stored bitmap.
        """
        values = np.asarray(values)
        if values.size and (values.min() < 0 or values.max() >= self.capacity):
            raise ValueOutOfRangeError(
                f"values outside [0, {self.capacity}) for base {self}"
            )
        return self._digit_columns(values)

    def _digit_columns(self, values: np.ndarray) -> list[np.ndarray]:
        """:meth:`digit_arrays` of ``values`` already known to lie in
        ``[0, capacity)``: not checked again."""
        out = []
        rest = values.astype(np.min_scalar_type(min(self.capacity, 2**63) - 1))
        for b in self._bases[:0:-1]:
            rest, digit = np.divmod(rest, b)
            out.append(digit.astype(np.min_scalar_type(b - 1), copy=False))
        # values < capacity, so what is left is the most significant digit.
        out.append(rest.astype(np.min_scalar_type(self._bases[0] - 1), copy=False))
        return out

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter(self._bases)

    def __len__(self) -> int:
        return len(self._bases)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Base):
            return self._bases == other._bases
        if isinstance(other, tuple):
            return self._bases == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bases)

    def __repr__(self) -> str:
        inner = ", ".join(str(b) for b in self._bases)
        return f"Base(<{inner}>)"


def integer_nth_root_ceil(value: int, n: int) -> int:
    """Smallest integer ``b`` with ``b ** n >= value`` (exact arithmetic).

    Theorem 6.1 needs ``⌈C^(1/n)⌉``; computing it in floats mis-rounds for
    large ``C``, so we correct a float estimate with integer checks.
    """
    if value <= 1:
        return 1
    if n == 1:
        return value
    b = max(1, int(round(value ** (1.0 / n))))
    while b**n >= value:
        b -= 1
    while b**n < value:
        b += 1
    return b


def product(values: Sequence[int]) -> int:
    """Integer product of a sequence (empty product is 1)."""
    return math.prod(values)
