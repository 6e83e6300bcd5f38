"""Bitmap encoding schemes — dimension 2 of the paper's design space.

Each index component holds the bitmaps for one digit of the decomposed
attribute value.  Two encodings are considered (paper Section 2):

- **Equality encoding** (:class:`EqualityEncodedComponent`): bitmap ``B^j``
  marks the rows whose digit equals ``j``.  A component of base ``b`` has
  ``b`` bitmaps, but for ``b == 2`` only the ``j = 1`` bitmap is stored
  because the other is its complement (Theorem 5.1's ``s_i = 1`` case).
- **Range encoding** (:class:`RangeEncodedComponent`): bitmap ``B^j`` marks
  the rows whose digit is *at most* ``j``.  The top bitmap ``B^(b-1)`` is
  all ones and is never stored, so a component stores ``b - 1`` bitmaps.

Both classes index their *stored* bitmaps by digit slot ``j`` and expose the
same interface, so the in-memory index, the storage schemes, and the buffer
pool can all serve the evaluation algorithms interchangeably.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from repro.bitmaps.bitvector import BitVector
from repro.errors import ValueOutOfRangeError


class EncodingScheme(enum.Enum):
    """The bitmap encoding schemes.

    ``EQUALITY`` and ``RANGE`` are the two schemes the paper studies.
    ``INTERVAL`` is the authors' follow-up scheme (Chan & Ioannidis,
    SIGMOD 1999), included as an extension: it stores roughly half the
    bitmaps of range encoding while still answering any predicate with at
    most two bitmap scans per component.
    """

    EQUALITY = "equality"
    RANGE = "range"
    INTERVAL = "interval"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class _Component:
    """Common plumbing for the component encodings."""

    encoding: EncodingScheme

    def __init__(self, base: int, nbits: int, bitmaps: dict[int, BitVector]):
        self.base = base
        self.nbits = nbits
        self._bitmaps = bitmaps

    @classmethod
    def build(cls, digits: np.ndarray, base: int) -> "_Component":
        """Encode a digit column of values in ``[0, base)``: the dense case
        of :meth:`payloads`, whose payloads are the bitmaps' words."""
        digits = np.asarray(digits)
        _check_digits(digits, base)
        component = cls(base, len(digits), {})
        component._bitmaps = {
            j: sealed(BitVector(component.nbits, words.view(np.uint64)))
            for j, words in component.payloads(digits, BitVector).items()
        }
        return component

    def payloads(self, grid: np.ndarray, bitmap_type: type) -> dict:
        """Every stored slot's payload in ``bitmap_type``, from this
        component's digit column laid out by ``bitmap_type._layout`` — the
        one packer: per slot, one :meth:`membership` comparison over the
        grid and one ``bitmap_type._pack`` of it into that representation's
        words and payload.  The digits are trusted: callers check them
        once, up front."""
        return {
            j: bitmap_type._pack(self.membership(grid, j), self.nbits)
            for j in self.slots(self.base)
        }

    @staticmethod
    def slots(base: int) -> Sequence[int]:
        """Digit slots a component of ``base`` physically stores, increasing."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def membership(self, digit, slot: int):
        """Whether a row with this digit belongs in stored bitmap ``slot``
        (elementwise for a digit column)."""
        raise NotImplementedError

    def edited(self) -> "_Component":
        """A copy to edit, sharing each bitmap until it replaces it."""
        return type(self)(self.base, self.nbits, dict(self._bitmaps))

    def set_row(self, rid: int, digit: int) -> int:
        """Re-encode one row's digit, replacing each bitmap it changes by
        an edited copy (a shared bitmap is never written); returns how many.
        The digit is trusted, as :meth:`append_rows`' are: the index checks
        its ranks once."""
        touched = 0
        for slot, bitmap in list(self._bitmaps.items()):
            want = self.membership(digit, slot)
            if bitmap.get(rid) != want:
                self._bitmaps[slot] = with_bit(bitmap, rid, want)
                touched += 1
        return touched

    def append_rows(self, digits: np.ndarray) -> None:
        """Replace every stored bitmap by one extended with new rows' digits."""
        for slot, bitmap in list(self._bitmaps.items()):
            new_bits = self.membership(digits, slot)
            combined = np.concatenate((bitmap.to_bools(), new_bits))
            self._bitmaps[slot] = sealed(BitVector.from_bools(combined))
        self.nbits += len(digits)

    @property
    def num_stored(self) -> int:
        """Number of physically stored bitmaps (the space contribution)."""
        return len(self._bitmaps)

    def stored_slots(self) -> tuple[int, ...]:
        """Digit slots ``j`` that have a physical bitmap, in increasing order."""
        return tuple(sorted(self._bitmaps))

    def bitmap(self, slot: int) -> BitVector:
        """The stored bitmap for digit slot ``slot``.

        Raises ``KeyError`` for virtual (non-stored) slots; callers that
        need the virtual bitmaps (the all-ones top range bitmap, the
        complemented base-2 equality bitmap) synthesize them — see
        :mod:`repro.core.evaluation`.
        """
        return self._bitmaps[slot]

    def __contains__(self, slot: int) -> bool:
        return slot in self._bitmaps


class EqualityEncodedComponent(_Component):
    """One equality-encoded component (bitmap ``B^j`` = rows with digit ``j``)."""

    encoding = EncodingScheme.EQUALITY

    @staticmethod
    def slots(base: int) -> Sequence[int]:
        # Complement trick: base 2 stores only B^1; B^0 = NOT B^1.
        return range(base) if base > 2 else (1,)

    def membership(self, digit, slot: int):
        return digit == slot


class RangeEncodedComponent(_Component):
    """One range-encoded component (bitmap ``B^j`` = rows with digit ``<= j``)."""

    encoding = EncodingScheme.RANGE

    @staticmethod
    def slots(base: int) -> Sequence[int]:
        # Slot ``base - 1`` would be all ones and is virtual.
        return range(base - 1)

    def membership(self, digit, slot: int):
        return digit <= slot


class IntervalEncodedComponent(_Component):
    """One interval-encoded component (extension; Chan & Ioannidis 1999).

    With ``m = ceil(b / 2)``, bitmap ``I^j`` (``j = 0 .. m-1``) marks the
    rows whose digit lies in the length-``m`` window ``[j, j + m - 1]``.
    Any single-digit predicate is answerable from at most two of these
    bitmaps, with roughly half the storage of range encoding.
    """

    encoding = EncodingScheme.INTERVAL

    @staticmethod
    def slots(base: int) -> Sequence[int]:
        return range(interval_window(base))

    def membership(self, digit, slot: int):
        return (digit >= slot) & (digit < slot + interval_window(self.base))


def interval_window(base: int) -> int:
    """The interval-encoding window length ``m = ceil(base / 2)``."""
    return (base + 1) // 2


def _component_class(encoding: EncodingScheme) -> type[_Component]:
    for cls in (EqualityEncodedComponent, RangeEncodedComponent, IntervalEncodedComponent):
        if cls.encoding is encoding:
            return cls
    raise ValueError(f"unknown encoding {encoding!r}")


def build_component(
    digits: np.ndarray, base: int, encoding: EncodingScheme
) -> _Component:
    """Build a component of the requested encoding from a digit column."""
    return _component_class(encoding).build(digits, base)


def stored_bitmap_count(base: int, encoding: EncodingScheme) -> int:
    """Stored bitmaps of one component (Theorem 5.1's per-component space)."""
    return len(_component_class(encoding).slots(base))


def sealed(bitmap: BitVector) -> BitVector:
    """``bitmap`` with read-only words: a built bitmap never changes (an
    edit replaces it), so a write into one raises instead of tearing a query."""
    bitmap._words.flags.writeable = False
    return bitmap


def with_bit(bitmap: BitVector, rid: int, value: bool) -> BitVector:
    """A sealed copy of ``bitmap`` with bit ``rid`` set to ``value``."""
    edited = bitmap.copy()
    edited.set(rid, value)
    return sealed(edited)


def _check_digits(digits: np.ndarray, base: int) -> None:
    if base < 2:
        raise ValueOutOfRangeError(f"component base must be >= 2, got {base}")
    if digits.size and (digits.min() < 0 or digits.max() >= base):
        raise ValueOutOfRangeError(f"digit values outside [0, {base})")
