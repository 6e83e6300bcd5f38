"""Packed bitvectors built on 64-bit words.

A :class:`BitVector` is the in-memory representation of one bitmap of a
bitmap index: bit ``i`` corresponds to record (RID) ``i`` of the indexed
relation.  The class supports exactly the operations the paper's evaluation
algorithms need — logical AND, OR, XOR, and NOT — plus population count,
set-bit enumeration, and byte-level (de)serialization for the storage layer.

Bits are stored little-endian within each 64-bit word: bit ``i`` lives in
word ``i // 64`` at position ``i % 64``.  Unused tail bits in the final word
are always kept at zero so that :meth:`BitVector.count` and equality
comparisons never see garbage.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import ClassVar

import numpy as np

from repro.errors import CorruptFileError, LengthMismatchError

_WORD_BITS = 64

# ``np.bitwise_count`` exists from numpy 2.0; fall back to unpackbits-based
# popcount on older versions.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _words_needed(nbits: int) -> int:
    """Number of 64-bit words required to hold ``nbits`` bits."""
    return (nbits + _WORD_BITS - 1) // _WORD_BITS


class BitVector:
    """A fixed-length vector of bits packed into 64-bit words.

    Instances are mutable through :meth:`set`, but all logical operators
    return new vectors, which keeps evaluation-algorithm code free of
    aliasing surprises.

    Parameters
    ----------
    nbits:
        Length of the vector (number of records in the indexed relation).
    words:
        Optional backing array of ``uint64`` words.  When omitted the
        vector starts out all-zero.  The array is used as-is (not copied),
        so callers handing one in must not alias it elsewhere.
    """

    __slots__ = ("_nbits", "_words")

    #: Name of this representation in :data:`repro.bitmaps.BITMAP_CLASSES`.
    codec: ClassVar[str] = "dense"

    def __init__(self, nbits: int, words: np.ndarray | None = None):
        if nbits < 0:
            raise ValueError(f"nbits must be non-negative, got {nbits}")
        self._nbits = nbits
        if words is None:
            self._words = np.zeros(_words_needed(nbits), dtype=np.uint64)
        else:
            if words.dtype != np.uint64 or words.ndim != 1:
                raise ValueError("words must be a 1-D uint64 array")
            if len(words) != _words_needed(nbits):
                raise ValueError(
                    f"words has {len(words)} entries; "
                    f"{_words_needed(nbits)} needed for {nbits} bits"
                )
            self._words = words
            self._mask_tail()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, nbits: int) -> "BitVector":
        """An all-zero vector of length ``nbits``."""
        return cls(nbits)

    @classmethod
    def ones(cls, nbits: int) -> "BitVector":
        """An all-one vector of length ``nbits``."""
        words = np.full(_words_needed(nbits), np.uint64(0xFFFFFFFFFFFFFFFF))
        return cls(nbits, words)

    @classmethod
    def from_indices(cls, nbits: int, indices: Iterable[int]) -> "BitVector":
        """A vector with exactly the bits in ``indices`` set.

        Indices outside ``[0, nbits)`` raise ``IndexError``.
        """
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices)
        vec = cls(nbits)
        if idx.size == 0:
            return vec
        if idx.min() < 0 or idx.max() >= nbits:
            raise IndexError("bit index out of range")
        bools = np.zeros(nbits, dtype=bool)
        bools[idx] = True
        return cls.from_bools(bools)

    @classmethod
    def from_bools(cls, bools: np.ndarray) -> "BitVector":
        """Build a vector from a boolean numpy array (bit ``i`` = ``bools[i]``)."""
        bools = np.asarray(bools, dtype=bool)
        nbits = len(bools)
        nwords = _words_needed(nbits)
        packed = np.packbits(bools, bitorder="little")
        buf = np.zeros(nwords * 8, dtype=np.uint8)
        buf[: len(packed)] = packed
        return cls(nbits, buf.view(np.uint64))

    @classmethod
    def from_bitvector(cls, vector: "BitVector") -> "BitVector":
        """Identity: a dense vector already is its own representation."""
        return vector

    def to_bitvector(self) -> "BitVector":
        """Identity (the counterpart of the compressed classes' decode)."""
        return self

    def to_payload(self) -> bytes:
        """The stored form: the full padded word buffer (``8 * nwords`` bytes).

        Unlike :meth:`to_bytes` the tail padding is kept, so
        :meth:`from_payload` can wrap the bytes zero-copy.
        """
        return self._words.astype("<u8", copy=False).tobytes()

    @classmethod
    def from_payload(cls, buf, nbits: int) -> "BitVector":
        """Wrap a :meth:`to_payload` byte buffer without copying it.

        ``buf`` may be a view of an mmap'd file region or shared-memory
        segment; the vector keeps it alive and never writes to it.  The
        wrong length for ``nbits``, or set bits beyond ``nbits``, raise
        :class:`~repro.errors.CorruptFileError`.
        """
        if len(buf) != 8 * _words_needed(nbits):
            raise CorruptFileError(
                f"dense payload holds {len(buf)} bytes; "
                f"{8 * _words_needed(nbits)} expected for {nbits} bits"
            )
        words = np.frombuffer(buf, dtype="<u8")
        tail = nbits % _WORD_BITS
        if tail and words[-1] >> np.uint64(tail):
            raise CorruptFileError(
                "dense payload has nonzero bits beyond its length"
            )
        vector = cls.__new__(cls)
        vector._nbits = nbits
        vector._words = words
        return vector

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int) -> "BitVector":
        """Inverse of :meth:`to_bytes`.

        ``data`` must contain exactly ``ceil(nbits / 8)`` bytes.
        """
        expected = (nbits + 7) // 8
        if len(data) != expected:
            raise ValueError(f"expected {expected} bytes for {nbits} bits, got {len(data)}")
        nwords = _words_needed(nbits)
        buf = np.zeros(nwords * 8, dtype=np.uint8)
        buf[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        return cls(nbits, buf.view(np.uint64))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._nbits

    @property
    def nbits(self) -> int:
        """Length of the vector in bits."""
        return self._nbits

    @property
    def nbytes(self) -> int:
        """Serialized size in bytes (``ceil(nbits / 8)``)."""
        return (self._nbits + 7) // 8

    def get(self, i: int) -> bool:
        """Return bit ``i``."""
        self._check_index(i)
        word = int(self._words[i // _WORD_BITS])
        return bool((word >> (i % _WORD_BITS)) & 1)

    def set(self, i: int, value: bool = True) -> None:
        """Set bit ``i`` to ``value`` (in place)."""
        self._check_index(i)
        mask = np.uint64(1 << (i % _WORD_BITS))
        if value:
            self._words[i // _WORD_BITS] |= mask
        else:
            self._words[i // _WORD_BITS] &= ~mask

    def __getitem__(self, i: int) -> bool:
        return self.get(i)

    def count(self) -> int:
        """Population count: the number of set bits (the "foundset" size)."""
        if _HAS_BITWISE_COUNT:
            return int(np.bitwise_count(self._words).sum())
        as_bytes = self._words.view(np.uint8)
        return int(np.unpackbits(as_bytes).sum())

    def and_count(self, other: "BitVector") -> int:
        """``(self & other).count()`` without allocating the AND."""
        self._check_compatible(other)
        words = self._words & other._words
        if _HAS_BITWISE_COUNT:
            return int(np.bitwise_count(words).sum())
        return int(np.unpackbits(words.view(np.uint8)).sum())

    def any(self) -> bool:
        """``True`` if at least one bit is set."""
        return bool(self._words.any())

    def all(self) -> bool:
        """``True`` if every bit in ``[0, nbits)`` is set."""
        return self.count() == self._nbits

    def to_bools(self) -> np.ndarray:
        """The vector as a boolean numpy array of length ``nbits``."""
        bits = np.unpackbits(self._words.view(np.uint8), bitorder="little")
        return bits[: self._nbits].astype(bool)

    def indices(self) -> np.ndarray:
        """Sorted array of set-bit positions (the RID list of the bitmap)."""
        return np.nonzero(self.to_bools())[0]

    def iter_indices(self) -> Iterator[int]:
        """Iterate over set-bit positions in increasing order."""
        return iter(self.indices().tolist())

    def to_bytes(self) -> bytes:
        """Serialize to ``ceil(nbits / 8)`` little-endian-bit bytes."""
        return self._words.view(np.uint8)[: self.nbytes].tobytes()

    def copy(self) -> "BitVector":
        """An independent copy of this vector."""
        return BitVector(self._nbits, self._words.copy())

    # ------------------------------------------------------------------
    # Logical operations (the paper's AND / OR / XOR / NOT)
    # ------------------------------------------------------------------

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        return BitVector(self._nbits, self._words & other._words)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        return BitVector(self._nbits, self._words | other._words)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        return BitVector(self._nbits, self._words ^ other._words)

    def __invert__(self) -> "BitVector":
        result = BitVector(self._nbits, ~self._words)
        return result

    def andnot(self, other: "BitVector") -> "BitVector":
        """``self AND NOT other`` as a single operation."""
        self._check_compatible(other)
        return BitVector(self._nbits, self._words & ~other._words)

    @classmethod
    def threshold_many(
        cls, vectors: "Iterable[BitVector]", k: int
    ) -> "BitVector":
        """k-of-N threshold: bit ``i`` set iff >= ``k`` operands set it.

        ``k == 1`` is the N-way OR and ``k == N`` the N-way AND; ``k <= 0``
        clamps to all-ones and ``k > N`` to all-zeros.

        Runs entirely on packed words with bit-sliced ripple counters:
        slice ``j`` holds bit ``j`` of each position's occurrence count,
        and each operand is added with one AND/XOR carry chain — never
        unpacking a single bit.  The final ``count >= k`` comparison is a
        word-wise magnitude comparator against the constant ``k``, so the
        whole kernel is ``O(N log N)`` word passes instead of the 8x
        memory blow-up of unpack-and-sum.
        """
        vectors = list(vectors)
        first = vectors[0]
        for other in vectors[1:]:
            first._check_compatible(other)
        if k <= 0:
            return cls.ones(first._nbits)
        if k > len(vectors):
            return cls.zeros(first._nbits)
        slices = [
            np.zeros_like(first._words)
            for _ in range(len(vectors).bit_length())
        ]
        for vector in vectors:
            carry = vector._words
            for index, current in enumerate(slices):
                slices[index] = current ^ carry
                carry = current & carry
        # Word-wise (count >= k): walk the counter slices from the most
        # significant down, tracking positions already strictly greater
        # (gt) and positions still tied with k's bits (eq).
        gt = np.zeros_like(first._words)
        eq = np.full_like(first._words, np.uint64(0xFFFFFFFFFFFFFFFF))
        for index in reversed(range(len(slices))):
            current = slices[index]
            if (k >> index) & 1:
                eq = eq & current
            else:
                gt = gt | (eq & current)
                eq = eq & ~current
        # Tail bits beyond nbits stay clear: every operand's tail is zero,
        # so their counter reads zero and zero < k for any valid k.
        return cls(first._nbits, gt | eq)

    # ------------------------------------------------------------------
    # Comparison / repr
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._nbits == other._nbits and bool(
            np.array_equal(self._words, other._words)
        )

    def __hash__(self):  # pragma: no cover - explicit unhashability
        raise TypeError("BitVector is mutable and therefore unhashable")

    def __repr__(self) -> str:
        if self._nbits <= 64:
            bits = "".join("1" if self.get(i) else "0" for i in range(self._nbits))
            return f"BitVector({self._nbits}, bits={bits!r})"
        return f"BitVector({self._nbits}, count={self.count()})"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self._nbits:
            raise IndexError(f"bit index {i} out of range for {self._nbits}-bit vector")

    def _check_compatible(self, other: "BitVector") -> None:
        if not isinstance(other, BitVector):
            raise TypeError(f"expected BitVector, got {type(other).__name__}")
        if self._nbits != other._nbits:
            raise LengthMismatchError(
                f"cannot combine vectors of {self._nbits} and {other._nbits} bits"
            )

    def _mask_tail(self) -> None:
        """Force unused bits of the final word to zero."""
        if self._nbits == 0:
            return
        tail = self._nbits % _WORD_BITS
        if tail and len(self._words):
            keep = np.uint64((1 << tail) - 1)
            self._words[-1] &= keep
