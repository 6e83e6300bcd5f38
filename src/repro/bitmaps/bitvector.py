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

from collections.abc import Iterable, Iterator, Sequence
from typing import ClassVar

import numpy as np

from repro.errors import CorruptFileError, LengthMismatchError

_WORD_BITS = 64


def _words_needed(nbits: int) -> int:
    """Number of 64-bit words required to hold ``nbits`` bits."""
    return (nbits + _WORD_BITS - 1) // _WORD_BITS


def _packed(members: np.ndarray, nbytes: int) -> np.ndarray:
    """Boolean ``members`` packed little-endian into ``nbytes`` bytes (at
    least ``ceil(len / 8)``), zero past them, as ``uint8``.

    The one bit packer of the three bitmap classes: a column laid out in a
    codec's word geometry (:meth:`BitVector._layout` and its counterparts)
    packs straight into that codec's words.  What falls short of whole
    words grows in place, zero-filled — one allocation, not ``packbits``,
    a zeroed buffer and a copy.
    """
    packed = np.packbits(members, bitorder="little")
    if len(packed) < nbytes:
        packed.resize(nbytes, refcheck=False)  # ours alone: nothing else refers to it
    return packed


def _count_bits(words: np.ndarray, axis: int | None = None):
    """Set bits of an unsigned array: of all of it, or summed along ``axis``.

    The one popcount of the three bitmap classes (``np.bitwise_count`` is
    why the package needs numpy 2.0).
    """
    return np.bitwise_count(words).sum(axis=axis, dtype=np.int64)


def _bit_positions(words: np.ndarray, count: int) -> np.ndarray:
    """Positions of the set bits of contiguous little-endian unsigned
    ``words`` (any width, any shape, read as one bitstream), ascending, as
    ``int64``; ``count`` is their popcount.

    The one set-bit enumeration of the three bitmap classes.  At one set
    bit in ten or fewer the words are cut down to their non-zero bytes
    first: at that density numpy's ``nonzero`` scans for each set element
    in turn, at 2-3x the cost.  Denser words are unpacked once and the
    bits viewed as ``bool``.
    """
    octets = words.view(np.uint8).reshape(-1)
    if 10 * count > 8 * len(octets):
        return np.unpackbits(octets, bitorder="little").view(bool).nonzero()[0]
    used = (octets != 0).nonzero()[0]
    bits = np.unpackbits(octets[used], bitorder="little").view(bool).nonzero()[0]
    return (used[bits >> 3] << 3) | (bits & 7)


def _ripple_threshold(operands: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Bit ``i`` of element ``j`` is set iff at least ``k`` of the ``N``
    equally shaped unsigned ``operands`` set it, for ``1 <= k <= N``.

    Bit-sliced ripple counters on packed words: slice ``s`` holds bit ``s``
    of every position's occurrence count, and each operand is added with
    one AND/XOR carry chain, never unpacking a bit.  ``count >= k`` is then
    a word-wise magnitude comparator against the constant ``k``: walk the
    slices from the most significant down, tracking positions already
    strictly greater (``gt``) and positions still tied with ``k``'s bits
    (``eq``).  ``O(N log N)`` word passes in all.  A bit no operand sets
    counts zero, which is below any valid ``k``, so padding stays clear.
    """
    first = operands[0]
    slices = [np.zeros_like(first) for _ in range(len(operands).bit_length())]
    for carry in operands:
        for index, current in enumerate(slices):
            slices[index] = current ^ carry
            carry = current & carry
    gt = np.zeros_like(first)
    eq = ~gt
    for index in reversed(range(len(slices))):
        current = slices[index]
        if (k >> index) & 1:
            eq = eq & current
        else:
            gt = gt | (eq & current)
            eq = eq & ~current
    return gt | eq


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
    #: Revision of the :meth:`to_payload` format this class reads and writes.
    payload_version: ClassVar[int] = 1

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
        return cls(len(bools), cls._pack(bools, len(bools)).view(np.uint64))

    @staticmethod
    def _layout(column: np.ndarray) -> np.ndarray:
        """A column of per-row values in this codec's word geometry: as it
        is, since row ``i`` is bit ``i`` of the packed words."""
        return column

    @staticmethod
    def _pack(members: np.ndarray, nbits: int) -> np.ndarray:
        """The payload of the bitmap whose rows are the true cells of
        ``members``, a comparison over a :meth:`_layout` of ``nbits`` rows:
        the padded words themselves, as ``uint8``."""
        return _packed(members, 8 * _words_needed(nbits))

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
        return int(_count_bits(self._words))

    def and_count(self, other: "BitVector") -> int:
        """``(self & other).count()`` without allocating the AND."""
        self._check_compatible(other)
        return int(_count_bits(self._words & other._words))

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
        return _bit_positions(self._words, int(_count_bits(self._words)))

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
    def or_many(cls, vectors: "Sequence[BitVector]") -> "BitVector":
        """OR k vectors into one new word array, ORed in place: no k - 1
        intermediate vectors."""
        first = vectors[0]
        words = first._words.copy()
        for other in vectors[1:]:
            first._check_compatible(other)
            np.bitwise_or(words, other._words, out=words)
        return cls(first._nbits, words)

    @classmethod
    def threshold_many(
        cls, vectors: "Iterable[BitVector]", k: int
    ) -> "BitVector":
        """k-of-N threshold: bit ``i`` set iff >= ``k`` operands set it.

        ``k == 1`` is the N-way OR and ``k == N`` the N-way AND; ``k <= 0``
        clamps to all-ones and ``k > N`` to all-zeros.

        Runs entirely on packed words (:func:`_ripple_threshold`).
        """
        vectors = list(vectors)
        first = vectors[0]
        for other in vectors[1:]:
            first._check_compatible(other)
        if k <= 0:
            return cls.ones(first._nbits)
        if k > len(vectors):
            return cls.zeros(first._nbits)
        return cls(first._nbits, _ripple_threshold([v._words for v in vectors], k))

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
