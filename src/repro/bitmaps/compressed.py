"""Compressed bitvectors: logical algebra without decompression.

:class:`WahBitVector` keeps a bitmap in WAH-encoded form and implements
the same logical operators as :class:`~repro.bitmaps.bitvector.BitVector`
by operating run-by-run on the compressed payloads
(:func:`repro.bitmaps.wah.wah_and` and friends).  On run-structured
bitmaps this makes an AND cost proportional to the number of *runs*
rather than the number of bits — the property that made word-aligned
codecs the standard for bitmap indexes after the paper.

The class mirrors enough of the :class:`BitVector` surface — ``zeros`` /
``ones`` constructors, ``count``, ``indices``, ``to_bools``, ``copy``,
``nbytes`` — that the evaluation algorithms of
:mod:`repro.core.evaluation` run unmodified over either representation;
only the final ``indices()``/``to_bools()`` materialization decodes.
The two vector types interconvert losslessly; the
``ablation_compressed_ops`` experiment and ``bench_compressed_path``
benchmark quantify when staying compressed wins.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import ClassVar

import numpy as np

from repro.bitmaps.bitvector import BitVector
from repro.bitmaps.wah import (
    _HEADER as _WAH_HEADER,
    wah_and,
    wah_and_many,
    wah_and_popcount,
    wah_decode,
    wah_encode,
    wah_not,
    wah_ones,
    wah_or,
    wah_or_many,
    wah_popcount,
    wah_threshold_many,
    wah_word_count,
    wah_xor,
    wah_zeros,
)
from repro.errors import CorruptFileError, LengthMismatchError


class WahBitVector:
    """A WAH-compressed bitmap supporting compressed-domain algebra."""

    __slots__ = ("_blob", "_nbits")

    #: Name of this representation in :data:`repro.bitmaps.BITMAP_CLASSES`.
    codec: ClassVar[str] = "wah"

    def __init__(self, blob: bytes, nbits: int):
        self._blob = blob
        self._nbits = nbits

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, nbits: int) -> "WahBitVector":
        """The all-zero compressed vector of ``nbits`` bits (one fill run)."""
        return cls(wah_zeros(nbits), nbits)

    @classmethod
    def ones(cls, nbits: int) -> "WahBitVector":
        """The all-one compressed vector of ``nbits`` bits (at most 3 runs)."""
        return cls(wah_ones(nbits), nbits)

    @classmethod
    def from_bitvector(cls, vector: BitVector) -> "WahBitVector":
        """Compress an uncompressed vector."""
        return cls(wah_encode(vector.to_bytes()), vector.nbits)

    def to_bitvector(self) -> BitVector:
        """Materialize back to the uncompressed form."""
        return BitVector.from_bytes(wah_decode(self._blob), self._nbits)

    def to_payload(self) -> bytes:
        """The stored form: the WAH blob (length header + words)."""
        return self._blob

    @classmethod
    def from_payload(cls, buf, nbits: int) -> "WahBitVector":
        """Adopt a :meth:`to_payload` blob (copied out of ``buf``).

        Only the blob's length header is checked here, against ``nbits``
        (:class:`~repro.errors.CorruptFileError` on a mismatch); the run
        words are validated when an operation first parses them.
        """
        if len(buf) < _WAH_HEADER.size:
            raise CorruptFileError("WAH payload shorter than its header")
        (declared,) = _WAH_HEADER.unpack_from(buf)
        if declared != (nbits + 7) // 8:
            raise CorruptFileError(
                f"WAH payload declares {declared} bytes of bits; "
                f"{(nbits + 7) // 8} expected for {nbits} bits"
            )
        return cls(bytes(buf), nbits)

    def copy(self) -> "WahBitVector":
        """An independent handle (payloads are immutable bytes)."""
        return WahBitVector(self._blob, self._nbits)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def nbits(self) -> int:
        return self._nbits

    @property
    def compressed_bytes(self) -> int:
        """Size of the compressed payload."""
        return len(self._blob)

    @property
    def nbytes(self) -> int:
        """In-memory footprint in bytes (the compressed payload size).

        Mirrors :attr:`BitVector.nbytes` so byte-budget caches can size
        entries of either representation uniformly.
        """
        return len(self._blob)

    @property
    def num_words(self) -> int:
        """32-bit WAH words in the payload (the run count bound)."""
        return wah_word_count(self._blob)

    def count(self) -> int:
        """Population count, computed on the compressed form."""
        return wah_popcount(self._blob)

    def and_count(self, other: "WahBitVector") -> int:
        """``(self & other).count()`` without materializing the AND.

        The aggregate-pushdown primitive: one fused run merge
        (:func:`repro.bitmaps.wah.wah_and_popcount`) — no result payload
        is encoded, so intersect-and-count stays cheap even when the
        intersection itself is incompressible.
        """
        self._check(other)
        return wah_and_popcount(self._blob, other._blob)

    def any(self) -> bool:
        return self.count() > 0

    def to_bools(self) -> np.ndarray:
        """Decode to a boolean numpy array of length ``nbits``."""
        return self.to_bitvector().to_bools()

    def indices(self) -> np.ndarray:
        """Sorted array of set-bit positions (decodes once)."""
        return self.to_bitvector().indices()

    # ------------------------------------------------------------------
    # Compressed-domain algebra
    # ------------------------------------------------------------------

    def _check(self, other: "WahBitVector") -> None:
        if not isinstance(other, WahBitVector):
            raise TypeError(
                f"expected WahBitVector, got {type(other).__name__}"
            )
        if self._nbits != other._nbits:
            raise LengthMismatchError(
                f"cannot combine vectors of {self._nbits} and "
                f"{other._nbits} bits"
            )

    def __and__(self, other: "WahBitVector") -> "WahBitVector":
        self._check(other)
        return WahBitVector(wah_and(self._blob, other._blob), self._nbits)

    def __or__(self, other: "WahBitVector") -> "WahBitVector":
        self._check(other)
        return WahBitVector(wah_or(self._blob, other._blob), self._nbits)

    def __xor__(self, other: "WahBitVector") -> "WahBitVector":
        self._check(other)
        return WahBitVector(wah_xor(self._blob, other._blob), self._nbits)

    def __invert__(self) -> "WahBitVector":
        return WahBitVector(wah_not(self._blob, self._nbits), self._nbits)

    @classmethod
    def or_many(cls, vectors: Sequence["WahBitVector"]) -> "WahBitVector":
        """OR k vectors in one multi-way run merge (k-way aggregation).

        Equivalent to folding ``|`` pairwise, but each payload is parsed
        once and the merged run boundaries walked once, so wide ORs (the
        ``digit < v`` side of equality-encoded evaluation) cost one pass
        over the total runs instead of k - 1 intermediate payloads.
        """
        first = vectors[0]
        for other in vectors[1:]:
            first._check(other)
        return cls(wah_or_many([v._blob for v in vectors]), first._nbits)

    @classmethod
    def and_many(cls, vectors: Sequence["WahBitVector"]) -> "WahBitVector":
        """AND k vectors in one multi-way run merge (see :meth:`or_many`)."""
        first = vectors[0]
        for other in vectors[1:]:
            first._check(other)
        return cls(wah_and_many([v._blob for v in vectors]), first._nbits)

    @classmethod
    def threshold_many(
        cls, vectors: Sequence["WahBitVector"], k: int
    ) -> "WahBitVector":
        """k-of-N threshold in one multi-way run merge.

        Bit ``i`` of the result is set iff at least ``k`` operands have
        bit ``i`` set; ``k <= 0`` clamps to all-ones and ``k > N`` to
        all-zeros over the true bit length.  Runs entirely in the
        compressed domain (:func:`repro.bitmaps.wah.wah_threshold_many`).
        """
        first = vectors[0]
        for other in vectors[1:]:
            first._check(other)
        if k <= 0:
            return cls.ones(first._nbits)
        if k > len(vectors):
            return cls.zeros(first._nbits)
        return cls(
            wah_threshold_many([v._blob for v in vectors], k), first._nbits
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WahBitVector):
            return NotImplemented
        return self._nbits == other._nbits and (
            self._blob == other._blob
            or self.to_bitvector() == other.to_bitvector()
        )

    def __hash__(self):  # pragma: no cover - parity with BitVector
        raise TypeError("WahBitVector is unhashable")

    def __repr__(self) -> str:
        return (
            f"WahBitVector({self._nbits} bits, "
            f"{self.compressed_bytes} compressed bytes, "
            f"{self.num_words} words)"
        )
