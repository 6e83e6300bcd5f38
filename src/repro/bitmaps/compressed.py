"""Compressed bitvectors: logical algebra without decompression.

:class:`WahBitVector` holds a bitmap as a parsed WAH *run list*
(:mod:`repro.bitmaps.wah`: ``uint32`` group values plus cumulative run
ends, or one value per 31-bit group once the bitmap is literal-heavy) and
implements the same logical operators as
:class:`~repro.bitmaps.bitvector.BitVector` on those arrays.  On
run-structured bitmaps an AND costs time proportional to the number of
*runs* rather than the number of bits — the property that made
word-aligned codecs the standard for bitmap indexes after the paper — and
on incompressible ones it is a word-parallel pass over the groups.  The
byte payload of the WAH format exists only at the boundary:
:meth:`WahBitVector.from_payload` parses and validates it once,
:meth:`WahBitVector.to_payload` encodes it; no kernel touches bytes.

The class mirrors enough of the :class:`BitVector` surface — ``zeros`` /
``ones`` constructors, ``count``, ``indices``, ``to_bools``, ``copy``,
``nbytes`` — that the evaluation algorithms of
:mod:`repro.core.evaluation` run unmodified over either representation;
only the final ``indices()``/``to_bools()`` materialization unpacks bits.
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
    Runs,
    _and_popcount,
    _bits_from_groups,
    _canonical,
    _combine,
    _encode_runs,
    _expand,
    _expected_groups,
    _groups_from_bytes,
    _not,
    _ones_runs,
    _parse_runs,
    _popcount,
    _set_bits,
    _threshold,
    wah_word_count,
)
from repro.errors import CorruptFileError, LengthMismatchError


def _groups_for(nbits: int) -> int:
    """31-bit groups of a vector of ``nbits`` bits (byte-padded first)."""
    return _expected_groups((nbits + 7) // 8)


class WahBitVector:
    """A WAH-compressed bitmap supporting compressed-domain algebra."""

    __slots__ = ("_runs", "_nbits")

    #: Name of this representation in :data:`repro.bitmaps.BITMAP_CLASSES`.
    codec: ClassVar[str] = "wah"

    def __init__(self, runs: Runs, nbits: int):
        #: Canonical ``(values, ends)`` from :mod:`repro.bitmaps.wah`; the
        #: arrays are never written to, so vectors may share them.
        self._runs = runs
        self._nbits = nbits

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, nbits: int) -> "WahBitVector":
        """The all-zero compressed vector of ``nbits`` bits (one fill run)."""
        return cls(_ones_runs(0, _groups_for(nbits)), nbits)

    @classmethod
    def ones(cls, nbits: int) -> "WahBitVector":
        """The all-one compressed vector of ``nbits`` bits (at most 3 runs)."""
        return cls(_ones_runs(nbits, _groups_for(nbits)), nbits)

    @classmethod
    def from_bitvector(cls, vector: BitVector) -> "WahBitVector":
        """Compress an uncompressed vector."""
        groups = _groups_from_bytes(vector.to_bytes())
        return cls(_canonical((groups, None), len(groups)), vector.nbits)

    def to_bitvector(self) -> BitVector:
        """Materialize back to the uncompressed form."""
        return BitVector.from_bools(self.to_bools())

    def to_payload(self) -> bytes:
        """The stored form: the canonical WAH blob (length header + words)."""
        return _encode_runs(self._runs, (self._nbits + 7) // 8)

    @classmethod
    def from_payload(cls, buf, nbits: int) -> "WahBitVector":
        """Parse a :meth:`to_payload` blob (nothing of ``buf`` is kept).

        The whole payload is validated here, so corruption surfaces at
        the fetch and never mid-query: a length header that disagrees
        with ``nbits``, a body that is not word-aligned, or run words
        that decode to too few or too many groups each raise
        :class:`~repro.errors.CorruptFileError`.
        """
        declared, runs = _parse_runs(buf)
        if declared != (nbits + 7) // 8:
            raise CorruptFileError(
                f"WAH payload declares {declared} bytes of bits; "
                f"{(nbits + 7) // 8} expected for {nbits} bits"
            )
        return cls(runs, nbits)

    def copy(self) -> "WahBitVector":
        """An independent handle (the run arrays are never mutated)."""
        return WahBitVector(self._runs, self._nbits)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def nbits(self) -> int:
        return self._nbits

    @property
    def compressed_bytes(self) -> int:
        """Size of the encoded payload (:meth:`to_payload`)."""
        return len(self.to_payload())

    @property
    def nbytes(self) -> int:
        """In-memory footprint: the bytes of the resident run arrays.

        Fixed for the object's life, so byte-budget caches can add it on
        ``put`` and subtract it on eviction.  4 bytes per group in the
        per-group form, 12 per run otherwise.
        """
        values, ends = self._runs
        return values.nbytes + (0 if ends is None else ends.nbytes)

    @property
    def num_words(self) -> int:
        """32-bit WAH words in the encoded payload (the run count bound)."""
        return wah_word_count(self.to_payload())

    def count(self) -> int:
        """Population count, computed on the compressed form."""
        return _popcount(self._runs)

    def and_count(self, other: "WahBitVector") -> int:
        """``(self & other).count()`` without materializing the AND.

        The aggregate-pushdown primitive: the operands are aligned and
        popcounted, but no result vector is built.
        """
        (left, right), ngroups = self._operands((self, other))
        return _and_popcount(left, right, ngroups)

    def any(self) -> bool:
        return self.count() > 0

    def to_bools(self) -> np.ndarray:
        """Decode to a boolean numpy array of length ``nbits``."""
        bits = _bits_from_groups(_expand(self._runs))
        return bits[: self._nbits].view(bool)

    def indices(self) -> np.ndarray:
        """Sorted array of set-bit positions (unpacks non-zero groups only)."""
        return _set_bits(self._runs)

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

    @staticmethod
    def _operands(vectors: Sequence["WahBitVector"]) -> tuple[list[Runs], int]:
        """The run lists of compatible vectors, and their group count."""
        first = vectors[0]
        for other in vectors[1:]:
            first._check(other)
        return [v._runs for v in vectors], _groups_for(first._nbits)

    @classmethod
    def _fold(cls, vectors: Sequence["WahBitVector"], op) -> "WahBitVector":
        operands, ngroups = cls._operands(vectors)
        return cls(_combine(operands, op, ngroups), vectors[0]._nbits)

    def __and__(self, other: "WahBitVector") -> "WahBitVector":
        return self._fold((self, other), np.bitwise_and)

    def __or__(self, other: "WahBitVector") -> "WahBitVector":
        return self._fold((self, other), np.bitwise_or)

    def __xor__(self, other: "WahBitVector") -> "WahBitVector":
        return self._fold((self, other), np.bitwise_xor)

    def __invert__(self) -> "WahBitVector":
        runs = _not(self._runs, self._nbits, _groups_for(self._nbits))
        return WahBitVector(runs, self._nbits)

    @classmethod
    def or_many(cls, vectors: Sequence["WahBitVector"]) -> "WahBitVector":
        """OR k vectors in one multi-way alignment (k-way aggregation).

        Equivalent to folding ``|`` pairwise, but the operands are aligned
        once, so wide ORs (the ``digit < v`` side of equality-encoded
        evaluation) build no k - 1 intermediate vectors.
        """
        return cls._fold(vectors, np.bitwise_or)

    @classmethod
    def and_many(cls, vectors: Sequence["WahBitVector"]) -> "WahBitVector":
        """AND k vectors in one multi-way alignment (see :meth:`or_many`)."""
        return cls._fold(vectors, np.bitwise_and)

    @classmethod
    def threshold_many(
        cls, vectors: Sequence["WahBitVector"], k: int
    ) -> "WahBitVector":
        """k-of-N threshold in one multi-way alignment.

        Bit ``i`` of the result is set iff at least ``k`` operands have
        bit ``i`` set; ``k <= 0`` clamps to all-ones and ``k > N`` to
        all-zeros over the true bit length.  Runs entirely in the
        compressed domain (bit-sliced counters over aligned run values).
        """
        operands, ngroups = cls._operands(vectors)
        nbits = vectors[0]._nbits
        if k <= 0:
            return cls.ones(nbits)
        if k > len(vectors):
            return cls.zeros(nbits)
        return cls(_threshold(operands, k, ngroups), nbits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WahBitVector):
            return NotImplemented
        # Payloads are canonical: equal bitmaps encode to equal bytes.
        return (
            self._nbits == other._nbits
            and self.to_payload() == other.to_payload()
        )

    def __hash__(self):  # pragma: no cover - parity with BitVector
        raise TypeError("WahBitVector is unhashable")

    def __repr__(self) -> str:
        return (
            f"WahBitVector({self._nbits} bits, "
            f"{self.compressed_bytes} compressed bytes, "
            f"{self.num_words} words)"
        )
