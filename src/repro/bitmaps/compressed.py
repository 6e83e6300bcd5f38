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
byte payload of the WAH format exists only at the boundary, and this
class is its one reader and writer: :meth:`WahBitVector.from_payload`
parses and validates it once (:func:`~repro.bitmaps.wah._parse_runs`,
where payload words are read, and :func:`~repro.bitmaps.wah._set_past`,
which holds it to its bit length), :meth:`WahBitVector.to_payload`
encodes it; no kernel touches bytes.
The index store's writer makes payloads without a vector at all:
``WahBitVector._layout`` lays a digit column out as one 31-bit group per
row, and ``WahBitVector._pack`` packs a slot's comparison over it
straight into ``uint32`` groups and on to the payload words
(:func:`~repro.bitmaps.wah._payload_words`, where they are made).

The class mirrors enough of the :class:`BitVector` surface — ``zeros`` /
``ones`` constructors, ``count``, ``indices``, ``to_bools``, ``copy``,
``nbytes`` — that the evaluation algorithms of
:mod:`repro.core.evaluation` run unmodified over either representation;
only the final ``indices()``/``to_bools()`` materialization unpacks bits,
through the set-bit enumeration the three classes share.  An operator's
result is *loose*: it keeps the aligned form its kernel left, which the
next operator reads as it is, and is canonicalized (*sealed*) once, when
its resident size is asked for; built and parsed vectors are sealed from
the start.
The two vector types interconvert losslessly; the
``ablation_compressed_ops`` experiment and ``bench_compressed_path``
benchmark quantify when staying compressed wins.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import ClassVar

import numpy as np

from repro.bitmaps.bitvector import BitVector, _bit_positions, _packed
from repro.bitmaps.wah import (
    _GROUP_BITS,
    _HEADER,
    _LITERAL_MASK,
    Runs,
    _and_popcount,
    _bytes_from_groups,
    _canonical,
    _combine,
    _encode_runs,
    _expand,
    _expected_groups,
    _group_form,
    _group_runs,
    _groups_from_bytes,
    _not,
    _ones_runs,
    _parse_runs,
    _payload_words,
    _popcount,
    _set_past,
    _threshold,
)
from repro.errors import CorruptFileError, LengthMismatchError


def _groups_for(nbits: int) -> int:
    """31-bit groups of a vector of ``nbits`` bits (byte-padded first)."""
    return _expected_groups((nbits + 7) // 8)


class WahBitVector:
    """A WAH-compressed bitmap supporting compressed-domain algebra.

    Instances are immutable in content: no array of an instance is ever
    written to, so vectors may share them.  The one write is the seal of a
    loose result (see the module docstring): the first ``nbytes`` replaces
    its run list by the canonical one, same bits, in one attribute
    assignment, so a concurrent reader sees one form or the other, each
    whole.
    """

    __slots__ = ("_runs", "_nbits", "_loose")

    #: Name of this representation in :data:`repro.bitmaps.BITMAP_CLASSES`.
    codec: ClassVar[str] = "wah"
    #: Revision of the :meth:`to_payload` format this class reads and writes.
    payload_version: ClassVar[int] = 1

    def __init__(self, runs: Runs, nbits: int):
        #: Canonical ``(values, ends)`` from :mod:`repro.bitmaps.wah` unless
        #: ``_loose``; the arrays are never written to.
        self._runs = runs
        self._nbits = nbits
        self._loose = False

    @classmethod
    def _result(cls, runs: Runs, nbits: int) -> "WahBitVector":
        """A kernel's result: its runs as the kernel left them, loose."""
        vector = cls(runs, nbits)
        vector._loose = True
        return vector

    def _sealed(self) -> Runs:
        """The run list, canonicalized first if a kernel left it loose.

        The runs are replaced before the mark is cleared, so a reader that
        still sees the mark canonicalizes canonical runs: the same arrays.
        """
        if self._loose:
            self._runs = _canonical(self._runs, _groups_for(self._nbits))
            self._loose = False
        return self._runs

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, nbits: int) -> "WahBitVector":
        """The all-zero compressed vector of ``nbits`` bits (one fill run)."""
        ngroups = _groups_for(nbits)
        return cls(_canonical(_ones_runs(0, ngroups), ngroups), nbits)

    @classmethod
    def ones(cls, nbits: int) -> "WahBitVector":
        """The all-one compressed vector of ``nbits`` bits (at most 3 runs)."""
        ngroups = _groups_for(nbits)
        return cls(_canonical(_ones_runs(nbits, ngroups), ngroups), nbits)

    @classmethod
    def from_bitvector(cls, vector: BitVector) -> "WahBitVector":
        """Compress an uncompressed vector."""
        return cls(_group_form(_groups_from_bytes(vector.to_bytes())), vector.nbits)

    @staticmethod
    def _layout(column: np.ndarray) -> np.ndarray:
        """A column of per-row values in this codec's word geometry: an
        ``(ngroups, 32)`` grid, one 31-bit group per row and a dead last
        column.  The dead column and the cells past the column's end are
        left as they are; :meth:`_pack` clears their bits."""
        nbits = len(column)
        grid = np.empty((_groups_for(nbits), _GROUP_BITS + 1), dtype=column.dtype)
        full, rest = divmod(nbits, _GROUP_BITS)
        grid[:full, :_GROUP_BITS] = column[: full * _GROUP_BITS].reshape(full, _GROUP_BITS)
        if rest:
            grid[full, :rest] = column[full * _GROUP_BITS :]
        return grid

    @staticmethod
    def _pack(members: np.ndarray, nbits: int) -> np.ndarray:
        """The payload of the bitmap whose rows are the true cells of
        ``members``, a comparison over a :meth:`_layout` of ``nbits`` rows,
        as ``uint8``: the packed grid is the ``uint32`` groups, bit 31 and
        the bits past ``nbits`` are masked off, and one scan of the groups
        emits the fill and literal words."""
        groups = _packed(members, 0).view("<u4")
        groups &= np.uint32(_LITERAL_MASK)
        full, rest = divmod(nbits, _GROUP_BITS)
        groups[full : full + 1] &= np.uint32((1 << rest) - 1)
        groups[full + 1 :] = 0
        values, lengths = _group_runs(groups)
        return _payload_words(values, lengths, (nbits + 7) // 8).view(np.uint8)

    def _octets(self) -> np.ndarray:
        """The bits as ``(nbits + 7) // 8`` little-endian bytes."""
        return _bytes_from_groups(_expand(self._runs))[: (self._nbits + 7) // 8]

    def to_bitvector(self) -> BitVector:
        """Materialize back to the uncompressed form."""
        return BitVector.from_bytes(self._octets(), self._nbits)

    def to_payload(self) -> bytes:
        """The stored form: the canonical WAH blob (length header + words)."""
        return _encode_runs(self._runs, (self._nbits + 7) // 8)

    @classmethod
    def from_payload(cls, buf, nbits: int) -> "WahBitVector":
        """Parse a :meth:`to_payload` blob (nothing of ``buf`` is kept).

        The whole payload is validated here, so corruption surfaces at
        the fetch and never mid-query: a length header that disagrees
        with ``nbits``, a body that is not word-aligned, run words that
        decode to too few or too many groups, or a set bit at or past
        ``nbits`` each raise :class:`~repro.errors.CorruptFileError`.
        """
        declared, runs = _parse_runs(buf)
        if declared != (nbits + 7) // 8:
            raise CorruptFileError(
                f"WAH payload declares {declared} bytes of bits; "
                f"{(nbits + 7) // 8} expected for {nbits} bits"
            )
        if _set_past(runs, nbits):
            raise CorruptFileError(f"WAH payload sets a bit at or past its {nbits} bits")
        return cls(runs, nbits)

    def copy(self) -> "WahBitVector":
        """An independent handle (the run arrays are never mutated)."""
        return WahBitVector(self._sealed(), self._nbits)

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

        A loose result seals first, so the size is constant once sealed,
        which a cached bitmap always is: byte-budget caches add it on
        ``put`` and subtract it on eviction.  4 bytes per group in the
        per-group form, 12 per run otherwise.
        """
        values, ends = self._sealed()
        return values.nbytes + (0 if ends is None else ends.nbytes)

    @property
    def num_words(self) -> int:
        """32-bit WAH words in the encoded payload (the run count bound)."""
        return (len(self.to_payload()) - _HEADER.size) // 4

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
        bits = np.unpackbits(self._octets(), count=self._nbits, bitorder="little")
        return bits.view(bool)

    def indices(self) -> np.ndarray:
        """Sorted array of set-bit positions (the RID list)."""
        return _bit_positions(self._octets(), _popcount(self._runs))

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
        return cls._result(_combine(operands, op, ngroups), vectors[0]._nbits)

    def __and__(self, other: "WahBitVector") -> "WahBitVector":
        return self._fold((self, other), np.bitwise_and)

    def __or__(self, other: "WahBitVector") -> "WahBitVector":
        return self._fold((self, other), np.bitwise_or)

    def __xor__(self, other: "WahBitVector") -> "WahBitVector":
        return self._fold((self, other), np.bitwise_xor)

    def __invert__(self) -> "WahBitVector":
        runs = _not(self._runs, self._nbits, _groups_for(self._nbits))
        return WahBitVector._result(runs, self._nbits)

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
        return cls._result(_threshold(operands, k, ngroups), nbits)

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
