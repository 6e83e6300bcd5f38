"""Bitmap substrate: one ``Bitmap`` protocol, three representations.

The paper's evaluation algorithms need only AND/OR/XOR/NOT and a fetch;
everything above this package is written against the :class:`Bitmap`
protocol and looks a representation up by name in the one registry,
:data:`BITMAP_CLASSES` (via :func:`bitmap_class`): ``"dense"``
(:class:`~repro.bitmaps.bitvector.BitVector`, packed 64-bit words),
``"wah"`` (:class:`~repro.bitmaps.compressed.WahBitVector`, run-length
words) and ``"roaring"`` (:class:`~repro.bitmaps.roaring.RoaringBitmap`,
adaptive containers per 2^16-row chunk).

Besides the shared algebra every class answers the same five names:
``codec`` (its registry key), ``from_bitvector`` / ``to_bitvector``
(through the dense form; the identity on ``BitVector``) and ``to_payload``
/ ``from_payload(buf, nbits)`` (the stored bytes of ``.rbix`` files,
shared-memory shard segments and BS scheme files; a payload whose own
length field disagrees with ``nbits`` is rejected).

The Section 9 *byte-stream* codecs that compress whole scheme files
(zlib among them) are a different decision and live with that experiment,
in :mod:`repro.experiments.compression`.
"""

from typing import ClassVar, Protocol, runtime_checkable

import numpy as np

from repro.bitmaps.bitvector import BitVector
from repro.bitmaps.compressed import WahBitVector
from repro.bitmaps.roaring import RoaringBitmap, roaring_and_many, roaring_or_many
from repro.errors import EngineConfigError


@runtime_checkable
class Bitmap(Protocol):
    """What every bitmap representation provides.

    A structural protocol, not a base class: each class defines its own
    kernels, and operands of one operation are always of one class.
    ``and_many`` / ``or_many`` exist on the compressed classes only;
    dense operands fold pairwise.
    """

    codec: ClassVar[str]

    @property
    def nbits(self) -> int: ...
    @property
    def nbytes(self) -> int: ...

    @classmethod
    def zeros(cls, nbits: int) -> "Bitmap": ...
    @classmethod
    def ones(cls, nbits: int) -> "Bitmap": ...
    @classmethod
    def from_bitvector(cls, vector: BitVector) -> "Bitmap": ...
    @classmethod
    def from_payload(cls, buf, nbits: int) -> "Bitmap": ...
    @classmethod
    def threshold_many(cls, vectors, k: int) -> "Bitmap": ...

    def to_bitvector(self) -> BitVector: ...
    def to_payload(self) -> bytes: ...
    def to_bools(self) -> np.ndarray: ...
    def indices(self) -> np.ndarray: ...
    def copy(self) -> "Bitmap": ...
    def count(self) -> int: ...
    def and_count(self, other) -> int: ...
    def __and__(self, other): ...
    def __or__(self, other): ...
    def __xor__(self, other): ...
    def __invert__(self): ...


#: Codec name -> bitmap class: the one table of representations.
BITMAP_CLASSES: dict[str, type[Bitmap]] = {
    "dense": BitVector,
    "wah": WahBitVector,
    "roaring": RoaringBitmap,
}


def bitmap_class(name: str) -> type[Bitmap]:
    """The bitmap class registered under codec ``name``; an unknown name
    raises :class:`~repro.errors.EngineConfigError` (a ``ValueError``),
    whichever door the caller's codec name came in through."""
    try:
        return BITMAP_CLASSES[name]
    except (KeyError, TypeError):
        known = ", ".join(BITMAP_CLASSES)
        raise EngineConfigError(
            f"unknown bitmap codec {name!r}; expected one of: {known}"
        ) from None


__all__ = [
    "BITMAP_CLASSES",
    "Bitmap",
    "BitVector",
    "RoaringBitmap",
    "WahBitVector",
    "bitmap_class",
    "roaring_and_many",
    "roaring_or_many",
]
