"""Bitmap substrate: one ``Bitmap`` protocol, three representations.

The paper's evaluation algorithms need only AND/OR/XOR/NOT and a fetch;
everything above this package is written against the :class:`Bitmap`
protocol and looks a representation up by name in the one registry,
:data:`BITMAP_CLASSES` (via :func:`bitmap_class`): ``"dense"``
(:class:`~repro.bitmaps.bitvector.BitVector`, packed 64-bit words),
``"wah"`` (:class:`~repro.bitmaps.compressed.WahBitVector`, run-length
words) and ``"roaring"`` (:class:`~repro.bitmaps.roaring.RoaringBitmap`,
adaptive containers per 2^16-row chunk).

Besides the shared algebra every class answers the same six names:
``codec`` (its registry key), ``from_bitvector`` / ``to_bitvector``
(through the dense form; the identity on ``BitVector``), ``to_payload``
/ ``from_payload(buf, nbits)`` (the stored bytes of ``.rbix`` files,
shared-memory shard segments and Section 9 scheme files, and the only
writer and reader of a class's bytes; a payload whose own length field
disagrees with ``nbits``, or that sets a bit at or past ``nbits``, is
rejected) and ``payload_version`` (the revision of that format, which
``.rbix`` files record per attribute when it is past 1).  Two private names
serve the index store's writer, which builds no bitmap at all:
``_layout(column)`` lays a column of per-row values out in the class's
word geometry, and ``_pack(members, nbits)`` packs a comparison over that
layout straight into the class's words and payload.

The Section 9 *byte-stream* codecs that compress whole scheme files
(zlib among them) are a different decision and live with that experiment,
in :mod:`repro.experiments.compression`; its ``wah`` and ``roaring``
entries are these classes' ``to_payload`` / ``from_payload``.
"""

from typing import ClassVar, Protocol, runtime_checkable

import numpy as np

from repro.bitmaps.bitvector import BitVector
from repro.bitmaps.compressed import WahBitVector
from repro.bitmaps.roaring import RoaringBitmap
from repro.errors import EngineConfigError


@runtime_checkable
class Bitmap(Protocol):
    """What every bitmap representation provides.

    A structural protocol, not a base class: each class defines its own
    kernels, and operands of one operation are always of one class.
    ``or_many`` is every class's k-way OR; ``and_many`` exists on the
    compressed classes only.
    """

    codec: ClassVar[str]
    payload_version: ClassVar[int]

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
    def or_many(cls, vectors) -> "Bitmap": ...
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
]
