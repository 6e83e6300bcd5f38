"""Byte-stream codecs for the Section 9 scheme files.

The paper's Section 9 compresses bitmap files with zlib's deflate.  The
storage schemes of :mod:`repro.experiments.schemes` treat compression as
a strategy object so experiments can swap codecs; four are provided:

- :class:`ZlibCodec` — the paper's choice (stdlib ``zlib``, deflate).
- :class:`WahCodec` — a from-scratch Word-Aligned Hybrid codec
  (:mod:`repro.bitmaps.wah`), the bitmap-specific alternative used as an
  ablation.
- :class:`RoaringCodec` — the adaptive array/bitmap/run container codec
  (:mod:`repro.bitmaps.roaring`), strongest on uniform-random data where
  run-length codecs degenerate.
- :class:`NullCodec` — identity, used for the uncompressed BS/CS/IS
  storage schemes.

Codecs are self-describing: ``decode(encode(data)) == data`` without any
out-of-band length bookkeeping.
"""

from __future__ import annotations

import zlib
from typing import Protocol

from repro.errors import CorruptFileError
from repro.bitmaps.wah import wah_decode, wah_encode
from repro.bitmaps.roaring import RoaringBitmap


class Codec(Protocol):
    """Protocol all bitmap codecs implement."""

    name: str

    def encode(self, data: bytes) -> bytes:
        """Compress ``data``."""
        ...

    def decode(self, blob: bytes) -> bytes:
        """Decompress ``blob``; must invert :meth:`encode`."""
        ...


class NullCodec:
    """Identity codec (uncompressed storage)."""

    name = "none"

    def encode(self, data: bytes) -> bytes:
        return data

    def decode(self, blob: bytes) -> bytes:
        return blob


class ZlibCodec:
    """Deflate codec, matching the paper's use of the zlib library.

    Parameters
    ----------
    level:
        zlib compression level 1–9 (default 6, the zlib default, which is
        what the paper's experiments used).
    """

    def __init__(self, level: int = 6):
        if not 1 <= level <= 9:
            raise ValueError(f"zlib level must be in 1..9, got {level}")
        self.level = level
        self.name = "zlib" if level == 6 else f"zlib{level}"

    def encode(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decode(self, blob: bytes) -> bytes:
        try:
            return zlib.decompress(blob)
        except zlib.error as exc:
            raise CorruptFileError(f"zlib payload corrupt: {exc}") from exc


class WahCodec:
    """Word-Aligned Hybrid run-length codec (see :mod:`repro.bitmaps.wah`)."""

    name = "wah"

    def encode(self, data: bytes) -> bytes:
        return wah_encode(data)

    def decode(self, blob: bytes) -> bytes:
        return wah_decode(blob)


class RoaringCodec:
    """Roaring container codec (see :mod:`repro.bitmaps.roaring`).

    The byte payload is interpreted as a packed bitmap (bit ``i`` of the
    input is row ``i``), partitioned into 2^16-row chunks and stored in
    adaptive array/bitmap/run containers.
    """

    name = "roaring"

    def encode(self, data: bytes) -> bytes:
        from repro.bitmaps.bitvector import BitVector

        vector = BitVector.from_bytes(data, nbits=len(data) * 8)
        return RoaringBitmap.from_bitvector(vector).serialize()

    def decode(self, blob: bytes) -> bytes:
        return RoaringBitmap.deserialize(blob).to_bitvector().to_bytes()


_REGISTRY: dict[str, Codec] = {
    "none": NullCodec(),
    "zlib": ZlibCodec(),
    "wah": WahCodec(),
    "roaring": RoaringCodec(),
}


def get_codec(name: str | Codec | None) -> Codec:
    """Resolve a codec by name.

    Accepts an existing codec instance (returned unchanged), a known
    name, or ``None`` (the identity codec).
    """
    if name is None:
        return _REGISTRY["none"]
    if not isinstance(name, str):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown codec {name!r}; known codecs: {known}") from None
