"""Byte-stream codecs for the Section 9 scheme files.

The paper's Section 9 compresses bitmap files with zlib's deflate.  The
storage schemes of :mod:`repro.experiments.schemes` treat compression as
a strategy object so experiments can swap codecs; four are registered:

- ``zlib`` (:class:`ZlibCodec`) — the paper's choice (stdlib ``zlib``,
  deflate).
- ``wah`` and ``roaring`` (a :class:`BitmapCodec` each) — the stored form
  of that bitmap class of :mod:`repro.bitmaps`: WAH run-length words, the
  bitmap-specific alternative used as an ablation, and Roaring's adaptive
  array/bitmap/run containers, strongest on uniform-random data where
  run-length codecs degenerate.  The class's ``to_payload`` and
  ``from_payload`` are the only writer and reader of those bytes, here as
  everywhere else.
- ``none`` (:class:`NullCodec`) — identity, used for the uncompressed
  BS/CS/IS storage schemes.

``decode(encode(data), 8 * len(data)) == data``: ``decode`` is given the
bit length the payload holds, which a scheme reads from its file frame.
The byte-stream codecs describe their own length and ignore it; a bitmap
payload must declare exactly that length.
"""

from __future__ import annotations

import zlib
from typing import Protocol

from repro.bitmaps import BitVector, bitmap_class
from repro.errors import CorruptFileError


class Codec(Protocol):
    """Protocol all bitmap codecs implement."""

    name: str

    def encode(self, data: bytes) -> bytes:
        """Compress ``data``."""
        ...

    def decode(self, blob: bytes, nbits: int) -> bytes:
        """Decompress ``blob``, the encoding of ``nbits`` bits; must invert
        :meth:`encode`."""
        ...


class NullCodec:
    """Identity codec (uncompressed storage)."""

    name = "none"

    def encode(self, data: bytes) -> bytes:
        return data

    def decode(self, blob: bytes, nbits: int) -> bytes:
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

    def decode(self, blob: bytes, nbits: int) -> bytes:
        try:
            return zlib.decompress(blob)
        except zlib.error as exc:
            raise CorruptFileError(f"zlib payload corrupt: {exc}") from exc


class BitmapCodec:
    """The stored form of the bitmap class registered as ``name``.

    ``encode`` stores ``data`` as a bitmap of ``8 * len(data)`` bits;
    ``decode`` reads the payload with ``from_payload`` at the given bit
    length, so corruption raises :class:`CorruptFileError` as it does on
    every other read of that class's bytes.
    """

    def __init__(self, name: str):
        self.name = name
        self._cls = bitmap_class(name)

    def encode(self, data: bytes) -> bytes:
        vector = BitVector.from_bytes(data, nbits=len(data) * 8)
        return self._cls.from_bitvector(vector).to_payload()

    def decode(self, blob: bytes, nbits: int) -> bytes:
        return self._cls.from_payload(blob, nbits).to_bitvector().to_bytes()


_REGISTRY: dict[str, Codec] = {
    "none": NullCodec(),
    "zlib": ZlibCodec(),
    "wah": BitmapCodec("wah"),
    "roaring": BitmapCodec("roaring"),
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
