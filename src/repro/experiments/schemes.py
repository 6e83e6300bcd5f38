"""The paper's three physical bitmap-index organizations (Section 9.1).

A ``k``-component index over an ``N``-record relation is an
``N x n`` bit-matrix (``n`` = total stored bitmaps).  The three schemes
serialize it differently:

- :class:`BitmapLevelStorage` (**BS**) — each bitmap (column) in its own
  ``N``-bit file; a query reads only the bitmaps it needs.
- :class:`ComponentLevelStorage` (**CS**) — each component's
  ``N x n_i`` sub-matrix in one row-major file; any query touching a
  component scans that whole file and extracts the needed columns.
- :class:`IndexLevelStorage` (**IS**) — the whole matrix in one row-major
  file.  With all base numbers equal to 2 this is exactly the projection
  index.

Every scheme accepts a codec; the compressed variants are the paper's
cBS/cCS/cIS.  Each scheme implements the bitmap-source protocol of
:mod:`repro.core.index`, so the Section 3 evaluation algorithms run
directly against physical storage.  Row-major schemes keep a per-query
decode cache — call :meth:`StorageScheme.reset_cache` between queries so a
file is charged exactly one physical scan per query, as the paper assumes.

On-disk format: every bitmap file carries a 32-byte header (magic,
version, row/width geometry, codec name, payload length) that is verified
on read; corrupt or truncated files raise
:class:`~repro.errors.CorruptFileError`.
"""

from __future__ import annotations

import abc
import json
import struct

import numpy as np

from repro.bitmaps import BITMAP_CLASSES, Bitmap, BitVector, bitmap_class
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme, stored_bitmap_count
from repro.core.index import BitmapIndex
from repro.errors import CorruptFileError, StorageError
from repro.experiments.compression import Codec, get_codec
from repro.experiments.disk import SimulatedDisk
from repro.stats import ExecutionStats

_MAGIC = b"RBF1"
# magic(4) version(B) reserved(B) nbits(Q) width(I) payload_len(Q) codec(10s)
_HEADER = struct.Struct("<4sBBQIQ10s")
_VERSION = 1

#: Size in bytes of the verified per-file header.
HEADER_SIZE = _HEADER.size


def _pack_matrix(matrix: np.ndarray) -> bytes:
    """Serialize a boolean ``N x w`` matrix row-major, bits little-endian."""
    return np.packbits(matrix.reshape(-1), bitorder="little").tobytes()


def _unpack_matrix(raw: bytes, nbits: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_matrix`."""
    expected = (nbits * width + 7) // 8
    if len(raw) != expected:
        raise CorruptFileError(
            f"bit-matrix payload is {len(raw)} bytes; expected {expected}"
        )
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[: nbits * width].reshape(nbits, width).astype(bool)


def _frame(data: bytes, nbits: int, width: int, codec: Codec) -> bytes:
    """Wrap an encoded payload in the verified file header."""
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        0,
        nbits,
        width,
        len(data),
        codec.name.encode("ascii")[:10].ljust(10, b"\0"),
    )
    return header + data


def _unframe(blob: bytes, path: str) -> tuple[bytes, int, int, str]:
    """Verify a file header; return (payload, nbits, width, codec_name)."""
    if len(blob) < _HEADER.size:
        raise CorruptFileError(f"{path}: shorter than its header")
    magic, version, _, nbits, width, payload_len, codec_raw = _HEADER.unpack_from(
        blob
    )
    if magic != _MAGIC:
        raise CorruptFileError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise CorruptFileError(f"{path}: unsupported version {version}")
    payload = blob[_HEADER.size :]
    if len(payload) != payload_len:
        raise CorruptFileError(
            f"{path}: payload is {len(payload)} bytes, header says {payload_len}"
        )
    return payload, nbits, width, codec_raw.rstrip(b"\0").decode("ascii")


class StorageScheme(abc.ABC):
    """Common machinery of the three physical organizations.

    With ``compressed="wah"`` or ``"roaring"`` (a serving-codec name;
    ``"dense"``, the default, serves uncompressed bitmaps)
    the scheme serves compressed bitmaps — the compressed execution modes
    of :mod:`repro.core.evaluation`.  When the file codec matches the
    serving codec, :class:`BitmapLevelStorage` hands the stored payload
    out *without decoding* — the whole read path stays in the compressed
    domain; other codecs and the row-major schemes decode and re-encode,
    which still lets downstream operations run compressed.
    """

    kind: str

    def __init__(
        self,
        disk: SimulatedDisk,
        name: str,
        base: Base,
        encoding: EncodingScheme,
        nbits: int,
        cardinality: int,
        codec: Codec,
        nonnull: BitVector | None = None,
        compressed: str = "dense",
    ):
        self.disk = disk
        self.name = name
        self.base = base
        self.encoding = encoding
        self.nbits = nbits
        self.cardinality = cardinality
        self.codec = codec
        self.bitmap_codec = bitmap_class(compressed).codec
        #: The existence bitmap, in the representation the scheme serves.
        self.nonnull = self._serve(nonnull) if nonnull is not None else None
        self._cache: dict[str, np.ndarray] = {}

    def _serve(self, bitmap: BitVector) -> Bitmap:
        """Convert a decoded bitmap to the representation being served."""
        return bitmap_class(self.bitmap_codec).from_bitvector(bitmap)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    @classmethod
    def write(
        cls,
        disk: SimulatedDisk,
        name: str,
        index: BitmapIndex,
        codec: str | Codec | None = None,
    ) -> "StorageScheme":
        """Serialize ``index`` under path prefix ``name`` and return a reader."""
        codec_obj = get_codec(codec)
        scheme = cls(
            disk,
            name,
            index.base,
            index.encoding,
            index.nbits,
            index.cardinality,
            codec_obj,
            nonnull=index.nonnull,
        )
        scheme._write_payload(index)
        if index.nonnull is not None:
            disk.write(
                f"{name}/nn",
                _frame(index.nonnull.to_bytes(), index.nbits, 1, get_codec(None)),
            )
        disk.write(f"{name}/manifest", scheme._manifest_bytes())
        return scheme

    def _manifest_bytes(self) -> bytes:
        manifest = {
            "kind": self.kind,
            "codec": self.codec.name,
            "nbits": self.nbits,
            "cardinality": self.cardinality,
            "base": list(self.base.bases),
            "encoding": self.encoding.value,
            "has_nulls": self.nonnull is not None,
        }
        return json.dumps(manifest, sort_keys=True).encode("ascii")

    @abc.abstractmethod
    def _write_payload(self, index: BitmapIndex) -> None:
        """Write the bitmap files of the concrete scheme."""

    # ------------------------------------------------------------------
    # Reading (bitmap-source protocol)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def fetch(
        self, component: int, slot: int, stats: ExecutionStats
    ) -> Bitmap:
        """Read stored bitmap ``slot`` of ``component`` from disk."""

    def reset_cache(self) -> None:
        """Drop per-query decoded file caches (call between queries)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def data_files(self) -> list[str]:
        """Bitmap data files of this scheme (manifest and nn excluded)."""
        skip = {f"{self.name}/manifest", f"{self.name}/nn"}
        return [p for p in self.disk.list_files(self.name + "/") if p not in skip]

    @property
    def stored_bytes(self) -> int:
        """Total on-disk bytes of the bitmap data files."""
        return sum(self.disk.size_of(p) for p in self.data_files())

    @property
    def file_count(self) -> int:
        return len(self.data_files())

    def _slot_layout(self, component: int) -> tuple[int, ...]:
        """Stored slots of a component, in file column order."""
        b = self.base.component(component)
        if self.encoding is EncodingScheme.EQUALITY and b == 2:
            return (1,)
        return tuple(range(stored_bitmap_count(b, self.encoding)))

    def _decode(self, codec_name: str, payload: bytes, stats: ExecutionStats) -> bytes:
        """Inflate a file payload, charging ``decompressed_bytes``."""
        with stats.span(
            "decode", kind="decode", codec=codec_name, encoded=len(payload)
        ) as span:
            raw = get_codec(codec_name).decode(payload)
            if span is not None:
                span.attrs["decoded"] = len(raw)
        stats.decompressed_bytes += len(raw)
        return raw

    def _read_matrix(
        self, path: str, width: int, stats: ExecutionStats
    ) -> np.ndarray:
        """Read + decode a row-major file, caching the result per query."""
        cached = self._cache.get(path)
        if cached is not None:
            return cached
        trace = stats.trace
        blob = self.disk.read(path)
        stats.files_opened += 1
        stats.bytes_read += len(blob)
        if trace is not None:
            trace.event(
                "storage.read",
                kind="fetch",
                file=path,
                scheme=self.kind,
                nbytes=len(blob),
            )
        payload, nbits, file_width, codec_name = _unframe(blob, path)
        if nbits != self.nbits or file_width != width:
            raise CorruptFileError(
                f"{path}: geometry {nbits}x{file_width} does not match the "
                f"manifest ({self.nbits}x{width})"
            )
        raw = self._decode(codec_name, payload, stats)
        matrix = _unpack_matrix(raw, nbits, width)
        self._cache[path] = matrix
        return matrix


class BitmapLevelStorage(StorageScheme):
    """BS: one file per bitmap — reads exactly the bitmaps a query needs."""

    kind = "BS"

    def _bitmap_path(self, component: int, slot: int) -> str:
        return f"{self.name}/c{component}_s{slot}"

    def _write_payload(self, index: BitmapIndex) -> None:
        # A file codec that is also a bitmap representation writes that
        # class's payload, at the exact bit length (the byte-stream codec
        # API would round nbits up to a whole byte), so the
        # compressed-serving read path can hand the payload out as-is.
        cls = BITMAP_CLASSES.get(self.codec.name)
        for i in range(1, self.base.n + 1):
            comp = index.components[i - 1]
            for slot in comp.stored_slots():
                bitmap = comp.bitmap(slot)
                if cls is not None:
                    data = cls.from_bitvector(bitmap).to_payload()
                else:
                    data = self.codec.encode(bitmap.to_bytes())
                self.disk.write(
                    self._bitmap_path(i, slot),
                    _frame(data, self.nbits, 1, self.codec),
                )

    def fetch(
        self, component: int, slot: int, stats: ExecutionStats
    ) -> Bitmap:
        path = self._bitmap_path(component, slot)
        trace = stats.trace
        blob = self.disk.read(path)
        stats.record_scan(nbytes=len(blob))
        stats.files_opened += 1
        if trace is not None:
            trace.event(
                "storage.read",
                kind="fetch",
                file=path,
                scheme=self.kind,
                component=component,
                slot=slot,
                nbytes=len(blob),
                codec=self.codec.name,
            )
        payload, nbits, width, codec_name = _unframe(blob, path)
        if nbits != self.nbits or width != 1:
            raise CorruptFileError(f"{path}: unexpected geometry")
        if codec_name == self.bitmap_codec:
            # The stored payload already *is* the serving representation's
            # wire format: serve it as-is.  No decode, so nothing is
            # charged to ``decompressed_bytes`` — the defining economy of
            # compressed execution over codec-matched storage.
            try:
                return bitmap_class(codec_name).from_payload(payload, self.nbits)
            except CorruptFileError as exc:
                raise CorruptFileError(f"{path}: {exc}") from exc
        raw = self._decode(codec_name, payload, stats)
        if len(raw) != (self.nbits + 7) // 8:
            raise CorruptFileError(f"{path}: bitmap payload length mismatch")
        return self._serve(BitVector.from_bytes(raw, self.nbits))


class ComponentLevelStorage(StorageScheme):
    """CS: one row-major bit-matrix file per component."""

    kind = "CS"

    def _component_path(self, component: int) -> str:
        return f"{self.name}/c{component}"

    def _write_payload(self, index: BitmapIndex) -> None:
        for i in range(1, self.base.n + 1):
            comp = index.components[i - 1]
            slots = self._slot_layout(i)
            matrix = np.column_stack(
                [comp.bitmap(slot).to_bools() for slot in slots]
            )
            data = self.codec.encode(_pack_matrix(matrix))
            self.disk.write(
                self._component_path(i),
                _frame(data, self.nbits, len(slots), self.codec),
            )

    def fetch(
        self, component: int, slot: int, stats: ExecutionStats
    ) -> Bitmap:
        slots = self._slot_layout(component)
        try:
            column = slots.index(slot)
        except ValueError:
            raise StorageError(
                f"slot {slot} is not stored for component {component}"
            ) from None
        matrix = self._read_matrix(
            self._component_path(component), len(slots), stats
        )
        stats.scans += 1
        if stats.trace is not None:
            stats.trace.event(
                "scheme.extract",
                kind="fetch",
                scheme=self.kind,
                component=component,
                slot=slot,
            )
        return self._serve(BitVector.from_bools(matrix[:, column]))


class IndexLevelStorage(StorageScheme):
    """IS: the whole index in one row-major bit-matrix file."""

    kind = "IS"

    def _index_path(self) -> str:
        return f"{self.name}/index"

    def _total_width(self) -> int:
        return sum(len(self._slot_layout(i)) for i in range(1, self.base.n + 1))

    def _column_of(self, component: int, slot: int) -> int:
        offset = 0
        for i in range(1, component):
            offset += len(self._slot_layout(i))
        slots = self._slot_layout(component)
        try:
            return offset + slots.index(slot)
        except ValueError:
            raise StorageError(
                f"slot {slot} is not stored for component {component}"
            ) from None

    def _write_payload(self, index: BitmapIndex) -> None:
        matrix = index.bit_matrix()
        data = self.codec.encode(_pack_matrix(matrix))
        self.disk.write(
            self._index_path(),
            _frame(data, self.nbits, matrix.shape[1], self.codec),
        )

    def fetch(
        self, component: int, slot: int, stats: ExecutionStats
    ) -> Bitmap:
        column = self._column_of(component, slot)
        matrix = self._read_matrix(self._index_path(), self._total_width(), stats)
        stats.scans += 1
        if stats.trace is not None:
            stats.trace.event(
                "scheme.extract",
                kind="fetch",
                scheme=self.kind,
                component=component,
                slot=slot,
            )
        return self._serve(BitVector.from_bools(matrix[:, column]))


_SCHEMES: dict[str, type[StorageScheme]] = {
    "BS": BitmapLevelStorage,
    "CS": ComponentLevelStorage,
    "IS": IndexLevelStorage,
}


def write_index(
    disk: SimulatedDisk,
    name: str,
    index: BitmapIndex,
    scheme: str = "BS",
    codec: str | Codec | None = None,
) -> StorageScheme:
    """Serialize ``index`` to ``disk`` under the named scheme.

    ``scheme`` is ``'BS'``, ``'CS'``, or ``'IS'`` (case-insensitive; a
    leading ``c`` selects zlib compression, matching the paper's
    cBS/cCS/cIS shorthand unless an explicit codec is given).
    """
    label = scheme
    if scheme and scheme[0] == "c":
        if codec is None:
            codec = "zlib"
        label = scheme[1:]
    label = label.upper()
    try:
        cls = _SCHEMES[label]
    except KeyError:
        known = ", ".join(sorted(_SCHEMES))
        raise StorageError(
            f"unknown storage scheme {scheme!r}; expected one of {known} "
            f"(optionally c-prefixed)"
        ) from None
    return cls.write(disk, name, index, codec)


def open_scheme(
    disk: SimulatedDisk, name: str, compressed: str = "dense"
) -> StorageScheme:
    """Re-open a previously written index from its manifest.

    ``compressed="wah"`` or ``"roaring"`` opens the
    scheme in compressed-serving mode: every fetched bitmap is a
    :class:`~repro.bitmaps.compressed.WahBitVector` or
    :class:`~repro.bitmaps.roaring.RoaringBitmap` (for a BS index whose
    file codec matches, served without decoding).
    """
    try:
        manifest = json.loads(disk.read(f"{name}/manifest"))
    except ValueError as exc:
        raise CorruptFileError(f"{name}/manifest is not valid JSON") from exc
    try:
        cls = _SCHEMES[manifest["kind"]]
        base = Base(tuple(manifest["base"]))
        encoding = EncodingScheme(manifest["encoding"])
        codec = get_codec(manifest["codec"])
        nbits = int(manifest["nbits"])
        cardinality = int(manifest["cardinality"])
        has_nulls = bool(manifest["has_nulls"])
    except (KeyError, TypeError) as exc:
        raise CorruptFileError(f"{name}/manifest is missing fields: {exc}") from exc
    nonnull = None
    if has_nulls:
        blob = disk.read(f"{name}/nn")
        payload, file_nbits, _, _ = _unframe(blob, f"{name}/nn")
        nonnull = BitVector.from_bytes(payload, file_nbits)
    return cls(
        disk, name, base, encoding, nbits, cardinality, codec, nonnull,
        compressed=compressed,
    )
