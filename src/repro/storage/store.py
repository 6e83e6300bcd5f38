"""Persistent on-disk index store with mmap lazy loading (RBIX format).

One file per relation (``<relation>.rbix``) holds every bitmap index of
that relation.  The layout is dictionary-up-front so a cold open parses
only the metadata; individual bitmap payloads are materialized lazily
from an ``mmap`` view the first time a query touches them:

.. code-block:: text

    offset 0   +----------------------------------------------+
               | header (32 bytes, fixed)                     |
               |   magic "RBIX" | version | flags             |
               |   dict_offset | dict_length | dict_crc       |
               |   header_crc (CRC-32 of the preceding bytes) |
    dict_off   +----------------------------------------------+
               | dictionary (JSON, CRC-framed by the header,  |
               |   space-padded to a multiple of 8 bytes)     |
               |   first row, row count, payload length, and  |
               |   per attribute: cardinality, base, encoding,|
               |   codec, value dictionary, and per-slot      |
               |   [offset, length, crc] payload entries      |
    payload    +----------------------------------------------+
               | bitmap payloads, one per stored slot         |
               |   dense -> padded 64-bit words (zero-copy)   |
               |   wah   -> WAH blob    roaring -> ROAR blob  |
               +----------------------------------------------+

The payload region starts on an 8-byte boundary of the image, so a dense
payload in a dense image is an aligned ``uint64`` view.  Payload offsets
in the dictionary are relative to the payload region and validated
against the recorded payload length, and that against the buffer, at
open — an entry extending past EOF is reported as
:class:`~repro.errors.CorruptFileError` before anything slices (or
page-faults) past the end of the map.  Every region is independently
checksummed: the header over itself, the dictionary by the header, and
each payload by its dictionary entry (verified on first materialization).

The layout does not depend on what holds the bytes: the process backend
publishes each shard — a row range of the source the engine serves — as
the same image from the same writer
(:class:`~repro.engine.sharding.ShardExport`) and serves it with the same
reader.

Incremental appends go to the *delta sidecar* (``<relation>.rbix.delta``):
each :meth:`IndexStore.append` adds one image of its rows, from the same
writer and 8-byte aligned, that records the global row it starts at.
Reads serve each bitmap as the base's followed by every delta image's,
and :meth:`IndexStore.compact` folds the delta into a rewritten base
file.  All writes are crash-atomic (temp file + fsync + ``os.replace`` +
directory fsync, through :func:`~repro.storage.fsdisk.atomic_write`).  A
delta whose first image does not start where the base file ends was
orphaned by a crash *between* compaction's rename and its delta unlink,
and is ignored instead of applied twice.  A rebuild can keep the row
count, so :meth:`IndexStore.build` unlinks the sidecar *before* its
rename instead.

Writers serialize per relation on an exclusive ``flock`` of
``<relation>.lock``, a file nothing is written to: ``build``, ``append``,
``compact`` and ``quarantine`` hold it from re-reading what is on disk to
their last rename or unlink, so two stores — in one process or in two —
never both extend the sidecar they read, and the loser of the race does
not lose its rows.  The lock dies with its descriptor (a killed writer
frees it); a writer that waits past :data:`_LOCK_WAIT_SECONDS` raises
:class:`~repro.errors.StoreBusyError` before writing anything.  Readers
take no lock: ``os.replace`` already hands them whole files.

A :class:`~repro.engine.QueryEngine` is served from an
:class:`IndexStore`: ``bitmap_source`` hands out lazy per-attribute
:class:`StoreBitmapSource` views, and ``io_snapshot`` exposes the real
counters (dictionary bytes parsed, payload bytes read, bitmaps
materialized, a page-touch proxy for mmap faults) that EXPLAIN reports
alongside the cost model's predictions.
"""

from __future__ import annotations

import fcntl
import json
import logging
import mmap
import os
import struct
import time
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from repro.bitmaps import BITMAP_CLASSES, Bitmap, BitVector, bitmap_class
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme, _component_class
from repro.core.index import BitmapIndex, CodecView, _checked_base, _checked_ranks
from repro.errors import (
    CorruptFileError,
    EngineConfigError,
    FileMissingError,
    StorageError,
    StoreBusyError,
    ValueOutOfRangeError,
)
from repro.faults import FaultPlan, read_fault
from repro.relation.column import Column
from repro.relation.relation import Relation
from repro.stats import ExecutionStats
from repro.storage.fsdisk import _fsync_dir, atomic_write, to_quarantine

log = logging.getLogger("repro.storage.store")

_MAGIC = b"RBIX"
_VERSION = 2
#: magic, version, flags, dict_offset, dict_length, dict_crc, header_crc.
_HEADER = struct.Struct("<4sHHQQII")
_SUFFIX = ".rbix"
_DELTA_SUFFIX = ".rbix.delta"
_LOCK_SUFFIX = ".lock"
#: How long a writer waits for another writer's lock on a relation before
#: it raises :class:`~repro.errors.StoreBusyError`.
_LOCK_WAIT_SECONDS = 30.0
#: Page granularity of the ``pages_touched`` counter.
_PAGE_SIZE = 4096


def _payload_start(buf) -> int:
    """Where the payload region of the image at the start of ``buf`` starts."""
    _, _, _, dict_off, dict_len, _, _ = _HEADER.unpack_from(buf)
    return dict_off + dict_len


def _pages(nbytes: int) -> int:
    """Pages spanned by ``nbytes`` (the mmap-fault proxy counter)."""
    return (nbytes + _PAGE_SIZE - 1) // _PAGE_SIZE if nbytes else 0


def _dictionary_to_json(arr: np.ndarray | None) -> dict | None:
    if arr is None:
        return None
    kind = arr.dtype.kind
    if kind in "iu":
        values = [int(x) for x in arr]
    elif kind == "f":
        values = [float(x) for x in arr]
    elif kind == "b":
        values = [bool(x) for x in arr]
    else:
        # Strings, datetimes, and anything else orderable round-trip
        # through their string form and the recorded dtype.
        values = [str(x) for x in arr]
    return {"dtype": str(arr.dtype), "values": values}


def _dictionary_from_json(obj: dict | None, path: str) -> np.ndarray | None:
    if obj is None:
        return None
    try:
        return np.array(obj["values"], dtype=np.dtype(obj["dtype"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFileError(
            f"{path}: malformed value dictionary: {exc}"
        ) from exc


@dataclass
class StoreStats:
    """Cumulative real-I/O counters of one :class:`IndexStore`.

    ``pages_touched`` is a proxy for mmap page faults: the 4 KiB pages
    spanned by every region actually read (dictionary at open, payloads
    at materialization).  The OS may fault fewer pages on a warm cache,
    but the proxy is deterministic and byte-accurate, which is what the
    lazy-loading tests and EXPLAIN need.
    """

    opens: int = 0
    dict_bytes: int = 0
    payload_bytes_read: int = 0
    bitmaps_materialized: int = 0
    pages_touched: int = 0
    appends: int = 0
    compactions: int = 0
    bytes_written: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _AttrMeta:
    """Parsed dictionary entry for one indexed attribute."""

    name: str
    cardinality: int
    base: Base
    encoding: EncodingScheme
    codec: str
    value_size_bytes: int
    dictionary: np.ndarray | None
    #: (component, slot) -> (relative offset, length, crc32).
    slots: dict[tuple[int, int], tuple[int, int, int]]
    nonnull: tuple[int, int, int] | None


class _RelationImage:
    """One ``.rbix`` image served from a buffer: parsed dictionary, lazy
    CRC-checked payloads.

    The buffer is the mmap of a store file (:class:`_RelationFile`) or
    the part of a shared-memory segment a shard was published into
    (:mod:`repro.engine.sharding`); every check of the format lives here
    and so covers both.  The image owns ``buf`` and releases it in
    :meth:`close`; ``path`` names it in errors.
    """

    #: What only a store file has, and :class:`_RelationFile` sets: the
    #: delta sidecar's images and rows, a store generation, the store's
    #: fault plan.
    deltas: "tuple[_RelationImage, ...]" = ()
    delta_rows = 0
    generation = 0
    fault_plan: FaultPlan | None = None

    def __init__(
        self, buf: memoryview, relation: str, path: str, stats: StoreStats | None = None
    ):
        self._buf = buf
        self.size = len(buf)
        self.relation = relation
        self.path = path
        self.stats = stats if stats is not None else StoreStats()
        self._verified: set[tuple[int, int]] = set()
        try:
            self._parse_header_and_dictionary()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------

    def _parse_header_and_dictionary(self) -> None:
        if self.size < _HEADER.size:
            raise CorruptFileError(
                f"{self.path}: {self.size} bytes is too small to hold "
                f"an index header"
            )
        head = bytes(self._buf[: _HEADER.size])
        magic, version, _flags, dict_off, dict_len, dict_crc, header_crc = (
            _HEADER.unpack(head)
        )
        if magic != _MAGIC:
            raise CorruptFileError(
                f"{self.path}: bad magic {magic!r}; not an index store file"
            )
        if zlib.crc32(head[: _HEADER.size - 4]) != header_crc:
            raise CorruptFileError(f"{self.path}: header checksum mismatch")
        if version != _VERSION:
            raise CorruptFileError(
                f"{self.path}: unsupported format version {version}"
            )
        if dict_off + dict_len > self.size:
            raise CorruptFileError(
                f"{self.path}: dictionary region [{dict_off}, "
                f"{dict_off + dict_len}) extends past EOF at {self.size}"
            )
        dict_bytes = bytes(self._buf[dict_off : dict_off + dict_len])
        if zlib.crc32(dict_bytes) != dict_crc:
            raise CorruptFileError(
                f"{self.path}: dictionary checksum mismatch"
            )
        try:
            meta = json.loads(dict_bytes)
        except ValueError as exc:
            raise CorruptFileError(
                f"{self.path}: dictionary is not valid JSON: {exc}"
            ) from exc
        self.payload_start = dict_off + dict_len
        try:
            self.start = int(meta["start"])
            self.nbits = int(meta["nbits"])
            payload_room = int(meta["payload_length"])
            stored_name = meta["relation"]
            attr_metas = meta["attributes"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFileError(
                f"{self.path}: malformed dictionary: {exc}"
            ) from exc
        #: Where the image ends in its buffer (a delta's next image follows).
        self.end = self.payload_start + payload_room
        if payload_room < 0 or self.end > self.size:
            raise CorruptFileError(
                f"{self.path}: payload region [{self.payload_start}, "
                f"{self.end}) extends past EOF at {self.size}"
            )
        if stored_name != self.relation:
            raise CorruptFileError(
                f"{self.path}: file claims relation {stored_name!r}"
            )
        self.attrs: dict[str, _AttrMeta] = {}
        for name, m in attr_metas.items():
            self.attrs[name] = self._parse_attr(name, m, payload_room)
        self.stats.dict_bytes += _HEADER.size + dict_len
        self.stats.pages_touched += _pages(_HEADER.size + dict_len)

    def _parse_attr(self, name: str, m: dict, payload_room: int) -> _AttrMeta:
        def entry(raw, what: str) -> tuple[int, int, int]:
            try:
                off, length, crc = (int(raw[0]), int(raw[1]), int(raw[2]))
            except (TypeError, ValueError, IndexError) as exc:
                raise CorruptFileError(
                    f"{self.path}: malformed payload entry for {what}"
                ) from exc
            if off < 0 or length < 0 or off + length > payload_room:
                # The EOF bounds check: reject before any consumer slices
                # (or mmap-faults) past the end of the file.
                raise CorruptFileError(
                    f"{self.path}: payload entry for {what} spans "
                    f"[{off}, {off + length}) but the payload region holds "
                    f"only {payload_room} bytes"
                )
            return off, length, crc

        try:
            cardinality = int(m["cardinality"])
            base = Base(tuple(int(b) for b in m["base"]))
            encoding = EncodingScheme(m["encoding"])
            codec = m["codec"]
            value_size = int(m.get("value_size_bytes", 8))
            components = m["components"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFileError(
                f"{self.path}: malformed dictionary entry for attribute "
                f"{name!r}: {exc}"
            ) from exc
        if codec not in BITMAP_CLASSES:
            raise CorruptFileError(
                f"{self.path}: attribute {name!r} stored with unknown "
                f"codec {codec!r}"
            )
        if len(components) != base.n:
            raise CorruptFileError(
                f"{self.path}: attribute {name!r} has {len(components)} "
                f"component tables for a {base.n}-component base"
            )
        slots: dict[tuple[int, int], tuple[int, int, int]] = {}
        for i, comp in enumerate(components, start=1):
            try:
                slot_map = comp["slots"]
            except (KeyError, TypeError) as exc:
                raise CorruptFileError(
                    f"{self.path}: malformed component {i} of {name!r}"
                ) from exc
            for slot_str, raw in slot_map.items():
                try:
                    slot = int(slot_str)
                except ValueError as exc:
                    raise CorruptFileError(
                        f"{self.path}: non-integer slot {slot_str!r}"
                    ) from exc
                slots[(i, slot)] = entry(raw, f"{name}/c{i}_s{slot}")
        nonnull = m.get("nonnull")
        return _AttrMeta(
            name=name,
            cardinality=cardinality,
            base=base,
            encoding=encoding,
            codec=codec,
            value_size_bytes=value_size,
            dictionary=_dictionary_from_json(m.get("dictionary"), self.path),
            slots=slots,
            nonnull=entry(nonnull, f"{name}/nonnull") if nonnull else None,
        )

    # ------------------------------------------------------------------
    # Payload materialization
    # ------------------------------------------------------------------

    def materialize(
        self, meta: _AttrMeta, entry: tuple[int, int, int], ident: str
    ):
        """Decode one payload entry in its stored codec, verifying its CRC.

        A dense payload stays a zero-copy view of the buffer (mmap pages
        or segment); the compressed codecs copy their (already small)
        blobs out of it.  A payload whose own length field disagrees with
        the image's row count is corrupt.  Returns the bitmap and the payload length
        actually read.
        """
        off, length, crc = entry
        start = self.payload_start + off
        view = self._buf[start : start + length]
        data = read_fault(self.fault_plan, ident, view)
        key = (start, length)
        # A faulted read comes back as another object and is re-verified
        # even if its entry was verified before.
        if data is not view or key not in self._verified:
            if zlib.crc32(data) != crc:
                raise CorruptFileError(
                    f"{self.path}: payload checksum mismatch for {ident}"
                )
            self._verified.add(key)
        stats = self.stats
        stats.payload_bytes_read += length
        stats.bitmaps_materialized += 1
        stats.pages_touched += _pages(length)
        try:
            return bitmap_class(meta.codec).from_payload(data, self.nbits), length
        except (CorruptFileError, ValueError, struct.error) as exc:
            raise CorruptFileError(
                f"{self.path}: undecodable {meta.codec} payload for "
                f"{ident}: {exc}"
            ) from exc

    def verify_payloads(self) -> list[str]:
        """CRC-check every payload entry; returns problem descriptions.
        A clean entry counts as verified: materializing it later does not
        compute its checksum again."""
        problems = []
        for name, meta in self.attrs.items():
            entries = dict(meta.slots)
            if meta.nonnull is not None:
                entries[(0, 0)] = meta.nonnull
            for (comp, slot), entry in sorted(entries.items()):
                off, length, crc = entry
                start = self.payload_start + off
                if zlib.crc32(self._buf[start : start + length]) == crc:
                    self._verified.add((start, length))
                else:
                    what = "nonnull" if comp == 0 else f"c{comp}_s{slot}"
                    problems.append(
                        f"{self.path}: payload checksum mismatch for {name}/{what}"
                    )
        return problems

    def close(self) -> None:
        """Release the buffer view (bitmaps served zero-copy keep their own)."""
        self._buf.release()


class _RelationFile(_RelationImage):
    """One opened ``.rbix`` file: the image over an mmap, plus what only
    a file has — the delta sidecar, the store generation it was read at,
    and the stamp of the files it read (see :meth:`IndexStore.generation`)."""

    #: The live delta sidecar's bytes (empty when there is none, or it is
    #: stale): what the next append writes its image after.
    sidecar = b""

    def __init__(self, store: "IndexStore", relation: str):
        self.store = store
        self.generation = store.generation(relation)
        # Stamped before the reads: a write racing them shows as a change.
        self.on_disk = store._on_disk(relation)
        self.fault_plan = store.fault_plan
        path = os.path.join(store.root, relation + _SUFFIX)
        try:
            self._fh = open(path, "rb")
        except FileNotFoundError:
            raise FileMissingError(
                f"no stored index for relation {relation!r}"
            ) from None
        try:
            if not os.fstat(self._fh.fileno()).st_size:  # and mmap refuses it
                raise CorruptFileError(
                    f"{path}: an empty file is too small to hold an index header"
                )
            self._mm = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
        except BaseException:
            self._fh.close()
            raise
        try:
            super().__init__(memoryview(self._mm), relation, path, store.stats)
            self._load_delta()
        except BaseException:
            self.close()
            raise
        store.stats.opens += 1

    def _load_delta(self) -> None:
        """Open the delta sidecar: one image per append, back to back, each
        CRC-verified whole here so a damaged delta fails at open."""
        path = os.path.join(self.store.root, self.relation + _DELTA_SUFFIX)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return
        self.deltas = images = []
        offset = 0
        while True:
            image = _RelationImage(memoryview(raw)[offset:], self.relation, path, self.stats)
            images.append(image)
            image.fault_plan = self.fault_plan
            problems = image.verify_payloads()
            if problems:
                raise CorruptFileError(problems[0])
            end = offset + image.end
            offset = end + -end % 8
            if any(raw[end:offset]):
                raise CorruptFileError(
                    f"{path}: nonzero padding after the image at row {image.start}"
                )
            if offset >= len(raw):
                break
        if images[0].start != self.nbits:
            # A compact() crash window leaves the *old* delta next to the
            # *new* (already folded) base file; where the delta starts
            # tells them apart.  Applying it again would double-count.
            log.warning(
                "%s: stale delta (base had %d rows, file has %d); ignoring",
                path,
                images[0].start,
                self.nbits,
            )
            for image in images:
                image.close()
            self.deltas = ()
            return

        def layout(image: _RelationImage) -> dict:
            return {
                name: (m.cardinality, m.base, m.encoding, m.codec, set(m.slots))
                for name, m in image.attrs.items()
            }

        stored, row = layout(self), self.nbits
        for image in images:
            if image.start != row:
                raise CorruptFileError(
                    f"{path}: the image at row {image.start} follows rows that end at {row}"
                )
            if layout(image) != stored:
                raise CorruptFileError(
                    f"{path}: the image at row {image.start} does not index the "
                    f"attributes as the base file does"
                )
            row += image.nbits
        self.delta_rows = row - self.nbits
        self.sidecar = raw

    def close(self) -> None:
        super().close()
        for image in self.deltas:
            image.close()
        try:
            self._mm.close()
        except BufferError:  # pragma: no cover - live zero-copy views
            # A zero-copy BitVector still references the map; the OS
            # keeps the pages alive until the arrays are released.
            pass
        except ValueError:
            pass
        self._fh.close()


class StoreBitmapSource:
    """A lazy :class:`~repro.core.index.BitmapSource` over one attribute.

    Handed out by :meth:`IndexStore.bitmap_source`.  ``fetch`` reads the
    touched payload from the mmap (verifying its checksum on first
    materialization), merges any pending delta rows, and serves the
    bitmap in the codec the attribute was stored with, so the
    zero-copy/compressed-algebra path is the default; :meth:`with_codec`
    serves another.  Nothing is memoized here — the engine's cache (see
    :class:`~repro.engine.cache.CachedSource`) owns retention, so the
    store's I/O counters reflect bytes actually read.
    """

    def __init__(self, rfile: _RelationImage, attribute: str):
        self._rfile = rfile
        self._meta = rfile.attrs[attribute]
        self.attribute = attribute
        self.relation = rfile.relation
        self._cls = bitmap_class(self._meta.codec)
        self.bitmap_codec = self._meta.codec

    # -- BitmapSource surface ------------------------------------------

    @property
    def nbits(self) -> int:
        return self._rfile.nbits + self._rfile.delta_rows

    @property
    def cardinality(self) -> int:
        return self._meta.cardinality

    @property
    def base(self) -> Base:
        return self._meta.base

    @property
    def encoding(self) -> EncodingScheme:
        return self._meta.encoding

    @property
    def version(self) -> int:
        """The store generation this source reads (see
        :meth:`IndexStore.generation`); stale once the store moved on."""
        return self._rfile.generation

    @property
    def stored_codec(self) -> str:
        """The codec the payloads are persisted in."""
        return self._meta.codec

    @property
    def num_bitmaps(self) -> int:
        return len(self._meta.slots)

    def stored_slots(self, component: int) -> tuple[int, ...]:
        return tuple(
            sorted(s for (c, s) in self._meta.slots if c == component)
        )

    def with_codec(self, codec: str) -> "StoreBitmapSource | CodecView":
        """This source serving ``codec`` bitmaps: the identity for the
        stored codec, otherwise a :class:`~repro.core.index.CodecView`."""
        if codec == self.bitmap_codec:
            return self
        return CodecView(self, codec)

    @property
    def nonnull(self):
        return self._with_delta(lambda meta: meta.nonnull, f"{self.attribute}/nonnull")[0]

    def fetch(self, component: int, slot: int, stats):
        """Materialize one stored bitmap, recording the real bytes read."""
        if stats.deadline is not None:
            stats.deadline.check("storage")
        if (component, slot) not in self._meta.slots:
            raise StorageError(
                f"store holds no bitmap for {self.relation}.{self.attribute}"
                f" component {component} slot {slot}"
            )
        ident = f"{self.relation}/{self.attribute}/c{component}_s{slot}"
        bitmap, length = self._with_delta(lambda meta: meta.slots[(component, slot)], ident)
        stats.record_scan(nbytes=length)
        trace = stats.trace
        if trace is not None:
            trace.event(
                "store.fetch",
                kind="fetch",
                component=component,
                slot=slot,
                nbytes=length,
                source=f"store.{self._meta.codec}",
                relation=self.relation,
                attribute=self.attribute,
                delta_rows=self._rfile.delta_rows,
            )
        return bitmap

    def _with_delta(self, entry_of, ident: str) -> tuple[Bitmap | None, int]:
        """One stored bitmap as served, and the payload bytes read for it:
        the base file's and every delta image's (``entry_of(meta)`` is its
        entry there), concatenated — the one place base and delta merge.
        For an existence bitmap ``None`` means "no NULLs": a missing part
        counts as all ones, and all parts missing stays ``None``.
        """
        images = (self._rfile, *self._rfile.deltas)
        parts, nbytes = [], 0
        for image in images:
            meta = image.attrs[self.attribute]
            entry = entry_of(meta)
            bitmap = None
            if entry is not None:
                bitmap, length = image.materialize(meta, entry, ident)
                nbytes += length
            parts.append(bitmap)
        if all(part is None for part in parts):
            return None, nbytes
        bitmap = parts[0]
        if len(parts) > 1:
            bitmap = BitVector.from_bools(
                np.concatenate(
                    [
                        part.to_bools() if part is not None else np.ones(image.nbits, bool)
                        for part, image in zip(parts, images)
                    ]
                )
            )
        if type(bitmap) is not self._cls:
            bitmap = self._cls.from_bitvector(bitmap.to_bitvector())
        return bitmap, nbytes

    def __repr__(self) -> str:
        return (
            f"StoreBitmapSource({self.relation}.{self.attribute}, "
            f"{self.nbits} bits, codec={self.bitmap_codec!r})"
        )


class StoredColumn(Column):
    """A :class:`Column` reconstructed from a store's value dictionary.

    Holds no row values — only the sorted dictionary — which is exactly
    what predicate translation (:meth:`Column.code_bounds`) needs.  Any
    path that requires the raw rows (full scans, verification) must go
    to the original relation.
    """

    def __init__(
        self,
        name: str,
        dictionary: np.ndarray,
        num_rows: int,
        value_size_bytes: int,
    ):
        self.name = name
        self.values = None
        self._ranked = (dictionary, None)
        self.value_size_bytes = value_size_bytes
        self._stored_rows = num_rows

    @property
    def num_rows(self) -> int:
        return self._stored_rows

    def __repr__(self) -> str:
        return (
            f"StoredColumn({self.name!r}, rows={self.num_rows}, "
            f"cardinality={self.cardinality})"
        )


class StoreRelation(Relation):
    """A relation view reconstructed from a store's dictionaries.

    Enough surface for the engine to register and translate predicates
    against a persisted index without the original data: column
    dictionaries, row counts, and value widths.  :meth:`scan` raises —
    there are no raw rows to scan, so verification and scan-based plans
    are unavailable on store-backed relations.
    """

    def __init__(self, name: str, columns: list[StoredColumn], num_rows: int):
        self.name = name
        self.columns = {col.name: col for col in columns}
        self._rows = num_rows

    def scan(self, attribute: str, op: str, value) -> np.ndarray:
        raise StorageError(
            f"relation {self.name!r} is store-backed; raw rows are not "
            f"persisted, so full scans (and scan verification) need the "
            f"original relation"
        )


class IndexStore:
    """A directory of persistent, mmap-backed bitmap index files.

    One ``.rbix`` file per relation; see the module docstring for the
    format.  A :class:`~repro.engine.QueryEngine` constructed with
    ``storage=IndexStore(...)`` serves queries straight off the files.

    Parameters
    ----------
    root:
        Directory holding the index files (created if missing).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; the store consults the
        ``disk.read`` seam per payload materialization and ``disk.write``
        before every atomic rename, so chaos tests can inject torn reads,
        bit flips, and mid-write crashes.
    """

    def __init__(self, root: str, *, fault_plan: FaultPlan | None = None):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.fault_plan = fault_plan
        self.stats = StoreStats()
        self._files: dict[str, _RelationFile] = {}
        self._generations: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release every open mmap and file handle."""
        self.invalidate()

    def invalidate(self, relation: str | None = None) -> None:
        """Drop open file state; the next access reopens from disk.

        Sources handed out so far are stale from here on (their file is
        closed), so this is where :meth:`generation` moves.
        """
        for name in [relation] if relation is not None else list(self._files):
            self._generations[name] = self._generations.get(name, 0) + 1
            rfile = self._files.pop(name, None)
            if rfile is not None:
                rfile.close()

    def generation(self, relation: str) -> int:
        """A counter bumped by everything that can change the relation's
        files: :meth:`build`, :meth:`append`, :meth:`compact`,
        :meth:`quarantine` — and by a change another store or process made
        on disk: a relation whose ``.rbix`` file or delta sidecar no longer
        has the inode, size and mtime it had when this store opened it is
        dropped here, so the next access re-reads it.  Sources carry the
        generation they read as ``version``; the engine drops what it
        derived from an older one before each query, so nobody has to
        remember ``engine.invalidate()``.
        """
        rfile = self._files.get(relation)
        if rfile is not None and rfile.on_disk != self._on_disk(relation):
            self.invalidate(relation)
        return self._generations.get(relation, 0)

    def __enter__(self) -> "IndexStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def relations(self) -> list[str]:
        """Names of relations with a stored index file."""
        out = []
        for name in os.listdir(self.root):
            if name.endswith(_SUFFIX) and not name.startswith(".tmp-"):
                out.append(name[: -len(_SUFFIX)])
        return sorted(out)

    def attributes(self, relation: str) -> list[str]:
        """Indexed attributes of one stored relation."""
        return list(self._file(relation).attrs)

    def has(self, relation: str, attribute: str | None = None) -> bool:
        if not os.path.isfile(self._main_path(relation)):
            return False
        if attribute is None:
            return True
        return attribute in self._file(relation).attrs

    def delta_rows(self, relation: str) -> int:
        """Rows pending in the delta sidecar (0 when compacted)."""
        return self._file(relation).delta_rows

    def total_bytes(self, relation: str | None = None) -> int:
        """Physical bytes on disk (index files + delta sidecars)."""
        names = [relation] if relation is not None else self.relations()
        total = 0
        for name in names:
            for path in (self._main_path(name), self._delta_path(name)):
                try:
                    total += os.path.getsize(path)
                except FileNotFoundError:
                    pass
        return total

    # ------------------------------------------------------------------
    # What the engine reads
    # ------------------------------------------------------------------

    def bitmap_source(
        self, relation: str, attribute: str
    ) -> StoreBitmapSource | None:
        """A lazy source for one attribute, or ``None`` if not stored.

        A missing file or attribute returns ``None`` (the caller builds
        in memory); a *corrupt* file raises
        :class:`~repro.errors.CorruptFileError` — silently falling back
        would mask data loss.
        """
        if not os.path.isfile(self._main_path(relation)):
            return None
        rfile = self._file(relation)
        if attribute not in rfile.attrs:
            return None
        return StoreBitmapSource(rfile, attribute)

    def io_snapshot(self) -> dict:
        out = self.stats.as_dict()
        out["backend"] = "store"
        out["root"] = self.root
        return out

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def build(
        self,
        relation: Relation,
        attributes: list[str] | None = None,
        *,
        codec: str | dict = "wah",
        base: Base | dict | None = None,
        encoding: EncodingScheme | dict = EncodingScheme.RANGE,
    ) -> dict:
        """Index ``attributes`` of ``relation`` and persist them in one file.

        ``codec`` / ``base`` / ``encoding`` apply to every attribute, or
        may be dicts keyed by attribute name for per-attribute choices.
        Replaces any existing file for the relation atomically (and
        discards a pending delta — the new file supersedes it).  Returns
        a summary dict: per-attribute bitmap counts and payload bytes, and
        under ``"seconds"`` where the call's wall time went — ``dictionary``
        (ranking the values), ``digits`` (decomposition into digit columns,
        each laid out once in ``codec``'s word geometry), ``encode`` (per
        stored bitmap, one comparison and one bit pack straight into the
        codec's words, then its payload bytes), ``pack`` (CRCs, the file's
        dictionary) and ``write`` (temp file to rename).  No dense bitmap
        is built on the way.
        """
        if attributes is None:
            attributes = list(relation.columns)
        if not attributes:
            raise ValueOutOfRangeError("build needs at least one attribute")

        def per_attr(option, attr, what):
            if isinstance(option, dict):
                try:
                    return option[attr]
                except KeyError:
                    raise EngineConfigError(
                        f"no {what} given for attribute {attr!r}"
                    ) from None
            return option

        seconds = dict.fromkeys(("dictionary", "digits", "encode", "pack", "write"), 0.0)
        laps = [time.perf_counter()]

        def lap(stage: str) -> None:
            laps.append(time.perf_counter())
            seconds[stage] += laps[-1] - laps[-2]

        payload_attrs: dict[str, dict] = {}
        for attr in attributes:
            column = relation.column(attr)
            codes, cardinality = column.codes, column.cardinality
            lap("dictionary")
            payload_attrs[attr] = _packed_attr_spec(
                codes,
                cardinality,
                per_attr(base, attr, "base"),
                per_attr(encoding, attr, "encoding"),
                per_attr(codec, attr, "codec"),
                column.value_size_bytes,
                column.dictionary,
                lap=lap,
            )
        chunks, payload_bytes = _relation_chunks(
            relation.name, relation.num_rows, payload_attrs
        )
        lap("pack")
        summary = {
            attr: {
                "codec": spec["codec"],
                "num_bitmaps": len(spec["bitmaps"]),
                "payload_bytes": payload_bytes[attr],
            }
            for attr, spec in payload_attrs.items()
        }
        # A pending delta must never meet the new file: a rebuild of the
        # same rows keeps the row count, which is all that tells a stale
        # sidecar from a live one.
        with self._writing(relation.name):
            file_bytes = self._atomic_write(
                self._main_path(relation.name),
                chunks,
                relation.name + _SUFFIX,
                superseded=self._delta_path(relation.name),
            )
            self.invalidate(relation.name)
        lap("write")
        return {
            "relation": relation.name,
            "rows": relation.num_rows,
            "file_bytes": file_bytes,
            "attributes": summary,
            "seconds": seconds,
        }

    # ------------------------------------------------------------------
    # Incremental append + compaction
    # ------------------------------------------------------------------

    def append(
        self,
        relation: str,
        rows: dict,
        *,
        nulls: dict | None = None,
    ) -> int:
        """Append rows to the delta sidecar; returns the new total row count.

        ``rows`` maps every stored attribute to its new values (actual
        values when the attribute has a value dictionary, ranks
        otherwise); ``nulls`` optionally maps attributes to boolean NULL
        masks.  Values must already exist in the stored dictionary — a
        new distinct value changes the attribute's cardinality and
        therefore needs a rebuild.  The rows are indexed as the base file
        indexes them and written, by the build's writer, as one more image
        of the sidecar.  The write is crash-atomic: a crash mid-append
        leaves the previous delta (and the base file) intact.
        """
        with self._writing(relation):
            rfile = self._file(relation)
            if set(rows) != set(rfile.attrs):
                raise ValueOutOfRangeError(
                    f"append must cover every stored attribute; expected "
                    f"{sorted(rfile.attrs)}, got {sorted(rows)}"
                )
            nulls = nulls or {}
            lengths = {len(np.asarray(v)) for v in rows.values()}
            if len(lengths) != 1 or 0 in lengths:
                raise ValueOutOfRangeError(
                    "append needs the same nonzero number of rows per attribute"
                )
            (nrows,) = lengths
            attrs: dict[str, dict] = {}
            for attr, meta in rfile.attrs.items():
                mask = nulls.get(attr)
                if mask is not None:
                    mask = np.asarray(mask, dtype=bool)
                    if len(mask) != nrows:
                        raise ValueOutOfRangeError(
                            f"null mask for {attr!r} has {len(mask)} entries; "
                            f"{nrows} rows appended"
                        )
                attrs[attr] = _packed_attr_spec(
                    _ranks_for(meta, rows[attr], mask),
                    meta.cardinality,
                    meta.base,
                    meta.encoding,
                    meta.codec,
                    meta.value_size_bytes,
                    nulls=mask if mask is not None and mask.any() else None,
                )
            # The sidecar is rewritten whole: the images already in it, zeros
            # to an 8-byte boundary, then this batch's image.
            start = rfile.nbits + rfile.delta_rows
            chunks, _ = _relation_chunks(relation, nrows, attrs, start)
            previous = rfile.sidecar
            self._atomic_write(
                self._delta_path(relation),
                [previous, bytes(-len(previous) % 8), *chunks],
                relation + _DELTA_SUFFIX,
            )
            self.invalidate(relation)
            self.stats.appends += 1
        return start + nrows

    def compact(self, relation: str | None = None) -> dict:
        """Fold delta rows into the base file(s); returns a summary.

        Rewrites each touched ``.rbix`` atomically, then deletes the
        sidecar.  A crash between the two steps leaves a *stale* delta
        next to the new file; opens detect it by the row its first image
        starts at and ignore it, so compaction is idempotent and never
        double-applies.
        """
        if relation is None:
            return {
                name: self.compact(name)
                for name in self.relations()
            }
        with self._writing(relation):
            rfile = self._file(relation)
            if rfile.delta_rows == 0:
                return {"relation": relation, "compacted": False, "rows": rfile.nbits}
            new_nbits = rfile.nbits + rfile.delta_rows
            # What a reader is served while the delta is pending — base and
            # delta merged, in the stored codec — is what gets written.
            payload_attrs = {
                attr: _index_attr_spec(
                    StoreBitmapSource(rfile, attr),
                    meta.codec,
                    meta.value_size_bytes,
                    meta.dictionary,
                )
                for attr, meta in rfile.attrs.items()
            }
            folded = rfile.delta_rows
            chunks, _ = _relation_chunks(relation, new_nbits, payload_attrs)
            file_bytes = self._atomic_write(
                self._main_path(relation), chunks, relation + _SUFFIX
            )
            # Crash window: the new base is live but the delta still exists.
            # Its first image no longer starts where the base ends, so reopens
            # ignore it (stale) and this unlink is safely re-runnable.
            try:
                os.unlink(self._delta_path(relation))
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _fsync_dir(self.root)
            self.invalidate(relation)
            self.stats.compactions += 1
        return {
            "relation": relation,
            "compacted": True,
            "rows": new_nbits,
            "delta_rows_folded": folded,
            "file_bytes": file_bytes,
        }

    # ------------------------------------------------------------------
    # Relation views
    # ------------------------------------------------------------------

    def relation_view(self, relation: str) -> StoreRelation:
        """A :class:`StoreRelation` for registering with a query engine.

        Columns carry the persisted value dictionaries, so predicate
        translation works without the original data; raw-row paths
        (scans, verification) raise.
        """
        rfile = self._file(relation)
        nbits = rfile.nbits + rfile.delta_rows
        columns = []
        for name, meta in rfile.attrs.items():
            dictionary = meta.dictionary
            if dictionary is None:
                dictionary = np.arange(meta.cardinality, dtype=np.int64)
            columns.append(
                StoredColumn(
                    name, dictionary, nbits, meta.value_size_bytes
                )
            )
        return StoreRelation(relation, columns, nbits)

    # ------------------------------------------------------------------
    # Integrity: verify / quarantine / scrub
    # ------------------------------------------------------------------

    def verify(self, relation: str) -> list[str]:
        """Deep-check one relation's files; returns problem descriptions.

        Validates the header, dictionary, every payload entry's bounds
        and checksum, and every image of the delta sidecar.  An empty list means
        the files read back intact.
        """
        try:
            rfile = _RelationFile(self, relation)
        except CorruptFileError as exc:  # a missing file is not one: it raises
            return [str(exc)]
        try:
            return rfile.verify_payloads()
        finally:
            rfile.close()

    def quarantine(self, relation: str) -> list[str]:
        """Move a relation's files into ``.quarantine/`` for inspection.

        The live paths stop existing — a rebuild can rewrite them — while
        the bad bytes survive.  Returns the sheltered filesystem paths.
        """
        with self._writing(relation):
            self.invalidate(relation)
            moved = [
                to_quarantine(self.root, path, os.path.basename(path))
                for path in (self._main_path(relation), self._delta_path(relation))
                if os.path.isfile(path)
            ]
        if not moved:
            raise FileMissingError(
                f"no stored index for relation {relation!r}"
            )
        return moved

    def scrub(self, quarantine: bool = True) -> list[str]:
        """Verify every relation; returns the names of corrupt ones.

        With ``quarantine=True`` (default) each corrupt relation's files
        are moved to ``.quarantine/`` as found, so the returned relations
        no longer exist in the store and can be rebuilt from source.
        """
        corrupt = []
        for relation in self.relations():
            problems = self.verify(relation)
            if problems:
                for problem in problems:
                    log.warning("scrub: %s", problem)
                corrupt.append(relation)
                if quarantine:
                    self.quarantine(relation)
        return corrupt

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_name(self, relation: str) -> str:
        if (
            not relation
            or relation in (".", "..")
            or "/" in relation
            or os.sep in relation
            or relation.startswith(".tmp-")
        ):
            raise StorageError(f"illegal relation name {relation!r}")
        return relation

    def _main_path(self, relation: str) -> str:
        return os.path.join(self.root, self._check_name(relation) + _SUFFIX)

    def _delta_path(self, relation: str) -> str:
        return os.path.join(
            self.root, self._check_name(relation) + _DELTA_SUFFIX
        )

    def _on_disk(self, relation: str) -> tuple:
        """``(inode, size, mtime)`` of the relation's file and sidecar
        (``None`` for one that does not exist)."""
        stamps = []
        for path in (self._main_path(relation), self._delta_path(relation)):
            try:
                st = os.stat(path)
            except FileNotFoundError:
                stamps.append(None)
            else:
                stamps.append((st.st_ino, st.st_size, st.st_mtime_ns))
        return tuple(stamps)

    @contextmanager
    def _writing(self, relation: str) -> Iterator[None]:
        """Hold the relation's write lock (see the module docstring); wait
        for another writer up to :data:`_LOCK_WAIT_SECONDS`, then raise
        :class:`~repro.errors.StoreBusyError`."""
        path = os.path.join(self.root, self._check_name(relation) + _LOCK_SUFFIX)
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            give_up, pause = time.monotonic() + _LOCK_WAIT_SECONDS, 0.001
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() >= give_up:
                        raise StoreBusyError(
                            f"{path}: another writer held the lock for "
                            f"{_LOCK_WAIT_SECONDS:g} s"
                        ) from None
                    time.sleep(pause)
                    pause = min(2 * pause, 0.05)
            yield
        finally:
            os.close(fd)  # and with it the lock

    def _file(self, relation: str) -> _RelationFile:
        self._check_name(relation)
        self.generation(relation)  # drops files another store changed
        rfile = self._files.get(relation)
        if rfile is None:
            rfile = _RelationFile(self, relation)
            self._files[relation] = rfile
        return rfile

    def _atomic_write(
        self, path: str, chunks: list[bytes], ident: str, superseded: str | None = None
    ) -> int:
        atomic_write(path, chunks, self.fault_plan, ident, superseded)
        nbytes = sum(map(len, chunks))
        self.stats.bytes_written += nbytes
        return nbytes

    def __repr__(self) -> str:
        return f"IndexStore({self.root!r}, relations={self.relations()})"


def _ranks_for(meta: _AttrMeta, values, mask: np.ndarray | None) -> np.ndarray:
    """Translate appended values to ranks against the stored dictionary."""
    if meta.dictionary is None:
        ranks = np.asarray(values, dtype=np.int64).copy()
        if mask is not None:
            ranks[mask] = 0
        if ranks.size and (ranks.min() < 0 or ranks.max() >= meta.cardinality):
            raise ValueOutOfRangeError(
                f"appended ranks for {meta.name!r} outside "
                f"[0, {meta.cardinality})"
            )
        return ranks
    try:
        arr = np.asarray(values, dtype=meta.dictionary.dtype)
    except (TypeError, ValueError) as exc:
        raise ValueOutOfRangeError(
            f"appended values for {meta.name!r} do not fit dtype "
            f"{meta.dictionary.dtype}: {exc}"
        ) from exc
    pos = np.searchsorted(meta.dictionary, arr)
    clipped = np.minimum(pos, len(meta.dictionary) - 1)
    known = meta.dictionary[clipped] == arr
    if mask is not None:
        known = known | mask
    if not known.all():
        missing = np.asarray(values)[~known][:5]
        raise ValueOutOfRangeError(
            f"appended values for {meta.name!r} are not in the stored "
            f"dictionary (new distinct values need a rebuild): "
            f"{missing.tolist()}"
        )
    ranks = clipped.astype(np.int64)
    if mask is not None:
        ranks[mask] = 0
    return ranks


def _packed_attr_spec(
    ranks: np.ndarray,
    cardinality: int,
    base: Base | None,
    encoding: EncodingScheme,
    codec: str,
    value_size_bytes: int,
    dictionary: np.ndarray | None = None,
    nulls: np.ndarray | None = None,
    lap=lambda stage: None,
) -> dict:
    """One rank column as an attribute of :func:`_relation_chunks`, its
    payloads cut straight from its digit columns.

    The ranks are checked once, so the digits need no check of their own.
    Each component's digit column is laid out once in ``codec``'s word
    geometry (``lap("digits")``); every stored slot is then one membership
    comparison packed into the codec's words and payload, and the
    existence bitmap of ``nulls`` (rows whose rank is already 0) is packed
    the same way (``lap("encode")``).  No index and no dense bitmap is
    built: build and append come through here, bitmap sources through
    :func:`_index_attr_spec`.
    """
    base = _checked_base(base, cardinality)
    ranks = _checked_ranks(ranks, None, cardinality)[0]
    cls, nbits = bitmap_class(codec), len(ranks)
    grids = [cls._layout(digits) for digits in base._digit_columns(ranks)]
    lap("digits")
    bitmaps = {}
    for i, grid in enumerate(grids, start=1):
        component = _component_class(encoding)(base.component(i), nbits, {})
        for slot, payload in component.payloads(grid, cls).items():
            bitmaps[(i, slot)] = payload
    nonnull = None if nulls is None else cls._pack(cls._layout(~nulls), nbits)
    lap("encode")
    return {
        "cardinality": int(cardinality),
        "base": base,
        "encoding": encoding,
        "codec": codec,
        "value_size_bytes": value_size_bytes,
        "dictionary": dictionary,
        "bitmaps": bitmaps,
        "nonnull": nonnull,
    }


def _index_attr_spec(
    source: BitmapIndex | StoreBitmapSource,
    codec: str,
    value_size_bytes: int = 8,
    dictionary: np.ndarray | None = None,
    rows: tuple[int, int] | None = None,
) -> dict:
    """One bitmap source as an attribute of :func:`_relation_chunks`.

    Every stored bitmap of ``source`` — an in-memory index, or a store's
    source serving base and delta merged — and its existence bitmap, in
    ``codec``; with ``rows=(start, stop)``, only that row range of each.
    The door for what starts from bitmaps: a compaction and a shard
    publication come through here, a build and an append through
    :func:`_packed_attr_spec`.
    """
    cls = bitmap_class(codec)
    stats = ExecutionStats()

    def served(bitmap: Bitmap) -> Bitmap:
        if rows is not None:
            bitmap = BitVector.from_bools(bitmap.to_bools()[rows[0] : rows[1]])
        return bitmap if type(bitmap) is cls else cls.from_bitvector(bitmap.to_bitvector())

    bitmaps = {
        (comp, slot): served(source.fetch(comp, slot, stats))
        for comp in range(1, source.base.n + 1)
        for slot in source.stored_slots(comp)
    }
    nonnull = source.nonnull
    return {
        "cardinality": int(source.cardinality),
        "base": source.base,
        "encoding": source.encoding,
        "codec": codec,
        "value_size_bytes": value_size_bytes,
        "dictionary": dictionary,
        "bitmaps": bitmaps,
        "nonnull": served(nonnull) if nonnull is not None else None,
    }


def _relation_chunks(
    name: str, nbits: int, attrs: dict[str, dict], start: int = 0
) -> tuple[list[bytes], dict[str, int]]:
    """Assemble one complete ``.rbix`` image of ``nbits`` rows, the first
    of them global row ``start`` (0 for a base file or a shard; for a
    delta image, the row after those already stored).

    ``attrs[attr]`` carries ``cardinality``, ``base`` (:class:`Base`),
    ``encoding`` (:class:`EncodingScheme`), ``codec``,
    ``value_size_bytes``, ``dictionary`` (array or ``None``),
    ``bitmaps`` (``{(component, slot): bitmap}`` in the codec's type, or
    its payload: ``bytes`` or a ``uint8`` array), and ``nonnull`` (the
    same, or ``None``).  Returns the
    image as header, dictionary and one chunk per payload — nothing here
    copies a payload — and, per attribute, the bytes its slot payloads
    take in the image.  The dictionary is padded with spaces so that the
    payload region starts on an 8-byte boundary of the image.
    """
    chunks: list[bytes] = []
    offset = 0

    def add(stored) -> tuple[int, int, int]:
        nonlocal offset
        payload = stored if isinstance(stored, (bytes, np.ndarray)) else stored.to_payload()
        entry = (offset, len(payload), zlib.crc32(payload))
        chunks.append(payload)
        offset += len(payload)
        return entry

    meta_attrs: dict[str, dict] = {}
    payload_bytes: dict[str, int] = {}
    for attr, spec in attrs.items():
        base: Base = spec["base"]
        components: list[dict] = [
            {"base": base.component(i), "slots": {}}
            for i in range(1, base.n + 1)
        ]
        first = offset
        for (comp, slot), bitmap in sorted(spec["bitmaps"].items()):
            entry = add(bitmap)
            components[comp - 1]["slots"][str(slot)] = list(entry)
        payload_bytes[attr] = offset - first
        nonnull = spec.get("nonnull")
        nonnull_entry = list(add(nonnull)) if nonnull is not None else None
        meta_attrs[attr] = {
            "cardinality": spec["cardinality"],
            "base": list(base.bases),
            "encoding": spec["encoding"].value,
            "codec": spec["codec"],
            "value_size_bytes": spec["value_size_bytes"],
            "dictionary": _dictionary_to_json(spec.get("dictionary")),
            "components": components,
            "nonnull": nonnull_entry,
        }
    dictionary = json.dumps(
        {
            "relation": name,
            "start": start,
            "nbits": nbits,
            "payload_length": offset,
            "attributes": meta_attrs,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    dictionary += b" " * (-(_HEADER.size + len(dictionary)) % 8)
    header_wo_crc = _HEADER.pack(
        _MAGIC,
        _VERSION,
        0,
        _HEADER.size,
        len(dictionary),
        zlib.crc32(dictionary),
        0,
    )[: _HEADER.size - 4]
    header = header_wo_crc + struct.pack("<I", zlib.crc32(header_wo_crc))
    return [header, dictionary, *chunks], payload_bytes
