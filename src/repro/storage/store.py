"""Persistent on-disk index store with mmap lazy loading (RBIX format).

One file per relation (``<relation>.rbix``) holds every bitmap index of
that relation.  The layout is dictionary-up-front so a cold open parses
only the metadata; individual bitmap payloads are materialized lazily
from an ``mmap`` view the first time a query touches them:

.. code-block:: text

    offset 0   +----------------------------------------------+
               | header (30 bytes, fixed)                     |
               |   magic "RBIX" | version | flags             |
               |   dict_offset | dict_length | dict_crc       |
               |   header_crc (CRC-32 of the preceding bytes) |
    dict_off   +----------------------------------------------+
               | dictionary (JSON, CRC-framed by the header)  |
               |   per attribute: cardinality, base, encoding,|
               |   codec, value dictionary, and per-slot      |
               |   [offset, length, crc] payload entries      |
    payload    +----------------------------------------------+
               | bitmap payloads, one per stored slot         |
               |   dense -> padded 64-bit words (zero-copy)   |
               |   wah   -> WAH blob    roaring -> ROAR blob  |
               +----------------------------------------------+

Payload offsets in the dictionary are relative to the payload region and
validated against the physical file size at open — an entry extending
past EOF is reported as :class:`~repro.errors.CorruptFileError` before
anything slices (or page-faults) past the end of the map.  Every region
is independently checksummed: the header over itself, the dictionary by
the header, and each payload by its dictionary entry (verified on first
materialization).

The layout does not depend on what holds the bytes: the process backend
publishes each shard — a row range of the source the engine serves — as
the same image from the same writer
(:class:`~repro.engine.sharding.ShardExport`) and serves it with the same
reader.  A file's image starts at 0; a segment's at the offset (< 8) that
puts the payload region, and so every dense payload, on an 8-byte boundary.

Incremental appends go to a CRC-framed JSON *delta sidecar*
(``<relation>.rbix.delta``) holding the appended rank rows; reads serve
base + delta merged, and an explicit :meth:`IndexStore.compact` folds the
delta into a rewritten base file.  All writes are crash-atomic (temp file
+ fsync + ``os.replace`` + directory fsync, through
:func:`~repro.storage.fsdisk.atomic_write`); the delta records the base
file's row count so a sidecar orphaned by a crash *between* compaction's
rename and its delta unlink is detected as stale and ignored instead of
being applied twice.  A rebuild can keep the row count, so
:meth:`IndexStore.build` unlinks the sidecar *before* its rename instead.

A :class:`~repro.engine.QueryEngine` is served from an
:class:`IndexStore`: ``bitmap_source`` hands out lazy per-attribute
:class:`StoreBitmapSource` views, and ``io_snapshot`` exposes the real
counters (dictionary bytes parsed, payload bytes read, bitmaps
materialized, a page-touch proxy for mmap faults) that EXPLAIN reports
alongside the cost model's predictions.
"""

from __future__ import annotations

import json
import logging
import mmap
import os
import struct
import time
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from repro.bitmaps import BITMAP_CLASSES, Bitmap, BitVector, bitmap_class
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.index import BitmapIndex
from repro.errors import (
    CorruptFileError,
    EngineConfigError,
    FileMissingError,
    StorageError,
    ValueOutOfRangeError,
)
from repro.faults import FaultPlan, read_fault
from repro.relation.column import Column
from repro.relation.relation import Relation
from repro.stats import ExecutionStats
from repro.storage.fsdisk import _fsync_dir, atomic_write, frame, to_quarantine, unframe

log = logging.getLogger("repro.storage.store")

_MAGIC = b"RBIX"
_VERSION = 1
#: magic, version, flags, dict_offset, dict_length, dict_crc, header_crc.
_HEADER = struct.Struct("<4sHHQQII")
_DELTA_MAGIC = b"\x89RBD"
_SUFFIX = ".rbix"
_DELTA_SUFFIX = ".rbix.delta"
#: Page granularity of the ``pages_touched`` counter.
_PAGE_SIZE = 4096


def _payload_start(buf, offset: int = 0) -> int:
    """Where the payload region of the image at ``buf[offset:]`` starts."""
    _, _, _, dict_off, dict_len, _, _ = _HEADER.unpack_from(buf, offset)
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
    delta_bitmaps: int = 0
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

    #: What only a store file has, and :class:`_RelationFile` sets: a delta
    #: sidecar, a store generation, the store's fault plan.
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
        payload_room = self.size - self.payload_start
        try:
            self.nbits = int(meta["nbits"])
            stored_name = meta["relation"]
            attr_metas = meta["attributes"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFileError(
                f"{self.path}: malformed dictionary: {exc}"
            ) from exc
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
    a file has — the delta sidecar and the store generation it was read at."""

    def __init__(self, store: "IndexStore", relation: str):
        self.store = store
        self.generation = store.generation(relation)
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
        self._delta_indexes: dict[str, BitmapIndex] = {}
        store.stats.opens += 1

    # ------------------------------------------------------------------
    # Delta sidecar
    # ------------------------------------------------------------------

    def _load_delta(self) -> None:
        self.delta_rows = 0
        self.delta_values: dict[str, np.ndarray] = {}
        self.delta_nulls: dict[str, np.ndarray] = {}
        delta_path = os.path.join(
            self.store.root, self.relation + _DELTA_SUFFIX
        )
        try:
            with open(delta_path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return
        payload = unframe(_DELTA_MAGIC, raw, delta_path)
        try:
            delta = json.loads(payload)
            base_nbits = int(delta["base_nbits"])
            rows = int(delta["rows"])
            per_attr = delta["attributes"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptFileError(
                f"{delta_path}: malformed delta sidecar: {exc}"
            ) from exc
        if base_nbits != self.nbits:
            # A compact() crash window leaves the *old* delta next to the
            # *new* (already folded) base file; the recorded base size
            # tells them apart.  Applying it again would double-count.
            log.warning(
                "%s: stale delta (base had %d rows, file has %d); ignoring",
                delta_path,
                base_nbits,
                self.nbits,
            )
            return
        if set(per_attr) != set(self.attrs):
            raise CorruptFileError(
                f"{delta_path}: delta attributes {sorted(per_attr)} do not "
                f"match stored attributes {sorted(self.attrs)}"
            )
        values: dict[str, np.ndarray] = {}
        nulls: dict[str, np.ndarray] = {}
        for name, cols in per_attr.items():
            ranks = np.asarray(cols["values"], dtype=np.int64)
            meta = self.attrs[name]
            if len(ranks) != rows:
                raise CorruptFileError(
                    f"{delta_path}: attribute {name!r} has {len(ranks)} "
                    f"delta rows; header promises {rows}"
                )
            if ranks.size and (
                ranks.min() < 0 or ranks.max() >= meta.cardinality
            ):
                raise CorruptFileError(
                    f"{delta_path}: attribute {name!r} delta ranks outside "
                    f"[0, {meta.cardinality})"
                )
            values[name] = ranks
            mask = cols.get("nulls")
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                if len(mask) != rows:
                    raise CorruptFileError(
                        f"{delta_path}: attribute {name!r} null mask length "
                        f"mismatch"
                    )
                nulls[name] = mask
        self.delta_rows = rows
        self.delta_values = values
        self.delta_nulls = nulls

    def delta_index(self, attribute: str) -> BitmapIndex:
        """The delta rows of one attribute as an in-memory index (memoized)."""
        idx = self._delta_indexes.get(attribute)
        if idx is None:
            meta = self.attrs[attribute]
            idx = BitmapIndex(
                self.delta_values[attribute],
                meta.cardinality,
                base=meta.base,
                encoding=meta.encoding,
                nulls=self.delta_nulls.get(attribute),
                keep_values=False,
            )
            self._delta_indexes[attribute] = idx
            self.store.stats.delta_bitmaps += idx.num_bitmaps
        return idx

    def close(self) -> None:
        super().close()
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
    bitmap in ``serve_codec`` (defaults to the codec the attribute was
    stored with, so the zero-copy/compressed-algebra path is the
    default).  Nothing is memoized here — the engine's shared cache (or
    a buffer pool) owns retention, so the store's I/O counters reflect
    bytes actually read.
    """

    def __init__(
        self,
        rfile: _RelationImage,
        attribute: str,
        serve_codec: str | None = None,
    ):
        self._rfile = rfile
        self._meta = rfile.attrs[attribute]
        self.attribute = attribute
        self.relation = rfile.relation
        codec = serve_codec if serve_codec is not None else self._meta.codec
        self._cls = bitmap_class(codec)
        self.bitmap_codec = codec

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

    def with_codec(self, codec: str) -> "StoreBitmapSource":
        """A view of the same payloads serving ``codec`` bitmaps."""
        if codec == self.bitmap_codec:
            return self
        return StoreBitmapSource(self._rfile, self.attribute, codec)

    @property
    def nonnull(self):
        rf = self._rfile
        meta = self._meta
        base = None
        if meta.nonnull is not None:
            base, _ = rf.materialize(
                meta, meta.nonnull, f"{self.attribute}/nonnull"
            )
        delta = rf.delta_index(self.attribute).nonnull if rf.delta_rows else None
        return self._with_delta(base, delta)

    def fetch(self, component: int, slot: int, stats):
        """Materialize one stored bitmap, recording the real bytes read."""
        rf = self._rfile
        if stats.deadline is not None:
            stats.deadline.check("storage")
        try:
            entry = self._meta.slots[(component, slot)]
        except KeyError:
            raise StorageError(
                f"store holds no bitmap for {self.relation}.{self.attribute}"
                f" component {component} slot {slot}"
            ) from None
        ident = f"{self.relation}/{self.attribute}/c{component}_s{slot}"
        bitmap, length = rf.materialize(self._meta, entry, ident)
        delta = (
            rf.delta_index(self.attribute).components[component - 1].bitmap(slot)
            if rf.delta_rows
            else None
        )
        bitmap = self._with_delta(bitmap, delta)
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
                delta_rows=rf.delta_rows,
            )
        return bitmap

    def _with_delta(self, base: Bitmap | None, delta: BitVector | None):
        """A stored bitmap followed by its pending delta rows, as served.

        The one place base + delta are merged (decode, concatenate,
        re-encode), for slot and existence bitmaps alike.  For an
        existence bitmap ``None`` means "no NULLs": a missing side counts
        as all ones, and two missing sides stay ``None``.
        """
        rf, cls = self._rfile, self._cls
        if base is None and delta is None:
            return None
        if rf.delta_rows:
            head = base.to_bools() if base is not None else np.ones(rf.nbits, bool)
            tail = (
                delta.to_bools() if delta is not None else np.ones(rf.delta_rows, bool)
            )
            base = BitVector.from_bools(np.concatenate([head, tail]))
        if type(base) is cls:
            return base
        return cls.from_bitvector(base.to_bitvector())

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
            self._generations[name] = self.generation(name) + 1
            rfile = self._files.pop(name, None)
            if rfile is not None:
                rfile.close()

    def generation(self, relation: str) -> int:
        """A counter bumped by everything that can change the relation's
        files: :meth:`build`, :meth:`append`, :meth:`compact`,
        :meth:`quarantine`.  Sources carry the one they read as
        ``version``; the engine drops what it derived from an older one
        before each query, so nobody has to remember ``engine.invalidate()``.
        """
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
        (ranking the values), ``digits`` (decomposition and the per-digit
        bitmaps), ``encode`` (conversion to ``codec``), ``pack`` (payloads,
        CRCs, the file's dictionary) and ``write`` (temp file to rename).
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
            attr_codec = per_attr(codec, attr, "codec")
            codes, cardinality = column.codes, column.cardinality
            lap("dictionary")
            index = BitmapIndex(
                codes,
                cardinality,
                base=per_attr(base, attr, "base"),
                encoding=per_attr(encoding, attr, "encoding"),
                keep_values=False,
            )
            lap("digits")
            payload_attrs[attr] = _index_attr_spec(
                index, attr_codec, column.value_size_bytes, column.dictionary
            )
            lap("encode")
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
        therefore needs a rebuild.  The write is crash-atomic: a crash
        mid-append leaves the previous delta (and the base file) intact.
        """
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
        new_values: dict[str, np.ndarray] = {}
        new_nulls: dict[str, np.ndarray] = {}
        for attr, meta in rfile.attrs.items():
            mask = nulls.get(attr)
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                if len(mask) != nrows:
                    raise ValueOutOfRangeError(
                        f"null mask for {attr!r} has {len(mask)} entries; "
                        f"{nrows} rows appended"
                    )
            new_values[attr] = _ranks_for(meta, rows[attr], mask)
            if mask is not None and mask.any():
                new_nulls[attr] = mask
        # Merge with the existing delta and rewrite the sidecar whole —
        # appends are small relative to the base, and a single framed
        # file keeps recovery trivial.
        merged_values = {}
        merged_nulls = {}
        old_rows = rfile.delta_rows
        for attr in rfile.attrs:
            old_vals = (
                rfile.delta_values.get(attr, np.empty(0, dtype=np.int64))
                if old_rows
                else np.empty(0, dtype=np.int64)
            )
            merged_values[attr] = np.concatenate(
                [old_vals, new_values[attr]]
            )
            old_mask = rfile.delta_nulls.get(attr)
            new_mask = new_nulls.get(attr)
            if old_mask is not None or new_mask is not None:
                merged_nulls[attr] = np.concatenate(
                    [
                        old_mask
                        if old_mask is not None
                        else np.zeros(old_rows, dtype=bool),
                        new_mask
                        if new_mask is not None
                        else np.zeros(nrows, dtype=bool),
                    ]
                )
        total_delta = old_rows + nrows
        payload = json.dumps(
            {
                "relation": relation,
                "base_nbits": rfile.nbits,
                "rows": total_delta,
                "attributes": {
                    attr: {
                        "values": [int(v) for v in merged_values[attr]],
                        "nulls": (
                            [bool(b) for b in merged_nulls[attr]]
                            if attr in merged_nulls
                            else None
                        ),
                    }
                    for attr in rfile.attrs
                },
            },
            separators=(",", ":"),
        ).encode("utf-8")
        self._atomic_write(
            self._delta_path(relation),
            [frame(_DELTA_MAGIC, payload)],
            relation + _DELTA_SUFFIX,
        )
        total = rfile.nbits + total_delta
        self.invalidate(relation)
        self.stats.appends += 1
        return total

    def compact(self, relation: str | None = None) -> dict:
        """Fold delta rows into the base file(s); returns a summary.

        Rewrites each touched ``.rbix`` atomically, then deletes the
        sidecar.  A crash between the two steps leaves a *stale* delta
        next to the new file; opens detect it via the recorded base row
        count and ignore it, so compaction is idempotent and never
        double-applies.
        """
        if relation is None:
            return {
                name: self.compact(name)
                for name in self.relations()
            }
        rfile = self._file(relation)
        if rfile.delta_rows == 0:
            return {"relation": relation, "compacted": False, "rows": rfile.nbits}
        new_nbits = rfile.nbits + rfile.delta_rows
        # What a reader is served while the delta is pending — base and
        # delta merged, in the stored codec — is what gets written.
        payload_attrs = {
            attr: _index_attr_spec(
                StoreBitmapSource(rfile, attr), meta.codec, meta.value_size_bytes, meta.dictionary
            )
            for attr, meta in rfile.attrs.items()
        }
        folded = rfile.delta_rows
        chunks, _ = _relation_chunks(relation, new_nbits, payload_attrs)
        file_bytes = self._atomic_write(
            self._main_path(relation), chunks, relation + _SUFFIX
        )
        # Crash window: the new base is live but the delta still exists.
        # Its recorded base_nbits no longer matches, so reopens ignore it
        # (stale) and this unlink is safely re-runnable.
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
        and checksum, and the delta sidecar's frame.  An empty list means
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

    def _file(self, relation: str) -> _RelationFile:
        self._check_name(relation)
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
    The one way an image attribute is built: a store file, a compaction
    and a shard publication all come through here.
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


def _pack_relation_file(
    name: str, nbits: int, attrs: dict[str, dict]
) -> tuple[bytes, dict[str, int]]:
    """:func:`_relation_chunks` joined into one buffer, for an image that
    is copied somewhere whole (a shared-memory segment)."""
    chunks, payload_bytes = _relation_chunks(name, nbits, attrs)
    return b"".join(chunks), payload_bytes


def _relation_chunks(
    name: str, nbits: int, attrs: dict[str, dict]
) -> tuple[list[bytes], dict[str, int]]:
    """Assemble one complete ``.rbix`` file image.

    ``attrs[attr]`` carries ``cardinality``, ``base`` (:class:`Base`),
    ``encoding`` (:class:`EncodingScheme`), ``codec``,
    ``value_size_bytes``, ``dictionary`` (array or ``None``),
    ``bitmaps`` (``{(component, slot): bitmap}`` in the codec's type),
    and ``nonnull`` (in the codec's type too, or ``None``).  Returns the
    image as header, dictionary and one chunk per payload — nothing here
    copies a payload — and, per attribute, the bytes its slot payloads
    take in the image.
    """
    chunks: list[bytes] = []
    offset = 0

    def add(payload: bytes) -> tuple[int, int, int]:
        nonlocal offset
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
        start = offset
        for (comp, slot), bitmap in sorted(spec["bitmaps"].items()):
            entry = add(bitmap.to_payload())
            components[comp - 1]["slots"][str(slot)] = list(entry)
        payload_bytes[attr] = offset - start
        nonnull = spec.get("nonnull")
        nonnull_entry = list(add(nonnull.to_payload())) if nonnull is not None else None
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
        {"relation": name, "nbits": nbits, "attributes": meta_attrs},
        separators=(",", ":"),
    ).encode("utf-8")
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
