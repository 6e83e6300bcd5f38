"""Physical storage substrate: simulated disk, real disks, index store.

Implements the paper's Section 9.1 physical organizations for a bitmap
index on an ``N``-record relation:

- **Bitmap-level storage (BS)** — one ``N``-bit file per stored bitmap.
- **Component-level storage (CS)** — one row-major ``N x n_i`` bit-matrix
  file per component.
- **Index-level storage (IS)** — a single row-major ``N x n`` bit-matrix
  file for the whole index (the projection index when every base is 2).

Each scheme is available uncompressed or with any registered codec (the
``c``-prefixed variants of the paper: cBS, cCS, cIS), and each implements
the bitmap-source protocol, so the Section 3 evaluation algorithms run
unchanged against physical storage with real byte accounting.

Section 10's bitmap buffering is provided by
:class:`repro.storage.buffer.BufferPool`.

The Storage protocol
--------------------
:class:`Storage` is the one surface the serving layer (the engine, the
buffer pool) depends on.  Three very different backends implement it:

- :class:`~repro.storage.disk.DiskModel` — a pure latency model; holds no
  bytes, charges modeled read waits (the paper's era-modeled disk).
- :class:`~repro.storage.fsdisk.FileSystemDisk` — a CRC-framed byte store
  for the Section 9 scheme files (:class:`~repro.storage.disk.SimulatedDisk`,
  its in-memory twin, serves those files only and is no ``Storage``).
- :class:`~repro.storage.store.IndexStore` — the persistent, mmap-backed
  index format with lazy bitmap loading and real I/O counters.

The protocol asks three questions: *how long would this read take beyond
the wall clock?* (:meth:`Storage.read_seconds` — nonzero only for modeled
backends), *can you serve this attribute's bitmaps yourself?*
(:meth:`Storage.bitmap_source` — ``None`` for backends holding no index
payloads), and *what I/O happened so far?* (:meth:`Storage.io_snapshot`,
wired into EXPLAIN).
"""

from typing import Protocol, runtime_checkable

from repro.storage.disk import DiskModel, SimulatedDisk


@runtime_checkable
class Storage(Protocol):
    """The unified storage surface the serving layer depends on.

    Implemented by :class:`~repro.storage.disk.DiskModel` (latency model,
    no payloads), :class:`~repro.storage.fsdisk.FileSystemDisk` (a byte
    store), and :class:`~repro.storage.store.IndexStore` (persistent
    index files with lazy mmap loading).
    """

    def read_seconds(self, files_opened: int, bytes_read: int) -> float:
        """Modeled extra latency for one read.

        Backends that really move bytes (the filesystem disk, the index
        store) return ``0.0`` — their reads take the time they take; the
        pure :class:`DiskModel` returns the era-modeled seek + transfer
        estimate, which the engine sleeps on every cache miss.
        """
        ...

    def bitmap_source(self, relation: str, attribute: str):
        """A persisted lazy bitmap source for one attribute, or ``None``.

        ``None`` means this backend holds no index payloads for the
        attribute and the caller must build (or already hold) the bitmaps
        in memory.  A returned object implements the
        :class:`~repro.core.index.BitmapSource` protocol.
        """
        ...

    def io_snapshot(self) -> dict:
        """Point-in-time I/O counters (or model parameters) for EXPLAIN."""
        ...


from repro.storage.fsdisk import FileSystemDisk  # noqa: E402
from repro.storage.schemes import (  # noqa: E402
    BitmapLevelStorage,
    ComponentLevelStorage,
    IndexLevelStorage,
    StorageScheme,
    open_scheme,
    write_index,
)
from repro.storage.buffer import BufferPool  # noqa: E402
from repro.storage.store import IndexStore, StoreRelation  # noqa: E402

__all__ = [
    "BitmapLevelStorage",
    "BufferPool",
    "ComponentLevelStorage",
    "DiskModel",
    "FileSystemDisk",
    "IndexLevelStorage",
    "IndexStore",
    "SimulatedDisk",
    "Storage",
    "StorageScheme",
    "StoreRelation",
    "open_scheme",
    "write_index",
]
