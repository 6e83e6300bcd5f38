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

What serves queries
-------------------
The engine is served from an :class:`~repro.storage.store.IndexStore` —
the persistent, mmap-backed index format with lazy bitmap loading and real
I/O counters — or from memory.  :class:`~repro.storage.disk.DiskModel`
(the paper's era latency model) prices the Section 9 experiments, and the
two byte stores (:class:`~repro.storage.disk.SimulatedDisk`,
:class:`~repro.storage.fsdisk.FileSystemDisk`) hold the scheme files and
saved tables; none of the three is on the serving path.
"""

from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.fsdisk import FileSystemDisk
from repro.storage.schemes import (
    BitmapLevelStorage,
    ComponentLevelStorage,
    IndexLevelStorage,
    StorageScheme,
    open_scheme,
    write_index,
)
from repro.storage.store import IndexStore, StoreRelation

__all__ = [
    "BitmapLevelStorage",
    "BufferPool",
    "ComponentLevelStorage",
    "DiskModel",
    "FileSystemDisk",
    "IndexLevelStorage",
    "IndexStore",
    "SimulatedDisk",
    "StorageScheme",
    "StoreRelation",
    "open_scheme",
    "write_index",
]
