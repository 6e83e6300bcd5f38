"""Physical storage: the persistent index store and its buffer pool.

The engine is served from an :class:`~repro.storage.store.IndexStore` —
the persistent, mmap-backed index format with lazy bitmap loading and real
I/O counters — or from memory.  :mod:`repro.storage.fsdisk` holds the
file helpers the store and :meth:`repro.table.Table.save` share: CRC
framing, crash-atomic writes and quarantine.

Section 10's bitmap buffering is provided by
:class:`repro.storage.buffer.BufferPool`.  The Section 9.1 BS/CS/IS
organizations, their simulated disk and zlib codecs are a reproduced
experiment, not the serving system: they live in
:mod:`repro.experiments.schemes`, :mod:`repro.experiments.disk` and
:mod:`repro.experiments.compression`.
"""

from repro.storage.buffer import BufferPool
from repro.storage.store import IndexStore, StoreRelation

__all__ = [
    "BufferPool",
    "IndexStore",
    "StoreRelation",
]
