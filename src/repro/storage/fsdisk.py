"""A real-directory disk backend with the SimulatedDisk interface.

The experiments run on :class:`~repro.storage.disk.SimulatedDisk` for
exact, repeatable accounting; this backend persists the same bitmap files
to an actual directory so indexes survive the process — the storage
schemes work against either interchangeably.

Logical paths (``"myindex/c1_s0"``) map to files under the root
directory; path components are validated so a hostile manifest cannot
escape the root.

Durability and integrity
------------------------
Writes are **crash-atomic**: data lands in a temporary file in the same
directory, is fsynced, and is moved into place with ``os.replace`` — a
crash mid-write can leave a stray temp file but never a torn bitmap
file.  Every file is framed with a CRC-32 checksum header (``checksums``
constructor flag, default on); reads verify the frame and raise
:class:`~repro.errors.CorruptFileError` on a torn or bit-flipped
payload instead of handing corrupt bytes to a codec.  :meth:`scrub`
sweeps a
prefix for corruption and :meth:`quarantine` moves a bad file aside (to
``.quarantine/`` under the root) so a rebuild can proceed while the
evidence survives for inspection.

Fault injection
---------------
Beyond the direct ``truncate``/``corrupt_byte`` helpers, the backend
accepts a :class:`repro.faults.FaultPlan` and consults its
``disk.read``/``disk.write`` seams, so chaos tests can inject read
errors, torn reads, bit flips, and mid-write crashes deterministically.
"""

from __future__ import annotations

import logging
import os
import struct
import tempfile
import zlib

from repro.errors import (
    CorruptFileError,
    FileMissingError,
    InjectedFaultError,
    StorageError,
)
from repro.faults import FaultPlan, read_fault
from repro.storage.disk import DiskStats

log = logging.getLogger("repro.storage.fsdisk")

#: Frame header: magic + CRC-32 of the payload + payload length.
_MAGIC = b"\x89RBF"
_HEADER = struct.Struct("<4sIQ")
_QUARANTINE_DIR = ".quarantine"


def frame(magic: bytes, payload: bytes) -> bytes:
    """``payload`` behind a ``magic`` + CRC-32 + length header (this
    module's bitmap files and the index store's delta sidecars)."""
    return _HEADER.pack(magic, zlib.crc32(payload), len(payload)) + payload


def unframe(magic: bytes, raw: bytes, path: str) -> bytes:
    """Verify and strip a :func:`frame`; ``path`` names the file in errors.

    A missing or mangled header, a payload shorter or longer than the
    header promises (a torn file) and a CRC mismatch (a bit flip) all
    raise :class:`~repro.errors.CorruptFileError`.
    """
    if len(raw) < _HEADER.size or raw[:4] != magic:
        raise CorruptFileError(
            f"{path}: missing or corrupt checksum frame header"
        )
    _, crc, length = _HEADER.unpack_from(raw)
    payload = raw[_HEADER.size :]
    if len(payload) != length:
        raise CorruptFileError(
            f"{path}: torn file — header promises {length} payload "
            f"bytes, found {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise CorruptFileError(f"{path}: checksum mismatch")
    return payload


def _fsync_dir(directory: str) -> None:
    """Persist a rename or unlink in ``directory``; without the
    directory fsync a power loss can forget it while keeping the data."""
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass


def atomic_write(
    path: str,
    chunks: list[bytes],
    fault_plan: FaultPlan | None,
    ident: str,
    superseded: str | None = None,
) -> None:
    """Create or replace ``path`` with ``chunks`` end to end,
    crash-atomically: temp file, fsync, ``os.replace``, directory fsync.
    The ``disk.write`` fault seam sits before the rename, where a crash
    must leave the old contents intact.  ``superseded`` names a file that
    means something only beside the *old* contents: it is unlinked,
    durably, once the new contents are safe in the temp file and before
    they show — a crash leaves old contents (with or without it) or new
    contents without it, a failed write leaves both files as they were."""
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
            handle.flush()
            os.fsync(handle.fileno())
        if fault_plan is not None:
            if fault_plan.check("disk.write", ident=ident) is not None:
                raise InjectedFaultError(
                    f"injected write failure before rename of {ident}"
                )
        if superseded is not None and os.path.exists(superseded):
            os.unlink(superseded)
            _fsync_dir(directory)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    _fsync_dir(directory)


def to_quarantine(root: str, path: str, name: str) -> str:
    """Move ``path`` into ``<root>/.quarantine/`` as ``name`` (``name.1``,
    ``name.2``… when taken), for this module's bitmap files and the index
    store's relation files.  Returns the sheltered filesystem path."""
    shelter = os.path.join(root, _QUARANTINE_DIR)
    os.makedirs(shelter, exist_ok=True)
    target = os.path.join(shelter, name)
    suffix = 0
    while os.path.exists(target):
        suffix += 1
        target = os.path.join(shelter, f"{name}.{suffix}")
    os.replace(path, target)
    log.warning("quarantined corrupt file %s -> %s", path, target)
    return target


class FileSystemDisk:
    """Stores bitmap files under a root directory.

    Implements the same surface as :class:`SimulatedDisk` (write / read /
    exists / delete / list_files / size_of / total_bytes plus the
    failure-injection helpers), so :func:`repro.storage.schemes.write_index`
    and :func:`~repro.storage.schemes.open_scheme` accept either.

    ``stats`` and ``size_of``/``total_bytes`` account *logical* payload
    bytes (what the caller wrote), not the physical frame, matching the
    simulated disk's semantics exactly.
    """

    def __init__(
        self,
        root: str,
        *,
        checksums: bool = True,
        fault_plan: FaultPlan | None = None,
    ):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.stats = DiskStats()
        self.checksums = checksums
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------

    def _resolve(self, path: str) -> str:
        parts = path.split("/")
        for part in parts:
            if part in ("", ".", "..") or os.sep in part:
                raise StorageError(f"illegal path component in {path!r}")
        return os.path.join(self.root, *parts)

    def _unframe(self, path: str, raw: bytes) -> bytes:
        """Strip the frame; with ``checksums`` off the disk is a raw store
        (a directory written that way must be opened the same way)."""
        return unframe(_MAGIC, raw, path) if self.checksums else raw

    def write(self, path: str, data: bytes) -> None:
        """Atomically create or replace a file (temp + fsync + rename)."""
        full = self._resolve(path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        blob = frame(_MAGIC, data) if self.checksums else bytes(data)
        atomic_write(full, [blob], self.fault_plan, path)
        self.stats.writes += 1
        self.stats.bytes_written += len(data)

    def read(self, path: str) -> bytes:
        full = self._resolve(path)
        try:
            with open(full, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            raise FileMissingError(f"no such bitmap file: {path}") from None
        data = self._unframe(path, read_fault(self.fault_plan, path, raw))
        self.stats.reads += 1
        self.stats.bytes_read += len(data)
        return data

    def exists(self, path: str) -> bool:
        return os.path.isfile(self._resolve(path))

    def delete(self, path: str) -> None:
        try:
            os.remove(self._resolve(path))
        except FileNotFoundError:
            raise FileMissingError(f"no such bitmap file: {path}") from None

    def list_files(self, prefix: str = "") -> list[str]:
        found = []
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = [d for d in dirnames if d != _QUARANTINE_DIR]
            for name in filenames:
                if name.startswith(".tmp-"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), self.root)
                logical = rel.replace(os.sep, "/")
                if logical.startswith(prefix):
                    found.append(logical)
        return sorted(found)

    def size_of(self, path: str) -> int:
        full = self._resolve(path)
        try:
            physical = os.path.getsize(full)
            with open(full, "rb") as handle:
                head = handle.read(len(_MAGIC))
        except FileNotFoundError:
            raise FileMissingError(f"no such bitmap file: {path}") from None
        if physical >= _HEADER.size and head == _MAGIC:
            return physical - _HEADER.size
        return physical

    def total_bytes(self, prefix: str = "") -> int:
        return sum(self.size_of(p) for p in self.list_files(prefix))

    # ------------------------------------------------------------------
    # Corruption quarantine
    # ------------------------------------------------------------------

    def verify(self, path: str) -> bool:
        """Does the file read back intact?  (No transfer is recorded.)"""
        full = self._resolve(path)
        try:
            with open(full, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            raise FileMissingError(f"no such bitmap file: {path}") from None
        try:
            self._unframe(path, raw)
        except CorruptFileError:
            return False
        except (ValueError, struct.error):  # pragma: no cover - belt and braces
            # Any parse failure on stored bytes is corruption, whatever
            # exception a lower layer chose to raise.
            return False
        return True

    def quarantine(self, path: str) -> str:
        """Move a (presumably corrupt) file into ``.quarantine/``.

        The original path stops existing — a rebuild can rewrite it —
        while the bad bytes survive for inspection.  Returns the
        filesystem path of the quarantined copy.
        """
        full = self._resolve(path)
        if not os.path.isfile(full):
            raise FileMissingError(f"no such bitmap file: {path}")
        return to_quarantine(self.root, full, path.replace("/", "__"))

    def scrub(self, prefix: str = "", quarantine: bool = True) -> list[str]:
        """Verify every file under ``prefix``; returns the corrupt ones.

        With ``quarantine=True`` (default) each corrupt file is moved to
        ``.quarantine/`` as it is found, so the paths in the returned
        list no longer exist and can be rebuilt from source.
        """
        corrupt = []
        for path in self.list_files(prefix):
            if not self.verify(path):
                corrupt.append(path)
                if quarantine:
                    self.quarantine(path)
        return corrupt

    # ------------------------------------------------------------------
    # Failure injection (parity with SimulatedDisk, used by tests)
    # ------------------------------------------------------------------

    def truncate(self, path: str, nbytes: int) -> None:
        """Cut the *physical* file to ``nbytes`` (simulates a torn write
        from a pre-atomic-rename era; checksummed reads detect it)."""
        full = self._resolve(path)
        if not os.path.isfile(full):
            raise FileMissingError(f"no such bitmap file: {path}")
        with open(full, "rb+") as handle:
            handle.truncate(nbytes)

    def corrupt_byte(self, path: str, offset: int, xor_with: int = 0xFF) -> None:
        """Flip bits of one byte of the physical file (media corruption)."""
        full = self._resolve(path)
        if not os.path.isfile(full):
            raise FileMissingError(f"no such bitmap file: {path}")
        size = os.path.getsize(full)
        if not 0 <= offset < size:
            raise IndexError(f"offset {offset} outside file of {size} bytes")
        with open(full, "rb+") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ xor_with]))
