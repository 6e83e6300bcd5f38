"""File helpers shared by the index store and saved tables.

- :func:`frame` / :func:`unframe` put a saved table behind a magic +
  CRC-32 + length header and verify it on read, so a torn or bit-flipped
  file is a :class:`~repro.errors.CorruptFileError` instead of garbage
  handed to a parser.
- :func:`atomic_write` is **crash-atomic**: data lands in a temporary
  file in the same directory, is fsynced, and is moved into place with
  ``os.replace`` — a crash mid-write can leave a stray temp file but
  never a torn file.  It consults the ``disk.write`` seam of a
  :class:`repro.faults.FaultPlan`, so chaos tests can inject mid-write
  crashes deterministically.
- :func:`to_quarantine` moves a bad file aside (to ``.quarantine/``) so a
  rebuild can proceed while the evidence survives for inspection.
"""

from __future__ import annotations

import logging
import os
import struct
import tempfile
import zlib

from repro.errors import CorruptFileError, InjectedFaultError
from repro.faults import FaultPlan

log = logging.getLogger("repro.storage.fsdisk")

#: Frame header: magic + CRC-32 of the payload + payload length.
_HEADER = struct.Struct("<4sIQ")
_QUARANTINE_DIR = ".quarantine"


def frame(magic: bytes, payload: bytes) -> bytes:
    """``payload`` behind a ``magic`` + CRC-32 + length header (saved
    tables; the index store's files carry their own checksums)."""
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
    ``name.2``… when taken), for the index store's relation files.
    Returns the sheltered filesystem path."""
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
