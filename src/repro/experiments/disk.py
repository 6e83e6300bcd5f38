"""An in-memory simulated disk with byte/IO accounting.

The paper's Section 9 measures predicate evaluation time as the sum of
(1) bitmap file reads, (2) in-memory decompression, and (3) bitmap
operations.  We cannot reproduce a 1998 disk, so the substitution is a
byte-accurate in-memory store plus an explicit :class:`DiskModel` that
converts (files opened, bytes transferred) into estimated I/O seconds.
Relative costs between storage schemes — the quantity the paper's
conclusions rest on — are preserved exactly because the byte volumes and
file-scan counts are exact.

The disk also supports *failure injection*: the direct helpers
(truncation, byte corruption) and, via an optional
:class:`repro.faults.FaultPlan`, deterministic read faults at the
``disk.read`` seam — so the test suite and the chaos harness can
exercise the storage schemes' integrity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FileMissingError
from repro.faults import FaultPlan, read_fault


@dataclass(frozen=True)
class DiskModel:
    """Converts IO/decompression counters into estimated seconds.

    Defaults approximate the paper's late-90s hardware: ~10 ms per file
    open (seek + rotational delay), ~10 MB/s sequential disk bandwidth,
    and ~6 MB/s zlib inflate throughput.  The inflate figure matters for
    reproducing Figure 16's shape: on 1998 CPUs decompression dominated
    compressed-component-storage queries (>70% of evaluation time),
    whereas a modern CPU inflates two orders of magnitude faster — so the
    experiments report measured modern CPU time *and* the era-modeled
    cost side by side.
    """

    seek_seconds: float = 0.010
    bandwidth_bytes_per_second: float = 10e6
    inflate_bytes_per_second: float = 6e6

    def seconds(self, files_opened: int, bytes_read: int) -> float:
        """Estimated wall-clock seconds for the given IO volume."""
        return (
            files_opened * self.seek_seconds
            + bytes_read / self.bandwidth_bytes_per_second
        )

    def decompress_seconds(self, decompressed_bytes: int) -> float:
        """Era-modeled CPU seconds to inflate ``decompressed_bytes``."""
        return decompressed_bytes / self.inflate_bytes_per_second


@dataclass
class DiskStats:
    """Cumulative IO counters of one simulated disk."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


class SimulatedDisk:
    """A dictionary-of-files disk with exact transfer accounting."""

    def __init__(self, *, fault_plan: FaultPlan | None = None):
        self._files: dict[str, bytes] = {}
        self.stats = DiskStats()
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------
    # File operations
    # ------------------------------------------------------------------

    def write(self, path: str, data: bytes) -> None:
        """Create or replace a file."""
        self._files[path] = bytes(data)
        self.stats.writes += 1
        self.stats.bytes_written += len(data)

    def read(self, path: str) -> bytes:
        """Read a whole file, recording the transfer."""
        try:
            data = self._files[path]
        except KeyError:
            raise FileMissingError(f"no such bitmap file: {path}") from None
        data = read_fault(self.fault_plan, path, data)
        self.stats.reads += 1
        self.stats.bytes_read += len(data)
        return data

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        try:
            del self._files[path]
        except KeyError:
            raise FileMissingError(f"no such bitmap file: {path}") from None

    def list_files(self, prefix: str = "") -> list[str]:
        """Paths on the disk, optionally filtered by prefix, sorted."""
        return sorted(p for p in self._files if p.startswith(prefix))

    def size_of(self, path: str) -> int:
        """File size in bytes (no transfer recorded)."""
        try:
            return len(self._files[path])
        except KeyError:
            raise FileMissingError(f"no such bitmap file: {path}") from None

    def total_bytes(self, prefix: str = "") -> int:
        """Total stored bytes under a path prefix."""
        return sum(
            len(data) for path, data in self._files.items() if path.startswith(prefix)
        )

    # ------------------------------------------------------------------
    # Failure injection (for tests)
    # ------------------------------------------------------------------

    def truncate(self, path: str, nbytes: int) -> None:
        """Cut a file down to its first ``nbytes`` bytes."""
        data = self._files.get(path)
        if data is None:
            raise FileMissingError(f"no such bitmap file: {path}")
        self._files[path] = data[:nbytes]

    def corrupt_byte(self, path: str, offset: int, xor_with: int = 0xFF) -> None:
        """Flip bits of one byte of a file."""
        data = self._files.get(path)
        if data is None:
            raise FileMissingError(f"no such bitmap file: {path}")
        if not 0 <= offset < len(data):
            raise IndexError(f"offset {offset} outside file of {len(data)} bytes")
        mutated = bytearray(data)
        mutated[offset] ^= xor_with
        self._files[path] = bytes(mutated)
