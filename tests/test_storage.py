"""Tests for the simulated disk and the BS/CS/IS storage schemes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.evaluation import OPERATORS, Predicate, evaluate
from repro.core.index import BitmapIndex
from repro.errors import CorruptFileError, FileMissingError, StorageError
from repro.relation.projection import ProjectionIndex
from repro.stats import ExecutionStats
from repro.experiments.disk import DiskModel, SimulatedDisk
from repro.experiments.schemes import open_scheme, write_index

from conftest import make_index

SCHEME_NAMES = ("BS", "cBS", "CS", "cCS", "IS", "cIS")


@pytest.fixture
def index() -> BitmapIndex:
    return make_index(num_rows=200, cardinality=30, base=Base((6, 5)), seed=4)


class TestSimulatedDisk:
    def test_write_read_round_trip(self):
        disk = SimulatedDisk()
        disk.write("a/b", b"hello")
        assert disk.read("a/b") == b"hello"

    def test_read_accounting(self):
        disk = SimulatedDisk()
        disk.write("f", b"12345")
        disk.read("f")
        disk.read("f")
        assert disk.stats.reads == 2
        assert disk.stats.bytes_read == 10
        assert disk.stats.writes == 1
        assert disk.stats.bytes_written == 5

    def test_missing_file(self):
        disk = SimulatedDisk()
        with pytest.raises(FileMissingError):
            disk.read("nope")
        with pytest.raises(FileMissingError):
            disk.delete("nope")
        with pytest.raises(FileMissingError):
            disk.size_of("nope")

    def test_list_files_prefix(self):
        disk = SimulatedDisk()
        disk.write("x/a", b"")
        disk.write("x/b", b"")
        disk.write("y/c", b"")
        assert disk.list_files("x/") == ["x/a", "x/b"]

    def test_delete(self):
        disk = SimulatedDisk()
        disk.write("f", b"1")
        disk.delete("f")
        assert not disk.exists("f")

    def test_total_bytes(self):
        disk = SimulatedDisk()
        disk.write("x/a", b"123")
        disk.write("x/b", b"4567")
        assert disk.total_bytes("x/") == 7

    def test_corrupt_byte_bounds(self):
        disk = SimulatedDisk()
        disk.write("f", b"abc")
        with pytest.raises(IndexError):
            disk.corrupt_byte("f", 3)

    def test_disk_model_seconds(self):
        model = DiskModel(seek_seconds=0.01, bandwidth_bytes_per_second=1e6)
        assert model.seconds(2, 1_000_000) == pytest.approx(1.02)
        assert model.decompress_seconds(6_000_000) == pytest.approx(1.0)


class TestSimulatedDiskFaultInjection:
    """The direct failure helpers and the ``disk.read`` fault seam."""

    def test_truncate(self):
        disk = SimulatedDisk()
        disk.write("f", b"123456")
        disk.truncate("f", 2)
        assert disk.read("f") == b"12"

    def test_truncate_missing(self):
        with pytest.raises(FileMissingError):
            SimulatedDisk().truncate("nope", 0)

    def test_corrupt_byte(self):
        disk = SimulatedDisk()
        disk.write("f", b"\x00\x00")
        disk.corrupt_byte("f", 1)
        assert disk.read("f") == b"\x00\xff"

    def test_corrupt_byte_custom_mask(self):
        disk = SimulatedDisk()
        disk.write("f", b"\x0f")
        disk.corrupt_byte("f", 0, xor_with=0x01)
        assert disk.read("f") == b"\x0e"

    def test_corrupt_byte_missing(self):
        with pytest.raises(FileMissingError):
            SimulatedDisk().corrupt_byte("nope", 0)

    def test_injected_read_error_is_one_shot(self):
        from repro.errors import InjectedFaultError
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec("disk.read", "error", nth=1)])
        disk = SimulatedDisk(fault_plan=plan)
        disk.write("f", b"data")
        with pytest.raises(InjectedFaultError):
            disk.read("f")
        assert disk.read("f") == b"data"
        assert [i.seam for i in plan.injections] == ["disk.read"]

    def test_injected_torn_read(self):
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec("disk.read", "torn", nth=1)])
        disk = SimulatedDisk(fault_plan=plan)
        disk.write("f", b"123456")
        assert disk.read("f") == b"123"
        assert disk.read("f") == b"123456"

    def test_injected_corrupt_read_is_deterministic(self):
        from repro.faults import FaultPlan, FaultSpec

        def damaged(seed):
            plan = FaultPlan([FaultSpec("disk.read", "corrupt", nth=1)], seed=seed)
            disk = SimulatedDisk(fault_plan=plan)
            disk.write("f", bytes(range(32)))
            return disk.read("f")

        assert damaged(5) == damaged(5)
        assert damaged(5) != bytes(range(32))

    def test_match_filter_scopes_fault_to_path(self):
        from repro.errors import InjectedFaultError
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec("disk.read", "error", match="idx/")])
        disk = SimulatedDisk(fault_plan=plan)
        disk.write("idx/a", b"1")
        disk.write("other", b"2")
        assert disk.read("other") == b"2"
        with pytest.raises(InjectedFaultError):
            disk.read("idx/a")


@pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
class TestSchemeRoundTrip:
    def test_evaluation_matches_in_memory(self, index, scheme_name):
        disk = SimulatedDisk()
        scheme = write_index(disk, "idx", index, scheme_name)
        for op in OPERATORS:
            for v in (0, 3, 15, 29, -1, 30):
                got = evaluate(scheme, Predicate(op, v))
                assert got == index.naive_eval(op, v), (scheme_name, op, v)
                scheme.reset_cache()

    def test_reopen_from_manifest(self, index, scheme_name):
        disk = SimulatedDisk()
        write_index(disk, "idx", index, scheme_name)
        reopened = open_scheme(disk, "idx")
        assert reopened.base == index.base
        assert reopened.encoding == index.encoding
        assert reopened.nbits == index.nbits
        got = evaluate(reopened, Predicate("<=", 11))
        assert got == index.naive_eval("<=", 11)

    def test_fetch_matches_in_memory_bitmaps(self, index, scheme_name):
        disk = SimulatedDisk()
        scheme = write_index(disk, "idx", index, scheme_name)
        for component in (1, 2):
            for slot in index.stored_slots(component):
                stats = ExecutionStats()
                from_disk = scheme.fetch(component, slot, stats)
                in_memory = index.components[component - 1].bitmap(slot)
                assert from_disk == in_memory
                assert stats.scans == 1

    def test_nulls_round_trip(self, scheme_name):
        index = make_index(
            num_rows=120, cardinality=20, base=Base((5, 4)), nulls=True, seed=6
        )
        disk = SimulatedDisk()
        write_index(disk, "idx", index, scheme_name)
        reopened = open_scheme(disk, "idx")
        assert reopened.nonnull == index.nonnull
        for op in ("<=", "!="):
            assert evaluate(reopened, Predicate(op, 7)) == index.naive_eval(op, 7)
            reopened.reset_cache()


class TestSchemeShapes:
    def test_file_counts(self, index):
        disk = SimulatedDisk()
        bs = write_index(disk, "bs", index, "BS")
        cs = write_index(disk, "cs", index, "CS")
        is_ = write_index(disk, "is", index, "IS")
        assert bs.file_count == index.num_bitmaps  # one file per bitmap
        assert cs.file_count == index.base.n  # one file per component
        assert is_.file_count == 1

    def test_uncompressed_sizes_match_bit_volume(self, index):
        from repro.experiments.schemes import HEADER_SIZE

        disk = SimulatedDisk()
        bs = write_index(disk, "bs", index, "BS")
        payload = bs.stored_bytes - HEADER_SIZE * bs.file_count
        assert payload == index.num_bitmaps * ((index.nbits + 7) // 8)

    def test_compressed_smaller_on_compressible_data(self):
        # Sorted values make every bitmap run-structured.
        values = np.sort(np.random.default_rng(0).integers(0, 30, 2000))
        index = BitmapIndex(values, 30, Base((6, 5)))
        disk = SimulatedDisk()
        bs = write_index(disk, "bs", index, "BS")
        cbs = write_index(disk, "cbs", index, "cBS")
        assert cbs.stored_bytes < bs.stored_bytes

    def test_cs_reads_whole_component_per_query(self, index):
        disk = SimulatedDisk()
        cs = write_index(disk, "cs", index, "CS")
        stats = ExecutionStats()
        cs.fetch(1, 0, stats)
        component_file = disk.size_of("cs/c1")
        assert stats.bytes_read == component_file
        # Second fetch from the same component reuses the cached scan.
        cs.fetch(1, 1, stats)
        assert stats.bytes_read == component_file
        assert stats.files_opened == 1
        # After the per-query reset, the file is read again.
        cs.reset_cache()
        cs.fetch(1, 0, stats)
        assert stats.files_opened == 2

    def test_unknown_scheme_rejected(self, index):
        with pytest.raises(StorageError):
            write_index(SimulatedDisk(), "x", index, "ZS")

    def test_c_prefix_selects_zlib(self, index):
        disk = SimulatedDisk()
        scheme = write_index(disk, "x", index, "cBS")
        assert scheme.codec.name == "zlib"

    def test_explicit_codec_override(self, index):
        disk = SimulatedDisk()
        scheme = write_index(disk, "x", index, "BS", codec="wah")
        assert scheme.codec.name == "wah"
        got = evaluate(scheme, Predicate("<=", 11))
        assert got == index.naive_eval("<=", 11)

    def test_cs_missing_slot_rejected(self, index):
        disk = SimulatedDisk()
        cs = write_index(disk, "cs", index, "CS")
        with pytest.raises(StorageError):
            cs.fetch(1, 5, ExecutionStats())  # base 5: slots 0..3

    def test_is_missing_slot_rejected(self, index):
        disk = SimulatedDisk()
        is_ = write_index(disk, "is", index, "IS")
        with pytest.raises(StorageError):
            is_.fetch(2, 9, ExecutionStats())


class TestFailureInjection:
    def test_truncated_bitmap_file(self, index):
        disk = SimulatedDisk()
        bs = write_index(disk, "idx", index, "BS")
        # A <= 0 reads slot 0 of component 1 (file idx/c1_s0).
        disk.truncate("idx/c1_s0", disk.size_of("idx/c1_s0") - 3)
        with pytest.raises(CorruptFileError):
            evaluate(bs, Predicate("<=", 0))

    def test_corrupted_magic(self, index):
        disk = SimulatedDisk()
        bs = write_index(disk, "idx", index, "BS")
        disk.corrupt_byte("idx/c1_s0", 0)
        with pytest.raises(CorruptFileError):
            evaluate(bs, Predicate("<=", 0))

    def test_corrupted_compressed_payload(self, index):
        disk = SimulatedDisk()
        cbs = write_index(disk, "idx", index, "cBS")
        disk.corrupt_byte("idx/c1_s0", 40)  # inside the zlib payload
        with pytest.raises(CorruptFileError):
            evaluate(cbs, Predicate("<=", 0))

    def test_corrupt_manifest(self, index):
        disk = SimulatedDisk()
        write_index(disk, "idx", index, "BS")
        disk.write("idx/manifest", b"{not json")
        with pytest.raises(CorruptFileError):
            open_scheme(disk, "idx")

    def test_manifest_missing_fields(self, index):
        disk = SimulatedDisk()
        write_index(disk, "idx", index, "BS")
        disk.write("idx/manifest", b"{}")
        with pytest.raises(CorruptFileError):
            open_scheme(disk, "idx")

    def test_truncated_cs_payload(self, index):
        disk = SimulatedDisk()
        cs = write_index(disk, "cs", index, "CS")
        disk.truncate("cs/c1", disk.size_of("cs/c1") - 1)
        with pytest.raises(CorruptFileError):
            cs.fetch(1, 0, ExecutionStats())


class TestProjectionIdentity:
    def test_is_layout_of_binary_equality_index_is_projection(self):
        """Paper §9.1: an all-base-2 IS index is the projection index."""
        rng = np.random.default_rng(2)
        values = rng.integers(0, 16, 100)
        index = BitmapIndex(
            values, 16, Base.binary(16), EncodingScheme.EQUALITY
        )
        matrix = index.bit_matrix()
        projection = ProjectionIndex(values, 16)
        assert np.array_equal(matrix, projection.binary_rows())
