"""Package-level tests: exports, error hierarchy, stats, doctests."""

from __future__ import annotations

import doctest
import importlib.util
from pathlib import Path

import pytest

import repro
from repro import errors
from repro.stats import ExecutionStats


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_docstring_is_runnable(self):
        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
        assert results.attempted > 0

    def test_predicate_parser_doctest(self):
        from repro.query import predicate

        results = doctest.testmod(predicate, verbose=False)
        assert results.failed == 0


class TestBenchmarkLayerWrappers:
    """``benchmarks/e2e/layers.py`` wraps ``owner.__dict__[name]`` and skips
    a name it does not find there without a word (the time just moves to
    ``engine.self``), so a method that moves to a base class would zero its
    layer's metric unnoticed.  Hold every wrapped name on its owner."""

    #: Not in their owner's own ``__dict__`` today, so not wrapped today.
    INHERITED = {
        ("BitVector", "and_many"),
        ("BitVector", "or_many"),
        ("WahBitVector", "andnot"),
    }

    def test_every_entry_point_is_defined_on_its_owner(self):
        path = Path(__file__).parents[1] / "benchmarks" / "e2e" / "layers.py"
        spec = importlib.util.spec_from_file_location("e2e_layers_readonly", path)
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        missing = {
            (owner.__name__, name)
            for owner, names, _, _ in layers.CLASS_ENTRY_POINTS
            for name in names
            if name not in owner.__dict__
        }
        assert missing == self.INHERITED


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_value_errors_also_catchable_as_value_error(self):
        assert issubclass(errors.InvalidBaseError, ValueError)
        assert issubclass(errors.InvalidPredicateError, ValueError)
        assert issubclass(errors.LengthMismatchError, ValueError)

    def test_file_missing_is_key_error(self):
        assert issubclass(errors.FileMissingError, KeyError)

    def test_library_failures_catchable_at_top(self):
        from repro import Base

        with pytest.raises(repro.ReproError):
            Base((1,))


class TestExecutionStats:
    def test_ops_property(self):
        stats = ExecutionStats(ands=1, ors=2, xors=3, nots=4)
        assert stats.ops == 10

    def test_record_scan(self):
        stats = ExecutionStats()
        stats.record_scan(nbytes=128)
        stats.record_scan()
        assert stats.scans == 2
        assert stats.bytes_read == 128

    def test_merge(self):
        a = ExecutionStats(scans=1, ands=2, bytes_read=10, buffer_hits=1)
        b = ExecutionStats(scans=3, ors=1, files_opened=2)
        a.merge(b)
        assert a.scans == 4
        assert a.ands == 2
        assert a.ors == 1
        assert a.bytes_read == 10
        assert a.files_opened == 2
        assert a.buffer_hits == 1

    def test_copy_is_independent(self):
        a = ExecutionStats(scans=5)
        b = a.copy()
        b.scans += 1
        assert a.scans == 5
        assert b.scans == 6
