"""Package-level tests: exports, error hierarchy, stats, doctests."""

from __future__ import annotations

import ast
import doctest
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import errors
from repro.stats import ExecutionStats


class TestExports:
    def test_all_names_resolve(self):
        # Every module's ``__all__``, so a name removed from a module cannot
        # linger in the export list of the package that re-exported it.
        modules = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith(".__main__")
        ]
        exporting = [module for module in modules if hasattr(module, "__all__")]
        assert len(exporting) > 1, "the walk found no submodule exports"
        for module in exporting:
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

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


class TestImportGraph:
    """The Section 9 BS/CS/IS study — its simulated disk, schemes and zlib
    codecs — is a reproduced experiment under ``repro.experiments``; the
    serving path must not pull it back in."""

    SECTION_9 = ("SimulatedDisk", "FileSystemDisk", "StorageScheme", "ZlibCodec")
    #: Run in a fresh interpreter: the loaded modules that are experiments
    #: or define one of the names given as arguments.
    PROBE = """
import json, sys
import repro
print(json.dumps(sorted(
    name for name, module in dict(sys.modules).items()
    if name.startswith("repro.experiments") or set(sys.argv[1:]) & set(vars(module))
)))
"""

    def test_import_repro_loads_no_section_9_code(self):
        src = str(Path(repro.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", self.PROBE, *self.SECTION_9],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(out.stdout) == []


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


class TestLint:
    """The two rules of CI's ``ruff check`` that break most often — an
    unused import (F401) and a line over ``[tool.ruff] line-length`` (E501)
    — checked with the standard library, for a container without ruff."""

    ROOT = Path(__file__).parents[1]
    #: Files whose findings stand: ``benchmarks/e2e`` is frozen by
    #: ``BENCHMARK.json`` (none today).
    ALLOWED: set[str] = set()

    @staticmethod
    def unused_imports(tree: ast.Module, lines: list[str]) -> list[tuple[int, str]]:
        bound: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if alias.asname != alias.name and name != "*":  # `x as x` re-exports
                        bound[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # Quoted annotations and ``__all__`` entries name their imports in strings.
        quoting = [
            getattr(node, field, None)
            for node in ast.walk(tree)
            for field in ("annotation", "returns")
        ] + [
            node.value
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AugAssign))
            and "__all__" in ast.unparse(getattr(node, "target", None) or node.targets)
        ]
        for node in filter(None, quoting):
            for leaf in ast.walk(node):
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    used.update(re.findall(r"[A-Za-z_]\w*", leaf.value))
        return [
            (lineno, name)
            for name, lineno in bound.items()
            if name not in used and "# noqa" not in lines[lineno - 1]
        ]

    def test_no_unused_import_and_no_overlong_line(self):
        limit = int(
            re.search(
                r"^\[tool\.ruff\]\nline-length = (\d+)$",
                (self.ROOT / "pyproject.toml").read_text(),
                re.MULTILINE,
            ).group(1)
        )
        findings = []
        for top in ("src", "tests", "benchmarks"):
            for path in sorted((self.ROOT / top).rglob("*.py")):
                name = str(path.relative_to(self.ROOT))
                lines = path.read_text().splitlines()
                found = [
                    f"{name}:{lineno}: {len(line)} > {limit} characters"
                    for lineno, line in enumerate(lines, 1)
                    if len(line) > limit and "# noqa" not in line
                ]
                found += [
                    f"{name}:{lineno}: `{unused}` imported but unused"
                    for lineno, unused in self.unused_imports(
                        ast.parse("\n".join(lines)), lines
                    )
                ]
                if name not in self.ALLOWED:
                    findings += found
        assert findings == []


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
