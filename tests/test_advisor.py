"""Tests for the physical-design advisor."""

from __future__ import annotations

import os

import pytest

from repro.core import costmodel
from repro.core.advisor import (
    IndexDesign,
    load_crossover_map,
    recommend,
    recommend_codec,
)
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.optimize import knee_base
from repro.errors import OptimizationError


class TestObjectives:
    def test_default_is_knee(self):
        design = recommend(1000)
        assert design.base == knee_base(1000)
        assert design.encoding is EncodingScheme.RANGE
        assert "knee" in design.rationale.lower()

    def test_space_objective(self):
        design = recommend(1000, objective="space")
        assert design.base == Base.binary(1000)
        assert design.space_bitmaps == 10

    def test_time_objective_unconstrained(self):
        design = recommend(1000, objective="time")
        assert design.base == Base((1000,))

    def test_time_objective_with_budget_exact(self):
        design = recommend(100, space_budget=20, objective="time", exact=True)
        assert design.space_bitmaps <= 20
        assert "exact" in design.rationale

    def test_time_objective_with_budget_heuristic(self):
        design = recommend(1000, space_budget=40, objective="time")
        assert design.space_bitmaps <= 40
        assert "near-optimal" in design.rationale

    def test_unknown_objective(self):
        with pytest.raises(OptimizationError):
            recommend(100, objective="balance")


class TestBudgets:
    def test_knee_falls_back_under_tight_budget(self):
        knee_space = costmodel.space_range(knee_base(1000))
        design = recommend(1000, space_budget=knee_space - 10)
        assert design.space_bitmaps <= knee_space - 10
        assert "fell back" in design.rationale

    def test_infeasible_budget_raises(self):
        with pytest.raises(OptimizationError):
            recommend(1000, space_budget=5, objective="time")

    def test_space_objective_over_budget_raises(self):
        # The base-2 index needs 10 bitmaps for C=1000.
        with pytest.raises(OptimizationError):
            recommend(1000, space_budget=9, objective="space")


class TestBuffering:
    def test_buffered_scans_lower(self):
        plain = recommend(1000)
        buffered = recommend(1000, buffer_bitmaps=8)
        assert buffered.expected_scans < plain.expected_scans
        assert "Theorem 10.1" in buffered.rationale
        assert buffered.buffered_bitmaps == 8

    def test_prediction_matches_costmodel(self):
        design = recommend(1000)
        assert design.expected_scans == pytest.approx(
            costmodel.time_range(design.base)
        )


class TestDesignRendering:
    def test_str_contains_key_facts(self):
        design = recommend(100)
        text = str(design)
        assert "bitmaps" in text
        assert "scans" in text
        assert isinstance(design, IndexDesign)


class TestCli:
    def test_basic_invocation(self, capsys):
        from repro.core.advisor import main

        assert main(["1000"]) == 0
        out = capsys.readouterr().out
        assert "28, 36" in out  # the C=1000 knee

    def test_with_budget_and_buffer(self, capsys):
        from repro.core.advisor import main

        assert main(["1000", "--budget", "40", "--objective", "time",
                     "--buffer", "4"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 10.1" in out

    def test_exact_flag(self, capsys):
        from repro.core.advisor import main

        assert main(["50", "--budget", "20", "--objective", "time",
                     "--exact"]) == 0
        assert "exact" in capsys.readouterr().out

    def test_infeasible_budget_exit_code(self, capsys):
        from repro.core.advisor import main

        assert main(["1000", "--budget", "3", "--objective", "time"]) == 2
        assert "error" in capsys.readouterr().out


class TestCodecRule:
    MAP = os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "results",
        "BENCH_codec_crossover.json",
    )  # fmt: skip

    def test_builtin_rule_matches_committed_map(self):
        """The built-in rule and the map it was distilled from agree on
        every committed cell that is decided: dense (compression under the
        floor), or a compressed codec at least 1.5x faster than the other."""
        cells = load_crossover_map(self.MAP)
        assert not any(cell["nbits"] < 1_000_000 for cell in cells), "a quick-size map"
        decided = [
            cell
            for cell in cells
            if cell["winner"] == "dense"
            or max(cell["wah_ms"], cell["roaring_ms"])
            >= 1.5 * min(cell["wah_ms"], cell["roaring_ms"])
        ]
        assert len(decided) >= len(cells) // 2
        assert {cell["winner"] for cell in decided} == {"dense", "wah", "roaring"}
        for cell in decided:
            choice = recommend_codec(cell["density"], cell["cluster_run"])
            assert choice.source == "builtin"
            assert choice.codec == cell["winner"], (cell, str(choice))
            # and the map, asked about its own cell, answers with it
            by_map = recommend_codec(cell["density"], cell["cluster_run"], cells)
            assert by_map.codec == cell["winner"] and by_map.source == "crossover_map"

    def test_bad_arguments(self):
        with pytest.raises(OptimizationError):
            recommend_codec(0.0)
        with pytest.raises(OptimizationError):
            recommend_codec(0.5, clustering=0.5)
