"""Committed mutation checks.

Each test breaks one piece of the library with ``monkeypatch`` — a
function replaced by one that does nothing — and runs the test named to
guard it, in-process and under a fixed seed, asserting that it fails.  A
later change that weakens a guarding test leaves its mutant alive, and
the check here turns red.
"""

from __future__ import annotations

import pytest

import test_query
from repro.engine.engine import QueryEngine
from repro.query import expression


def assert_killed(target, *args) -> None:
    """Run ``target`` (a test body) on ``args`` and demand that it fails."""
    try:
        target(*args)
    except (AssertionError, pytest.fail.Exception):
        return
    pytest.fail(f"mutant survived: {target.__qualname__} passed")


def test_m1_register_without_its_drop(monkeypatch):
    """Registering a name again must drop the old relation's indexes."""
    monkeypatch.setattr(QueryEngine, "_drop", lambda self, name, attributes: None)
    reregistration = test_query.TestReRegistration()
    assert_killed(reregistration.test_reregistered_relation_answers_from_its_own_columns)


def test_m2_run_query_without_verification(monkeypatch, rng):
    """``execute`` verifies by default: a wrong index must not pass."""
    monkeypatch.setattr(expression, "verify_answer", lambda *args: None)
    relation = test_query.sales(rng)
    executor = test_query.TestExecutor()
    assert_killed(executor.test_verification_catches_wrong_index, relation)
