"""Committed mutation checks.

Each test breaks one piece of the library with ``monkeypatch`` — a
function replaced by one that does nothing, or by a copy of itself with
one line changed (:func:`mutant`) — and runs the test named to guard it,
in-process and on a fixed input, asserting that it fails.  A later change
that weakens a guarding test leaves its mutant alive, and the check here
turns red.
"""

from __future__ import annotations

import inspect
import textwrap

import numpy as np
import pytest

import test_differential
import test_query
import test_roaring
from repro.bitmaps import WahBitVector, bitvector, compressed, roaring, wah
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.engine.engine import QueryEngine
from repro.query import expression


def assert_killed(target, *args) -> None:
    """Run ``target`` (a test body) on ``args`` and demand that it fails."""
    try:
        target(*args)
    except (AssertionError, pytest.fail.Exception):
        return
    pytest.fail(f"mutant survived: {target.__qualname__} passed")


def mutant(function, old: str, new: str):
    """A copy of ``function`` with the source text ``old``, which must
    occur in it once, replaced by ``new``, compiled against its module's
    globals (decorators included: a static method stays one)."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{function.__qualname__} no longer holds {old!r}"
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


def packed_column(codec: str, encoding: EncodingScheme, nbits: int):
    """A fixed input of ``test_layout_payloads_match_a_conversion_per_slot``:
    one 256-wide component, so that every ``uint8`` a layout cell can hold
    is the digit of one stored equality slot."""
    ranks = np.random.default_rng(7).integers(0, 256, nbits)
    return codec, encoding, Base((256,)), ranks, None


layout_payloads = test_differential.test_layout_payloads_match_a_conversion_per_slot
parse_runs_agrees = test_differential.test_parse_runs_agrees_with_a_word_by_word_parse


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


@pytest.mark.parametrize(
    "old",
    [
        "groups &= np.uint32(_LITERAL_MASK)",  # M3: bit 31
        "groups[full : full + 1] &= np.uint32((1 << rest) - 1)",  # M4: the tail group
        "groups[full + 1 :] = 0",  # M5: the groups past the tail
    ],
    ids=["m3_bit31_mask", "m4_tail_group_mask", "m5_groups_past_the_tail"],
)
def test_m3_m5_wah_pack_without_a_mask(monkeypatch, old):
    """The WAH packer clears what its layout leaves as it is: bit 31 of
    every group, the cells past the column's end in the tail group, and
    the groups the byte padding adds past it.  61 rows: 2 groups and 30
    cells, then one whole padding group."""
    monkeypatch.setattr(WahBitVector, "_pack", mutant(WahBitVector._pack, old, "pass"))
    column = packed_column("wah", EncodingScheme.EQUALITY, 61)
    assert_killed(layout_payloads.hypothesis.inner_test, column)


def test_m6_parse_runs_without_coalescing(monkeypatch):
    """A payload's equal adjacent fills parse to one run, as the encoder
    would have written them."""
    loose = mutant(wah._parse_runs, "if joins.any():", "if False:")
    monkeypatch.setattr(wah, "_parse_runs", loose)
    monkeypatch.setattr(compressed, "_parse_runs", loose)
    fill = wah._FILL_FLAG | 20  # 20 zero groups
    assert_killed(parse_runs_agrees.hypothesis.inner_test, [fill, fill], 0, False)


def test_m7_parse_runs_without_its_repeat(monkeypatch):
    """A per-group payload with a fill word expands each word to its
    groups: ``ones(77)`` is a two-group fill and a literal."""
    short = mutant(
        wah._parse_runs,
        "values if total == len(values) else values.repeat(lengths)",
        "values",
    )
    monkeypatch.setattr(wah, "_parse_runs", short)
    monkeypatch.setattr(compressed, "_parse_runs", short)
    conformance = test_differential.TestBitmapConformance()
    assert_killed(conformance.test_conversions_and_payload_round_trip, "wah", WahBitVector)


def test_m8_packed_pads_with_ones(monkeypatch):
    """What the packer grows to whole words is zero: 100 rows are 13
    bytes, padded to 16 in a dense payload."""
    padded = mutant(
        bitvector._packed,
        "packed.resize(nbytes, refcheck=False)",
        "packed = np.append(packed, np.full(nbytes - len(packed), 255, np.uint8))",
    )
    for module in (bitvector, compressed, roaring):
        monkeypatch.setattr(module, "_packed", padded)
    column = packed_column("dense", EncodingScheme.RANGE, 100)
    assert_killed(layout_payloads.hypothesis.inner_test, column)


def test_m9_roaring_payload_of_loose_containers(monkeypatch):
    """A kernel's loose result is sealed before its bytes are written:
    the same bytes as the same bits built fresh."""
    unsealed = mutant(
        roaring.RoaringBitmap.to_payload, "held = self._sealed()", "held = self._containers"
    )
    monkeypatch.setattr(roaring.RoaringBitmap, "to_payload", unsealed)
    assert_killed(test_roaring.TestAlgebra().test_every_kind_pair_in_every_op)
