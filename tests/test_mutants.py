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
from hypothesis import Phase, settings
from hypothesis.stateful import run_state_machine_as_test

import test_aggregation
import test_cost_properties
import test_costmodel
import test_differential
import test_engine_concurrency
import test_expression
import test_maintenance
import test_oracle
import test_query
import test_roaring
import test_evaluation
import test_store
from repro.bitmaps import WahBitVector, bitvector, compressed, roaring, wah
from repro.core import costmodel, encoding, evaluation
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.engine import sharding
from repro.engine.engine import QueryEngine
from repro.errors import VerificationError
from repro.query import expression
from repro.relation.relation import Relation
from repro.storage import IndexStore, StoreRelation


def assert_killed(target, *args) -> None:
    """Run ``target`` (a test body) on ``args`` and demand that it fails:
    an assertion, or the library's own verification refusing an answer."""
    try:
        target(*args)
    except (AssertionError, pytest.fail.Exception, VerificationError):
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


def oracle_machine() -> None:
    """The Table oracle machine, derandomized and without shrinking, so
    that a mutant it kills fails on the first sequence that shows it."""
    run_state_machine_as_test(
        test_oracle.TableMachine,
        settings=settings(
            database=None,
            derandomize=True,
            phases=[Phase.generate],
            deadline=None,
            max_examples=100,
            stateful_step_count=10,
            report_multiple_bugs=False,
        ),
    )


layout_payloads = test_differential.test_layout_payloads_match_a_conversion_per_slot
parse_runs_agrees = test_differential.test_parse_runs_agrees_with_a_word_by_word_parse
cold_scans = test_cost_properties.test_cold_scans_are_the_rule_on_every_codec


def test_m1_register_without_its_drop(monkeypatch):
    """Registering a name again with a changed spec must not carry that
    attribute's index into the new record."""
    carrying = mutant(QueryEngine._write, "record.specs.get(attribute) != spec", "False")
    monkeypatch.setattr(QueryEngine, "_write", carrying)
    follow = test_store.TestNoInvalidateNeeded()
    assert_killed(follow.test_changed_spec_rebuilds_only_that_attribute, test_store.make_relation())


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


def test_m10_range_opt_rule_without_its_lower_bitmap(monkeypatch):
    """Past component 1, RangeEval-Opt also reads ``B^(d-1)`` unless
    ``d = 0``: ``A <= 7`` on ``<5, 4>`` (digits 3, 1) scans two bitmaps."""
    rule = mutant(costmodel._le_cost, " + (d != 0)", "")
    monkeypatch.setattr(costmodel, "_le_cost", rule)
    case = (Base((5, 4)), 20, EncodingScheme.RANGE, "range_eval_opt", "<=", 7)
    assert_killed(cold_scans.hypothesis.inner_test, case)


def test_m11_interval_rule_window_off_by_one(monkeypatch):
    """An interval component's third scan is for digits strictly inside a
    half window: digit 2 of base 5 (``m = 3``) is its edge, two scans."""
    rule = mutant(costmodel._le_cost, "(r < m - 1)", "(r < m)")
    monkeypatch.setattr(costmodel, "_le_cost", rule)
    case = (Base((5, 4)), 20, EncodingScheme.INTERVAL, "interval_eval", "<=", 8)
    assert_killed(cold_scans.hypothesis.inner_test, case)


def test_m12_auto_is_range_eval_on_range_encoding(monkeypatch):
    """``'auto'`` is the paper's RangeEval-Opt, not the baseline."""
    monkeypatch.setitem(evaluation._AUTO, EncodingScheme.RANGE, "range_eval")
    validation = test_costmodel.TestExpectedScansValidation()
    assert_killed(validation.test_auto_algorithm)


def test_m13_xor_computes_or(monkeypatch):
    """An ``Xor`` node is the symmetric difference of its sides."""
    as_or = mutant(expression.Xor.bitmap, "return xor_(a, b, stats)", "return or_(a, b, stats)")
    monkeypatch.setattr(expression.Xor, "bitmap", as_or)
    assert_killed(oracle_machine)


def test_m14_aggregate_without_the_measure_nonnull(monkeypatch, tmp_path):
    """An aggregate reads only the rows whose measure is known."""
    loose = mutant(expression._finish, "bitmap = and_(bitmap, source.nonnull, stats)", "pass")
    monkeypatch.setattr(expression, "_finish", loose)
    assert_killed(test_aggregation.test_store_backed_aggregates_with_nulls, tmp_path, "wah")


def test_m15_empty_shards_vote_in_min_max(monkeypatch):
    """A shard that selects nothing has no rank to lend MIN or MAX."""
    voting = mutant(sharding.merge_shard_extremes, " if count > 0]", "]")
    monkeypatch.setattr(sharding, "merge_shard_extremes", voting)
    backends = test_aggregation.TestBackends()
    with test_aggregation.parted_engine() as parted:
        assert_killed(backends.test_processes_answer_what_inline_answers, parted, 3, "m")


@pytest.mark.parametrize(
    "kernel,answer", [("rank_sum", "return total"), ("rank_bound", "return lo")]
)
def test_m16_m17_rank_kernel_off_by_one_under_verify(monkeypatch, kernel, answer):
    """``verify=True`` checks SUM/AVG (``rank_sum``) and MIN/MAX
    (``rank_bound``) against a scan."""
    off = mutant(getattr(evaluation, kernel), answer, f"{answer} + 1")
    monkeypatch.setattr(expression, kernel, off)
    backends = test_aggregation.TestBackends()
    with test_aggregation.parted_engine() as parted:
        assert_killed(backends.test_verify_accepts_every_finish, parted)


def test_m20_equality_lt_eq_side_choice_off_by_one(monkeypatch):
    """Past component 1, equality encoding's ``digit < d`` takes the
    direct side on a tie of ``d + 1`` against ``b - d`` reads: digit 1 of
    a base-3 component ORs nothing where the complement ORs and NOTs."""
    off = mutant(evaluation._EqualityDigits.lt_eq, "if d + 1 <= b - d:", "if d + 1 < b - d:")
    monkeypatch.setattr(evaluation._EqualityDigits, "lt_eq", off)
    pinned = test_evaluation.TestPinnedCounts()
    assert_killed(pinned.test_every_operator_charges_what_it_always_has, EncodingScheme.EQUALITY)


def test_m21_horner_with_or_and_and_swapped(monkeypatch):
    """``LE_i = LT_i OR (EQ_i AND LE_{i-1})``, not the dual."""
    swapped = mutant(
        evaluation._horner,
        "acc = or_(lt, and_(eq, acc, stats), stats)",
        "acc = and_(lt, or_(eq, acc, stats), stats)",
    )
    monkeypatch.setattr(evaluation, "_horner", swapped)
    answers = test_differential.test_evaluate_matches_naive_scan
    for encoding in (EncodingScheme.EQUALITY, EncodingScheme.INTERVAL):
        assert_killed(answers, 20, Base((5, 4)), encoding, 1)


def test_m22_store_without_its_on_disk_check(monkeypatch, tmp_path):
    """A store re-reads a relation whose files another store changed."""
    blind = mutant(
        IndexStore._file,
        "if rfile is None or rfile.on_disk != self._on_disk(relation):",
        "if rfile is None:",
    )
    monkeypatch.setattr(IndexStore, "_file", blind)
    assert_killed(test_engine_concurrency.check_histories, str(tmp_path / "histories"), range(3))
    follow = test_store.TestNoInvalidateNeeded()
    assert_killed(
        follow.test_answers_follow_another_store_on_the_directory,
        str(tmp_path / "indexes"),
        "inline",
        "wah",
    )
    racing = test_store.TestAnOpenRacingAWrite()
    assert_killed(
        racing.test_the_next_append_writes_after_the_last, str(tmp_path / "racing"), monkeypatch
    )


def test_m23_append_without_the_write_lock(monkeypatch, tmp_path):
    """Two writers' appends to one relation serialize on its lock file."""
    unlocked = mutant(IndexStore.append, "with self._writing(relation):", "if True:")
    monkeypatch.setattr(IndexStore, "append", unlocked)
    race = test_store.TestConcurrentWriters()
    assert_killed(race.test_appends_racing_appends_all_land, str(tmp_path / "indexes"))


def test_m25_xor_ignores_nulls(monkeypatch):
    """``xor`` over NULL-tracking indexes is known true only where both
    sides are known."""
    blind = mutant(expression.Xor.bitmap, "if _tracks_nulls(self, indexes):", "if False:")
    monkeypatch.setattr(expression.Xor, "bitmap", blind)
    nulls = test_expression.TestNotOverNulls()
    kleene = nulls.test_xor_of_two_nullable_attributes_follows_kleene_logic
    assert_killed(kleene, test_expression.nullable_relation())


def test_m27_cache_key_without_the_registration(monkeypatch):
    """A served source keys its bitmaps by its registration's serial, so a
    query's late ``put`` never lands where the next registration reads."""
    shared = mutant(QueryEngine._serve, "record.serial, ", "")
    monkeypatch.setattr(QueryEngine, "_serve", shared)
    race = test_engine_concurrency.TestRacingDrop()
    assert_killed(race.test_a_late_cache_put_is_not_served_to_the_next_registration, monkeypatch)


def test_m28_register_carries_a_changed_relation(monkeypatch, tmp_path):
    """Registering a name again with a new relation object carries none
    of the old record's entries."""
    carrying = mutant(QueryEngine._write, "old.relation is not record.relation", "False")
    monkeypatch.setattr(QueryEngine, "_write", carrying)
    assert_killed(test_engine_concurrency.check_histories, str(tmp_path), range(3))
    reregistration = test_query.TestReRegistration()
    assert_killed(
        reregistration.test_reregistered_relation_answers_from_its_own_columns, "inline", "dense"
    )


def test_m29_engine_store_serves_any_relation_under_its_name(monkeypatch, engines, tmp_path):
    """An in-memory relation answers from its own columns, not from the
    bitmaps the engine's store holds under its name."""
    by_name = mutant(
        QueryEngine._source_for,
        "source = record.relation.bitmap_source(attribute, spec)",
        "name = record.relation.name\n"
        "        source = (\n"
        "            self.storage.bitmap_source(name, attribute)\n"
        "            if self.storage is not None and self.storage.has(name, attribute)\n"
        "            else record.relation.bitmap_source(attribute, spec)\n"
        "        )",
    )
    monkeypatch.setattr(QueryEngine, "_source_for", by_name)
    views = test_store.TestAViewServesItsOwnImage()
    in_memory = views.test_an_in_memory_relation_under_a_stored_name_reads_its_columns
    assert_killed(in_memory, str(tmp_path / "indexes"), engines, "wah")


def test_m30_view_reads_its_stores_current_image(monkeypatch, tmp_path):
    """A view serves the image it was read from, so a rebuild racing a
    query cannot pair its constants with another image's bitmaps."""
    current = mutant(
        StoreRelation.bitmap_source,
        "StoreBitmapSource(self._image, attribute)",
        "StoreBitmapSource(self.store._file(self.name), attribute)",
    )
    monkeypatch.setattr(StoreRelation, "bitmap_source", current)
    views = test_store.TestAViewServesItsOwnImage()
    racing = views.test_a_build_racing_a_query_leaves_it_on_its_view
    assert_killed(racing, str(tmp_path / "indexes"), monkeypatch)


def test_m31_update_writes_into_the_published_bitmap(monkeypatch, tmp_path):
    """An edit replaces each bitmap it touches in its successor's slots, so
    a query reading the published index meanwhile sees none of it."""
    in_place = mutant(
        encoding._Component.set_row,
        "self._bitmaps[slot] = with_bit(bitmap, rid, want)",
        "bitmap._words.flags.writeable = True; bitmap.set(rid, want)",
    )
    monkeypatch.setattr(encoding._Component, "set_row", in_place)
    assert_killed(test_engine_concurrency.check_histories, str(tmp_path), range(3))
    edits = test_engine_concurrency.TestMaintenanceUnderAQuery()
    assert_killed(edits.test_a_query_during_an_edit_answers_one_state, monkeypatch, "dense")


def test_m32_a_release_evicts_every_attribute_of_the_relation(monkeypatch):
    """A new record evicts only the cached bitmaps of the entries it
    releases, not those of the attributes it carries."""
    by_relation = mutant(
        QueryEngine._write, "self.cache.drop_prefixes(prefixes)", "self.cache.drop_group(name)"
    )
    monkeypatch.setattr(QueryEngine, "_write", by_relation)
    releases = test_maintenance.TestAReleaseEvictsOnlyItsAttribute()
    assert_killed(releases.test_the_other_attributes_stay_cached)


def test_m33_a_view_serves_its_image_whatever_the_spec(monkeypatch, tmp_path):
    """``register`` refuses a store's view a base or an encoding its image
    does not hold, instead of recording the spec and serving the image."""
    monkeypatch.setattr(StoreRelation, "check_spec", Relation.check_spec)
    views = test_store.TestAViewRefusesADesignItDoesNotHold()
    asked = {"base": Base((5, 5)), "encoding": EncodingScheme.EQUALITY}
    assert_killed(views.test_an_unheld_design_is_refused_before_a_record, str(tmp_path), asked)


def test_m34_a_view_is_always_latest(monkeypatch, tmp_path):
    """A view is current only while its image is its store's current one,
    so the engine catches up with a write to the store's files."""
    monkeypatch.setattr(StoreRelation, "latest", lambda self: self)
    follow = test_store.TestNoInvalidateNeeded()
    assert_killed(follow.test_answers_follow_the_store, str(tmp_path), "append", "wah", "count")
