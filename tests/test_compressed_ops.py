"""Tests for compressed-domain WAH algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shaped_vector
from repro.bitmaps.bitvector import BitVector
from repro.bitmaps.compressed import WahBitVector
from repro.errors import CorruptFileError, LengthMismatchError
from repro.workloads.generators import clustered_values


def _pair(nbits: int, seed: int) -> tuple[BitVector, BitVector]:
    rng = np.random.default_rng(seed)
    return (
        BitVector.from_bools(rng.random(nbits) < 0.4),
        BitVector.from_bools(rng.random(nbits) < 0.6),
    )


class TestRawOperations:
    """Stored payloads through the one byte boundary: ``from_payload``,
    the ``WahBitVector`` operator, ``to_payload``."""

    def test_length_mismatch_rejected(self):
        a = WahBitVector.from_bitvector(BitVector.zeros(80))
        with pytest.raises(CorruptFileError):
            WahBitVector.from_payload(a.to_payload(), 88)

    def test_fill_runs_stay_compressed(self):
        nbits = 800_000
        zeros = WahBitVector.from_payload(WahBitVector.zeros(nbits).to_payload(), nbits)
        ones = WahBitVector.from_payload(WahBitVector.ones(nbits).to_payload(), nbits)
        result = (zeros | ones).to_payload()
        # One fill run (plus maybe a padding literal): tiny payload.
        assert len(result) < 32

    def test_operand_corruption_detected(self):
        with pytest.raises(CorruptFileError):
            WahBitVector.from_payload(b"\x00\x01", 800)


class TestWahBitVector:
    def test_round_trip(self):
        a, _ = _pair(500, 4)
        compressed = WahBitVector.from_bitvector(a)
        assert compressed.to_bitvector() == a
        assert compressed.nbits == 500

    def test_algebra_matches_bitvector(self):
        a, b = _pair(800, 5)
        ca = WahBitVector.from_bitvector(a)
        cb = WahBitVector.from_bitvector(b)
        assert (ca & cb).to_bitvector() == (a & b)
        assert (ca | cb).to_bitvector() == (a | b)
        assert (ca ^ cb).to_bitvector() == (a ^ b)
        assert (~ca).to_bitvector() == ~a

    def test_count_and_any(self):
        a, _ = _pair(800, 6)
        ca = WahBitVector.from_bitvector(a)
        assert ca.count() == a.count()
        assert ca.any() == a.any()
        empty = WahBitVector.from_bitvector(BitVector.zeros(800))
        assert not empty.any()

    def test_length_mismatch(self):
        ca = WahBitVector.from_bitvector(BitVector.zeros(10))
        cb = WahBitVector.from_bitvector(BitVector.zeros(11))
        with pytest.raises(LengthMismatchError):
            ca & cb

    def test_type_mismatch(self):
        ca = WahBitVector.from_bitvector(BitVector.zeros(10))
        with pytest.raises(TypeError):
            ca & BitVector.zeros(10)  # type: ignore[operator]

    def test_equality(self):
        a, b = _pair(300, 7)
        assert WahBitVector.from_bitvector(a) == WahBitVector.from_bitvector(a)
        assert WahBitVector.from_bitvector(a) != WahBitVector.from_bitvector(b)
        assert WahBitVector.from_bitvector(a) != "nope"

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(WahBitVector.from_bitvector(BitVector.zeros(8)))

    def test_repr(self):
        ca = WahBitVector.from_bitvector(BitVector.zeros(64))
        assert "compressed bytes" in repr(ca)

    def test_run_structured_ops_stay_small(self):
        values = clustered_values(200_000, 50, run_length=128, seed=1)
        a = WahBitVector.from_bitvector(BitVector.from_bools(values <= 20))
        b = WahBitVector.from_bitvector(BitVector.from_bools(values <= 40))
        result = a & b
        # Nested predicates: the result is as compressible as the inputs.
        assert result.compressed_bytes <= a.compressed_bytes + b.compressed_bytes
        assert result.count() == int((values <= 20).sum())


@settings(max_examples=80, deadline=None)
@given(
    nbits=st.one_of(
        st.integers(1, 600), st.sampled_from([0, 1, 30, 31, 32, 62, 1000, 65_537])
    ),
    shapes=st.tuples(*[st.sampled_from(["literal", "fill"])] * 3),
    seed=st.integers(0, 2**31),
)
def test_compressed_algebra_property(nbits, shapes, seed):
    """Property: every compressed op equals its uncompressed counterpart,
    and whatever chain of ops produced a vector, its payload is byte for
    byte the encoding of its bits (what keeps stored files stable)."""
    a, b, c = (
        shaped_vector(nbits, shape, seed + i) for i, shape in enumerate(shapes)
    )
    ca, cb, cc = (WahBitVector.from_bitvector(v) for v in (a, b, c))
    for got, want in (
        (ca & cb, a & b),
        (ca | cb, a | b),
        (ca ^ cb, a ^ b),
        (~ca, ~a),
        ((ca & ~cb) | (cc ^ ca), (a & ~b) | (c ^ a)),
        (WahBitVector.and_many([ca | cb, cc, ~ca]), (a | b) & c & ~a),
        (WahBitVector.or_many([ca & cb, cc, ~ca]), (a & b) | c | ~a),
        (
            WahBitVector.threshold_many([ca, cb, cc, ca ^ cb], 2),
            BitVector.threshold_many([a, b, c, a ^ b], 2),
        ),
    ):
        assert got.to_bitvector() == want
        assert got.count() == want.count()
        assert got.to_payload() == WahBitVector.from_bitvector(want).to_payload()
        assert got == WahBitVector.from_payload(got.to_payload(), nbits)
    assert ca.count() == a.count()
    assert ca.and_count(cb) == (a & b).count()
    for k in (0, 1, 2, 3, 4):
        want = BitVector.threshold_many([a, b, c], k)
        got = WahBitVector.threshold_many([ca, cb, cc], k)
        assert got.to_payload() == WahBitVector.from_bitvector(want).to_payload()
