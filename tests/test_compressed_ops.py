"""Tests for compressed-domain WAH algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shaped_vector
from repro.bitmaps.bitvector import BitVector
from repro.bitmaps.compressed import WahBitVector
from repro.bitmaps.wah import (
    wah_and,
    wah_and_many,
    wah_and_popcount,
    wah_encode,
    wah_not,
    wah_or,
    wah_or_many,
    wah_popcount,
    wah_threshold_many,
    wah_xor,
)
from repro.errors import CorruptFileError, LengthMismatchError
from repro.workloads.generators import clustered_values


def _pair(nbits: int, seed: int) -> tuple[BitVector, BitVector]:
    rng = np.random.default_rng(seed)
    return (
        BitVector.from_bools(rng.random(nbits) < 0.4),
        BitVector.from_bools(rng.random(nbits) < 0.6),
    )


class TestRawOperations:
    def test_and_or_xor_match_uncompressed(self):
        from repro.bitmaps.wah import wah_decode

        a, b = _pair(1000, 1)
        ca, cb = wah_encode(a.to_bytes()), wah_encode(b.to_bytes())
        for compressed_op, plain in (
            (wah_and, a & b),
            (wah_or, a | b),
            (wah_xor, a ^ b),
        ):
            got = BitVector.from_bytes(wah_decode(compressed_op(ca, cb)), 1000)
            assert got == plain

    def test_popcount(self):
        a, _ = _pair(997, 2)
        assert wah_popcount(wah_encode(a.to_bytes())) == a.count()

    def test_not_respects_bit_length(self):
        a, _ = _pair(997, 3)
        inverted = wah_not(wah_encode(a.to_bytes()), nbits=997)
        assert wah_popcount(inverted) == 997 - a.count()

    def test_length_mismatch_rejected(self):
        a = wah_encode(bytes(10))
        b = wah_encode(bytes(11))
        with pytest.raises(CorruptFileError):
            wah_and(a, b)

    def test_fill_runs_stay_compressed(self):
        zeros = wah_encode(bytes(100_000))
        ones = wah_encode(b"\xff" * 100_000)
        result = wah_or(zeros, ones)
        # One fill run (plus maybe a padding literal): tiny payload.
        assert len(result) < 32

    def test_operand_corruption_detected(self):
        a = wah_encode(bytes(100))
        with pytest.raises(CorruptFileError):
            wah_and(a, b"\x00\x01")


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
        assert got.to_payload() == wah_encode(want.to_bytes())
        assert got == WahBitVector.from_payload(got.to_payload(), nbits)
    assert ca.count() == a.count()
    assert ca.and_count(cb) == (a & b).count()
    # The byte-level functions are the same kernels behind a parse/encode.
    pa, pb, pc = (v.to_payload() for v in (ca, cb, cc))
    assert wah_and(pa, pb) == (ca & cb).to_payload()
    assert wah_or(pa, pb) == (ca | cb).to_payload()
    assert wah_xor(pa, pb) == (ca ^ cb).to_payload()
    assert wah_not(pa, nbits) == (~ca).to_payload()
    assert wah_popcount(pa) == a.count()
    assert wah_and_popcount(pa, pc) == (a & c).count()
    many = [ca, cb, cc]
    assert wah_and_many([pa, pb, pc]) == WahBitVector.and_many(many).to_payload()
    assert wah_or_many([pa, pb, pc]) == WahBitVector.or_many(many).to_payload()
    for k in (0, 1, 2, 3, 4):
        want = wah_encode(BitVector.threshold_many([a, b, c], k).to_bytes())
        if k == 0:  # over the byte length: the raw function knows no nbits
            want = wah_encode(b"\xff" * ((nbits + 7) // 8))
        assert wah_threshold_many([pa, pb, pc], k) == want
