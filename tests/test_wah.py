"""Unit and property tests for the WAH format, read and written only by
``WahBitVector.from_payload`` / ``WahBitVector.to_payload``."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmaps import BitVector, WahBitVector
from repro.errors import CorruptFileError

ZERO_FILL = 0x80000000  # a fill word with run length 0 (contributes nothing)
ONE_FILL_FLAG = 0xC0000000


def encode(data: bytes) -> bytes:
    """The payload of the bitmap whose ``8 * len(data)`` bits are ``data``."""
    vector = BitVector.from_bytes(data, 8 * len(data))
    return WahBitVector.from_bitvector(vector).to_payload()


def read(blob: bytes, nbytes: int) -> WahBitVector:
    """Read a payload of ``nbytes`` bytes of bits (``8 * nbytes`` bits)."""
    return WahBitVector.from_payload(blob, 8 * nbytes)


def decode(blob: bytes, nbytes: int) -> bytes:
    """The ``nbytes`` bytes of bits a payload holds."""
    return read(blob, nbytes).to_bitvector().to_bytes()


def _payload(orig_len: int, words: list[int]) -> bytes:
    """Hand-assemble a WAH payload from a header length and raw words."""
    return struct.pack("<Q", orig_len) + np.array(words, dtype="<u4").tobytes()


def _with_zero_fills(encoded: bytes, positions: list[int]) -> bytes:
    """Insert zero-run fill words into an encoded payload's body."""
    words = list(np.frombuffer(encoded[8:], dtype="<u4"))
    for pos in sorted(positions, reverse=True):
        words.insert(pos % (len(words) + 1), ZERO_FILL)
    return encoded[:8] + np.array(words, dtype="<u4").tobytes()


class TestRoundTrip:
    def test_empty(self):
        assert decode(encode(b""), 0) == b""

    def test_all_zero_compresses_to_one_fill_word(self):
        data = bytes(10_000)
        encoded = encode(data)
        assert read(encoded, len(data)).num_words == 1
        assert decode(encoded, len(data)) == data

    def test_all_one_compresses_to_one_fill_word(self):
        # 31 bytes = 248 bits = 8 groups of 31 bits: no zero padding, so the
        # whole input is one all-ones fill run.
        data = b"\xff" * (31 * 100)
        encoded = encode(data)
        assert read(encoded, len(data)).num_words == 1
        assert decode(encoded, len(data)) == data

    def test_all_one_with_padding_tail(self):
        # A non-31-bit-aligned all-ones input ends in a literal group
        # (zero-padded), so exactly two words.
        data = b"\xff" * 10_000
        encoded = encode(data)
        assert read(encoded, len(data)).num_words == 2
        assert decode(encoded, len(data)) == data

    def test_random_data_round_trips(self, rng):
        data = rng.integers(0, 256, 5000, dtype=np.uint8).tobytes()
        assert decode(encode(data), len(data)) == data

    def test_runs_compress_well(self, rng):
        # 0-runs and 1-runs of ~1000 bytes each.
        chunks = []
        for i in range(20):
            chunks.append((b"\x00" if i % 2 else b"\xff") * 1000)
        data = b"".join(chunks)
        encoded = encode(data)
        assert len(encoded) < len(data) // 50
        assert decode(encoded, len(data)) == data

    def test_single_byte(self):
        for byte in (b"\x00", b"\x01", b"\xff", b"\xa5"):
            assert decode(encode(byte), 1) == byte

    def test_mixed_literal_and_fill(self):
        data = bytes(100) + b"\x37" * 7 + b"\xff" * 100 + b"\x01"
        assert decode(encode(data), len(data)) == data

    def test_incompressible_data_overhead_is_bounded(self, rng):
        data = rng.integers(0, 256, 31 * 128, dtype=np.uint8).tobytes()
        encoded = encode(data)
        # Worst case: one 32-bit word per 31 input bits plus the header.
        assert len(encoded) <= len(data) * 32 // 31 + 16

    def test_a_fill_too_long_for_one_word_spans_several(self):
        # 2^31 + 8 groups (66 Gbit): nothing here is ever sized by bits.
        max_run = (1 << 30) - 1
        nbits = 31 * (2 * max_run + 10)
        zeros, ones = WahBitVector.zeros(nbits), WahBitVector.ones(nbits)
        assert zeros.to_payload() == _payload(
            nbits // 8, [ZERO_FILL | max_run] * 2 + [ZERO_FILL | 10]
        )
        assert ones.to_payload() == _payload(
            nbits // 8, [ONE_FILL_FLAG | max_run] * 2 + [ONE_FILL_FLAG | 10]
        )
        assert WahBitVector.from_payload(ones.to_payload(), nbits).count() == nbits
        assert zeros.count() == 0
        assert (ones & zeros) == zeros and ~zeros == ones


class TestCorruption:
    def test_short_payload_raises(self):
        with pytest.raises(CorruptFileError):
            read(b"\x01\x02", 0)

    def test_unaligned_body_raises(self):
        encoded = encode(b"\x12\x34")
        with pytest.raises(CorruptFileError):
            read(encoded + b"\x00", 2)

    def test_truncated_body_raises(self):
        encoded = encode(bytes(1000))
        with pytest.raises(CorruptFileError):
            read(encoded[:-4], 1000)

    def test_declared_length_beyond_bits_raises(self):
        encoded = bytearray(encode(b"\x00"))
        encoded[0] = 0xFF  # inflate the declared original length
        with pytest.raises(CorruptFileError, match="fewer bits than declared"):
            read(bytes(encoded), 0xFF)


class TestZeroRunFillAgreement:
    """Regression: every consumer must agree on zero-run fill words.

    A zero-length fill (``0x80000000``) contributes no groups.  The
    decoder always skipped it, but the streaming run reader used to treat
    it as end-of-stream — so AND/OR raised a spurious CorruptFileError and
    popcount silently returned a short count on payloads the decoder
    considered valid.
    """

    # 31 bytes = 248 bits = exactly 8 groups of ones, so the canonical
    # encoding is a single one-fill word; the noisy variants interleave
    # zero-run fills that change nothing.
    DATA = b"\xff" * 31

    def noisy(self) -> bytes:
        return _payload(31, [ZERO_FILL, ONE_FILL_FLAG | 8])

    def test_decoder_skips_zero_run_fill(self):
        assert decode(self.noisy(), 31) == self.DATA

    def test_popcount_counts_past_zero_run_fill(self):
        assert read(self.noisy(), 31).count() == 248

    def test_binary_ops_accept_zero_run_fill(self):
        noisy, clean = read(self.noisy(), 31), read(encode(self.DATA), 31)
        assert (noisy & clean).to_bitvector().to_bytes() == self.DATA
        assert (noisy | clean).to_bitvector().to_bytes() == self.DATA

    def test_zero_run_one_fill_also_skipped(self):
        payload = _payload(31, [ONE_FILL_FLAG | 4, ONE_FILL_FLAG, ONE_FILL_FLAG | 4])
        assert decode(payload, 31) == self.DATA
        assert read(payload, 31).count() == 248

    def test_interleaved_zero_fills_everywhere(self, rng):
        data = rng.integers(0, 256, 500, dtype=np.uint8).tobytes()
        encoded = encode(data)
        positions = [int(p) for p in rng.integers(0, 64, size=6)]
        noisy = read(_with_zero_fills(encoded, positions), len(data))
        assert noisy.to_bitvector().to_bytes() == data
        assert noisy.count() == read(encoded, len(data)).count()
        assert (noisy & read(encoded, len(data))).to_bitvector().to_bytes() == data


class TestOverlongPayload:
    """Regression: a body with surplus whole groups must be rejected.

    The decoder used to silently drop groups beyond the declared
    ``orig_len`` — mirroring the existing "fewer bits than declared"
    check, surplus groups now raise CorruptFileError too.
    """

    def test_surplus_fill_groups_raise(self):
        # Header says 4 bytes (2 groups); the body is a 5-group fill.
        with pytest.raises(CorruptFileError):
            read(_payload(4, [ZERO_FILL | 5]), 4)

    def test_surplus_literal_word_raises(self):
        encoded = encode(b"\xa5" * 4)
        extra = encoded + np.array([0x12345], dtype="<u4").tobytes()
        with pytest.raises(CorruptFileError):
            read(extra, 4)

    def test_exact_group_count_still_decodes(self):
        data = b"\xa5" * 4
        assert decode(encode(data), 4) == data


@settings(max_examples=80, deadline=None)
@given(data=st.binary(max_size=4000))
def test_round_trip_property(data):
    assert decode(encode(data), len(data)) == data


@settings(max_examples=60, deadline=None)
@given(data=st.binary(min_size=1, max_size=2000), extra=st.integers(1, 40))
def test_fuzz_overlong_body_raises(data, extra):
    """Appending surplus fill groups to any valid payload must raise."""
    encoded = encode(data)
    surplus = np.array([ZERO_FILL | extra], dtype="<u4").tobytes()
    with pytest.raises(CorruptFileError):
        read(encoded + surplus, len(data))


@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=2000), inflate=st.integers(4, 64))
def test_fuzz_short_body_raises(data, inflate):
    """Inflating the declared length past the body's groups must raise."""
    encoded = encode(data)
    stretched = struct.pack("<Q", len(data) + inflate) + encoded[8:]
    with pytest.raises(CorruptFileError):
        read(stretched, len(data) + inflate)


@settings(max_examples=60, deadline=None)
@given(
    data=st.binary(min_size=1, max_size=2000),
    positions=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=8),
)
def test_fuzz_zero_run_fills_are_transparent(data, positions):
    """Zero-run fills anywhere in the body change nothing, on every path."""
    encoded = read(encode(data), len(data))
    noisy = read(_with_zero_fills(encode(data), positions), len(data))
    assert noisy.to_bitvector().to_bytes() == data
    assert noisy.count() == encoded.count()
    assert (noisy | encoded).to_bitvector().to_bytes() == data
    assert noisy.to_payload() == encoded.to_payload()


@settings(max_examples=30, deadline=None)
@given(
    run_lengths=st.lists(
        st.tuples(st.sampled_from([0, 255]), st.integers(1, 400)),
        min_size=1,
        max_size=20,
    )
)
def test_run_structured_round_trip(run_lengths):
    data = b"".join(bytes([value]) * count for value, count in run_lengths)
    assert decode(encode(data), len(data)) == data
