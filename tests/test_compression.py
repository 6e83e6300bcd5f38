"""Tests for the bitmap codec registry."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptFileError
from repro.experiments.compression import NullCodec, WahCodec, ZlibCodec, get_codec


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_codec("zlib").name == "zlib"
        assert get_codec("wah").name == "wah"
        assert get_codec("none").name == "none"

    def test_none_maps_to_identity(self):
        codec = get_codec(None)
        assert codec.encode(b"abc") == b"abc"

    def test_instance_passthrough(self):
        codec = ZlibCodec(level=9)
        assert get_codec(codec) is codec

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(KeyError, match="zlib"):
            get_codec("snappy")


class TestZlib:
    def test_round_trip(self):
        codec = ZlibCodec()
        data = b"hello bitmap world " * 100
        assert codec.decode(codec.encode(data)) == data

    def test_compresses_runs(self):
        codec = ZlibCodec()
        data = bytes(100_000)
        assert len(codec.encode(data)) < 1000

    def test_level_validated(self):
        with pytest.raises(ValueError):
            ZlibCodec(level=0)
        with pytest.raises(ValueError):
            ZlibCodec(level=10)

    def test_level_in_name(self):
        assert ZlibCodec(level=9).name == "zlib9"
        assert ZlibCodec(level=6).name == "zlib"

    def test_corrupt_payload_raises(self):
        with pytest.raises(CorruptFileError):
            ZlibCodec().decode(b"not zlib data")


class TestNull:
    def test_identity(self):
        codec = NullCodec()
        assert codec.encode(b"x") == b"x"
        assert codec.decode(b"x") == b"x"


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=2000), codec_name=st.sampled_from(["zlib", "wah", "none"]))
def test_all_codecs_round_trip(data, codec_name):
    codec = get_codec(codec_name)
    assert codec.decode(codec.encode(data)) == data


def test_wah_codec_wraps_module():
    codec = WahCodec()
    data = bytes(5000)
    assert codec.decode(codec.encode(data)) == data
