"""Unit, property, and fuzz tests for the Roaring container codec.

Three layers, mirroring the WAH suite in ``test_wah.py``:

- container mechanics — adaptive kind selection, the 4096-element
  array<->bitmap flip, run coalescing, and the smallest-representation
  invariant after every operation;
- algebra laws — hypothesis-driven AND/OR/XOR/ANDNOT/NOT against dense
  :class:`BitVector` oracles, including commutativity and De Morgan;
- the stored form — ``to_payload`` / ``from_payload`` round trips plus
  hand-assembled and fuzzed corrupt payloads that must all raise
  :class:`CorruptFileError` (a corrupt stored bitmap must never decode
  to a silently wrong answer).
"""

from __future__ import annotations

import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmaps import roaring
from repro.bitmaps.bitvector import BitVector
from repro.bitmaps.compressed import WahBitVector
from repro.bitmaps.roaring import (
    ARRAY,
    ARRAY_MAX,
    BITMAP,
    BITMAP_NBYTES,
    CHUNK_SIZE,
    RUN,
    RoaringBitmap,
)
from repro.engine.cache import SharedBitmapCache
from repro.errors import CorruptFileError, LengthMismatchError

_HEADER = struct.Struct("<4sBBQI6s")


def _payload(nbits: int, containers: list[tuple[int, int, int, bytes]]) -> bytes:
    """Hand-assemble a roaring payload from (key, kind, count, body) tuples:
    the header, every key, kind and count, then the bodies of the bitmap,
    the array and the run containers (any other kind's last), each part
    padded to 8 bytes."""
    keys, kinds, counts, bodies = zip(*containers) if containers else ((), (), (), ())
    directory = b"".join(
        np.array(field, dtype=stored).tobytes()
        for field, stored in ((keys, "<u2"), (kinds, "u1"), (counts, "<u4"))
    )
    pools = b"".join(
        body
        for rank in (BITMAP, ARRAY, RUN, 3)
        for kind, body in zip(kinds, bodies)
        if kind == rank
    )
    head = _HEADER.pack(b"ROAR", 2, 0, nbits, len(containers), b"") + directory
    return b"".join(part + bytes(-len(part) % 8) for part in (head, pools))


def _array_body(values: list[int]) -> bytes:
    return np.array(values, dtype="<u2").tobytes()


def _run_body(runs: list[tuple[int, int]]) -> bytes:
    """Run body from (start, length) pairs; lengths stored minus one."""
    pairs = np.array([(s, length - 1) for s, length in runs], dtype="<u2")
    return pairs.tobytes()


def _bitmap_body(indices: list[int]) -> tuple[int, bytes]:
    words = np.zeros(BITMAP_NBYTES // 8, dtype=np.uint64)
    for i in indices:
        words[i >> 6] |= np.uint64(1) << np.uint64(i & 63)
    return len(indices), words.astype("<u8").tobytes()


def _kinds(bitmap: RoaringBitmap) -> list[str]:
    return [kind for _, kind in bitmap.container_kinds()]


# ----------------------------------------------------------------------
# Hypothesis strategies: one per container regime, plus the boundaries.
# ----------------------------------------------------------------------

#: Sparse scatter -> array containers.
sparse_chunks = st.lists(
    st.integers(0, 3 * CHUNK_SIZE - 1), max_size=200, unique=True
)

# Bitmap-container populations need > ARRAY_MAX unique elements, which is
# too much entropy to draw element-by-element; a seed + surplus count keeps
# hypothesis shrinking useful while numpy does the bulk sampling.
dense_chunk = st.tuples(st.integers(0, 2**16), st.integers(1, 600))

#: Run-structured data -> run containers.
run_lists = st.lists(
    st.tuples(st.integers(0, 120_000), st.integers(1, 4_000)),
    min_size=1,
    max_size=12,
)


def _runs_to_bools(nbits: int, runs: list[tuple[int, int]]) -> np.ndarray:
    bools = np.zeros(nbits, dtype=bool)
    for start, length in runs:
        bools[start : min(nbits, start + length)] = True
    return bools


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize(
        "nbits", [0, 1, 63, 64, 65, 4096, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1]
    )
    def test_zeros_and_ones(self, nbits):
        for bitmap in (RoaringBitmap.zeros(nbits), RoaringBitmap.ones(nbits)):
            back = RoaringBitmap.from_payload(bitmap.to_payload(), bitmap.nbits)
            assert back == bitmap
            assert back.nbits == nbits

    def test_indices_round_trip(self, rng):
        nbits = 200_000
        indices = np.unique(rng.integers(0, nbits, 500))
        bitmap = RoaringBitmap.from_indices(nbits, indices)
        assert np.array_equal(bitmap.indices(), indices)
        assert bitmap.count() == len(indices)
        assert RoaringBitmap.from_payload(bitmap.to_payload(), bitmap.nbits) == bitmap

    def test_bitvector_round_trip(self, rng):
        bools = rng.random(150_000) < 0.3
        vector = BitVector.from_bools(bools)
        bitmap = RoaringBitmap.from_bitvector(vector)
        assert bitmap.to_bitvector() == vector
        assert np.array_equal(bitmap.to_bools(), bools)

    def test_read_arrays_are_views_of_the_payload(self):
        bitmap = _mixed_bitmap(np.random.default_rng(0))
        buf = np.frombuffer(bitmap.to_payload(), dtype=np.uint8)
        held = RoaringBitmap.from_payload(buf, bitmap.nbits)._containers
        assert _kinds(bitmap) == ["array", "bitmap", "run"]
        for name in ("keys", "kinds", "array", "runs", "words"):
            assert np.shares_memory(buf, getattr(held, name)), name

    def test_empty_serializes_to_header_only(self):
        assert len(RoaringBitmap.zeros(1000).to_payload()) == _HEADER.size

    @settings(max_examples=80, deadline=None)
    @given(indices=sparse_chunks)
    def test_sparse_property(self, indices):
        nbits = 3 * CHUNK_SIZE
        bitmap = RoaringBitmap.from_indices(nbits, indices)
        assert np.array_equal(bitmap.indices(), np.array(sorted(indices), dtype=np.int64))
        assert RoaringBitmap.from_payload(bitmap.to_payload(), bitmap.nbits) == bitmap

    @settings(max_examples=40, deadline=None)
    @given(params=dense_chunk)
    def test_dense_property(self, params):
        seed, extra = params
        rng = np.random.default_rng(seed)
        indices = rng.choice(CHUNK_SIZE, size=ARRAY_MAX + extra, replace=False)
        bitmap = RoaringBitmap.from_indices(CHUNK_SIZE, indices)
        assert bitmap.count() == ARRAY_MAX + extra
        assert RoaringBitmap.from_payload(bitmap.to_payload(), bitmap.nbits) == bitmap

    @settings(max_examples=40, deadline=None)
    @given(runs=run_lists)
    def test_run_property(self, runs):
        nbits = 130_000
        bools = _runs_to_bools(nbits, runs)
        bitmap = RoaringBitmap.from_bools(bools)
        assert np.array_equal(bitmap.to_bools(), bools)
        assert RoaringBitmap.from_payload(bitmap.to_payload(), bitmap.nbits) == bitmap


# ----------------------------------------------------------------------
# Container selection and transitions
# ----------------------------------------------------------------------


class TestContainerSelection:
    def test_sparse_scatter_is_array(self):
        bitmap = RoaringBitmap.from_indices(CHUNK_SIZE, range(0, 2000, 2))
        assert _kinds(bitmap) == ["array"]

    def test_array_max_scatter_stays_array(self):
        # ARRAY_MAX scattered elements (stride 2 prevents a run win).
        bitmap = RoaringBitmap.from_indices(CHUNK_SIZE, range(0, 2 * ARRAY_MAX, 2))
        assert bitmap.count() == ARRAY_MAX
        assert _kinds(bitmap) == ["array"]

    def test_one_past_array_max_flips_to_bitmap(self):
        bitmap = RoaringBitmap.from_indices(
            CHUNK_SIZE, range(0, 2 * (ARRAY_MAX + 1), 2)
        )
        assert bitmap.count() == ARRAY_MAX + 1
        assert _kinds(bitmap) == ["bitmap"]

    def test_removal_at_boundary_flips_back_to_array(self):
        over = RoaringBitmap.from_indices(CHUNK_SIZE, range(0, 2 * (ARRAY_MAX + 1), 2))
        one = RoaringBitmap.from_indices(CHUNK_SIZE, [2 * ARRAY_MAX])
        under = over.andnot(one)
        assert under.count() == ARRAY_MAX
        assert _kinds(under) == ["array"]

    def test_full_chunk_is_one_run(self):
        bitmap = RoaringBitmap.ones(CHUNK_SIZE)
        assert _kinds(bitmap) == ["run"]
        assert bitmap.nbytes < 64

    def test_half_dense_scatter_is_bitmap(self, rng):
        bools = rng.random(CHUNK_SIZE) < 0.5
        bitmap = RoaringBitmap.from_bools(bools)
        assert _kinds(bitmap) == ["bitmap"]

    def test_adjacent_runs_coalesce(self):
        # Two abutting intervals OR together into one run, not two.
        a = RoaringBitmap.from_indices(CHUNK_SIZE, range(0, 500))
        b = RoaringBitmap.from_indices(CHUNK_SIZE, range(500, 7000))
        merged = a | b
        assert _kinds(merged) == ["run"]
        assert merged.count() == 7000
        blob = merged.to_payload()
        # One run container with exactly one (start, length) pair.
        assert blob == _payload(CHUNK_SIZE, [(0, RUN, 1, _run_body([(0, 7000)]))])

    def test_run_count_decides_against_arrays(self):
        # 3000 runs of 2 bits: 6000 elements fit an array (12000 bytes
        # dense-coded... no: 2*6000 = 12000 > 8192 bitmap, and 4*3000 =
        # 12000 runs) -> bitmap wins the three-way size race.
        indices = [i for start in range(0, 12_000, 4) for i in (start, start + 1)]
        bitmap = RoaringBitmap.from_indices(CHUNK_SIZE, indices)
        assert bitmap.count() == 6000
        assert _kinds(bitmap) == ["bitmap"]

    def test_ops_reseal_to_smallest_kind(self, rng):
        # AND of two ~50% bitmaps is ~25% of a chunk: still a bitmap; but
        # AND with a sparse array must come back as an array.
        dense = RoaringBitmap.from_bools(rng.random(CHUNK_SIZE) < 0.5)
        sparse = RoaringBitmap.from_indices(CHUNK_SIZE, range(0, 1000, 3))
        out = dense & sparse
        assert _kinds(out) in (["array"], [])

    def test_invert_of_sparse_is_runs(self):
        sparse = RoaringBitmap.from_indices(CHUNK_SIZE, [5, 900, 40_000])
        flipped = ~sparse
        assert _kinds(flipped) == ["run"]
        assert flipped.count() == CHUNK_SIZE - 3


# ----------------------------------------------------------------------
# Algebra laws against the dense oracle
# ----------------------------------------------------------------------

pairs = st.tuples(
    st.lists(st.integers(0, 150_000 - 1), max_size=300, unique=True),
    st.lists(st.integers(0, 150_000 - 1), max_size=300, unique=True),
)


class TestAlgebra:
    NBITS = 150_000

    def _pair(self, xs, ys):
        a = RoaringBitmap.from_indices(self.NBITS, xs)
        b = RoaringBitmap.from_indices(self.NBITS, ys)
        da = BitVector.from_indices(self.NBITS, xs)
        db = BitVector.from_indices(self.NBITS, ys)
        return a, b, da, db

    @settings(max_examples=60, deadline=None)
    @given(data=pairs)
    def test_binary_ops_match_oracle(self, data):
        xs, ys = data
        a, b, da, db = self._pair(xs, ys)
        assert (a & b).to_bitvector() == (da & db)
        assert (a | b).to_bitvector() == (da | db)
        assert (a ^ b).to_bitvector() == (da ^ db)
        assert a.andnot(b).to_bitvector() == da.andnot(db)

    @settings(max_examples=60, deadline=None)
    @given(data=pairs)
    def test_commutativity_and_de_morgan(self, data):
        xs, ys = data
        a, b, _, _ = self._pair(xs, ys)
        assert (a & b) == (b & a)
        assert (a | b) == (b | a)
        # De Morgan through ANDNOT: a \ b == a & ~b == ~(~a | b) & ... the
        # usable identity here: ~(a | b) == (~a).andnot(b).
        assert (~(a | b)) == (~a).andnot(b)
        assert (~(a & b)) == (~a) | (~b)

    @settings(max_examples=40, deadline=None)
    @given(xs=st.lists(st.integers(0, 150_000 - 1), max_size=300, unique=True))
    def test_invert_involution_and_count(self, xs):
        a = RoaringBitmap.from_indices(self.NBITS, xs)
        assert ~~a == a
        assert a.count() == len(xs)
        assert (~a).count() == self.NBITS - len(xs)

    def test_ops_on_clustered_data(self, rng):
        # Run-container heavy inputs exercise the run/run and run/other
        # op paths rather than the array fast paths.
        bools_a = _runs_to_bools(self.NBITS, [(0, 30_000), (70_000, 50_000)])
        bools_b = _runs_to_bools(self.NBITS, [(20_000, 60_000)])
        a, b = RoaringBitmap.from_bools(bools_a), RoaringBitmap.from_bools(bools_b)
        assert np.array_equal((a & b).to_bools(), bools_a & bools_b)
        assert np.array_equal((a | b).to_bools(), bools_a | bools_b)
        assert np.array_equal((a ^ b).to_bools(), bools_a ^ bools_b)
        assert np.array_equal(a.andnot(b).to_bools(), bools_a & ~bools_b)

    def test_kway_match_pairwise_fold(self, rng):
        vectors = [
            RoaringBitmap.from_bools(rng.random(self.NBITS) < d)
            for d in (0.001, 0.01, 0.2, 0.6)
        ]
        acc_or, acc_and = vectors[0], vectors[0]
        for v in vectors[1:]:
            acc_or = acc_or | v
            acc_and = acc_and & v
        assert RoaringBitmap.or_many(vectors) == acc_or
        assert RoaringBitmap.and_many(vectors) == acc_and

    @staticmethod
    def _chunk(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
        """``size`` bits that a chunk of exactly that container kind holds."""
        if kind == "array":
            return rng.random(size) < 0.02
        if kind == "bitmap":
            return rng.random(size) < 0.4
        if kind == "run":
            return np.arange(size) // 700 % 2 == rng.integers(2)
        return np.full(size, kind == "full")  # "none": nothing held

    def _operand(self, kinds: list[str], seed: int, tail: int = 0):
        """A bitmap with one chunk per entry of ``kinds`` (the last one cut
        to ``tail`` rows if given), and its dense oracle."""
        rng = np.random.default_rng(seed)
        sizes = [CHUNK_SIZE] * (len(kinds) - 1) + [tail or CHUNK_SIZE]
        bools = np.concatenate([self._chunk(k, n, rng) for k, n in zip(kinds, sizes)])
        bitmap = RoaringBitmap.from_bools(bools)
        want = [
            (key, "run" if kind == "full" else kind)
            for key, kind in enumerate(kinds)
            if kind != "none"
        ]
        assert bitmap.container_kinds() == want
        return bitmap, BitVector.from_bools(bools)

    @staticmethod
    def _every_op(a, b, c, x, y, z):
        """Every operator over ``a, b, c`` against the oracles ``x, y, z``,
        each result sealed as if built fresh: same kinds, same bytes."""
        cases = {
            "and": (a & b, x & y),
            "or": (a | b, x | y),
            "xor": (a ^ b, x ^ y),
            "andnot": (a.andnot(b), x.andnot(y)),
            "andnot'": (b.andnot(a), y.andnot(x)),
            "not": (~a, ~x),
            "not'": (~b, ~y),
            "and_many": (RoaringBitmap.and_many([a, b, c]), x & y & z),
            "or_many": (RoaringBitmap.or_many([a, b, c]), x | y | z),
            **{
                f"threshold {k}": (
                    RoaringBitmap.threshold_many([a, b, c], k),
                    BitVector.threshold_many([x, y, z], k),
                )
                for k in range(5)
            },
        }
        for name, (got, want) in cases.items():
            assert got.to_bitvector() == want, name
            assert got.count() == want.count(), name
            assert np.array_equal(got.indices(), want.indices()), name
            assert got.to_payload() == RoaringBitmap.from_bitvector(want).to_payload(), name
            assert got.nbytes == len(got.to_payload()), name
        assert a.and_count(b) == (x & y).count()
        assert b.and_count(c) == (y & z).count()

    def test_every_kind_pair_in_every_op(self):
        # Chunk by chunk: all 3 x 3 pairs of container kinds, a chunk only
        # one side holds (each way round), a full chunk against each kind,
        # and a partial last chunk.
        kinds_a = ["array"] * 3 + ["bitmap"] * 3 + ["run"] * 3
        kinds_b = ["array", "bitmap", "run"] * 3
        kinds_a += ["none", "array", "full", "full", "full", "none", "bitmap"]
        kinds_b += ["run", "none", "array", "bitmap", "run", "none", "array"]
        kinds_c = kinds_b[1:] + kinds_b[:1]
        a, x = self._operand(kinds_a, 1, tail=40_000)
        b, y = self._operand(kinds_b, 2, tail=40_000)
        c, z = self._operand(kinds_c, 3, tail=40_000)
        self._every_op(a, b, c, x, y, z)
        # The same over kernel results, which hold loose bitmap containers:
        # of any cardinality, empty ones included, not yet sealed.
        loose = [(a ^ b, x ^ y), (b | c, y | z), (~c, ~z), (a.andnot(c), x.andnot(z))]
        assert all(got._containers.loose for got, _ in loose)
        self._every_op(*(got for got, _ in loose[:3]), *(want for _, want in loose[:3]))
        self._every_op(*(got for got, _ in loose[1:]), *(want for _, want in loose[1:]))
        # A result with nothing in it, its rows all empty until it seals.
        empty = a & ~a
        assert empty._containers.loose and len(empty._containers.keys)
        assert empty.count() == 0
        assert empty.indices().dtype == np.int64 and len(empty.indices()) == 0
        assert not empty.any()
        assert empty.num_containers == 0
        assert empty.to_payload() == RoaringBitmap.zeros(a.nbits).to_payload()

    @pytest.mark.parametrize(
        "ask",
        [lambda r: r.to_payload(), lambda r: r.nbytes, lambda r: r.container_kinds()],
        ids=["to_payload", "nbytes", "container_kinds"],
    )
    def test_a_result_seals_once_and_only_when_its_bytes_are_asked_for(
        self, ask, monkeypatch
    ):
        """The mechanism: a chain of operators over bitmap-heavy operands
        keeps word rows and picks no container kind; the first call that
        needs the bytes seals the result, once."""
        a, x = self._operand(["bitmap", "bitmap", "array", "bitmap", "run"], 4)
        b, y = self._operand(["bitmap", "array", "bitmap", "bitmap", "none"], 5)
        c, z = self._operand(["none", "bitmap", "bitmap", "run", "bitmap"], 6)
        wants = [(x & y) | z, BitVector.threshold_many([x, y, z], 2)]
        blobs = [RoaringBitmap.from_bitvector(want).to_payload() for want in wants]
        sealed = []
        seal = roaring._Rows.seal

        def counted(rows):
            sealed.append(len(rows.keys))
            return seal(rows)

        monkeypatch.setattr(roaring._Rows, "seal", counted)
        results = [(a & b) | c, RoaringBitmap.threshold_many([a, b, c], 2)]
        for got, want, blob in zip(results, wants, blobs):
            assert got.count() == want.count()
            assert np.array_equal(got.indices(), want.indices())
            assert got.to_bitvector() == want
            assert sealed == []
            ask(got)
            assert len(sealed) == 1
            assert got.to_payload() == blob
            assert got.nbytes == len(blob)
            read = RoaringBitmap.from_payload(blob, got.nbits)
            assert got.container_kinds() == read.container_kinds()
            assert len(sealed) == 1
            sealed.clear()

    def test_concurrent_readers_of_a_loose_result_agree(self):
        a, x = self._operand(["bitmap", "array", "bitmap", "run"] * 2, 7)
        b, y = self._operand(["bitmap", "bitmap", "none", "bitmap"] * 2, 8)
        shared = RoaringBitmap.threshold_many([a, b, a ^ b], 2)
        assert shared._containers.loose
        want = RoaringBitmap.from_bitvector(BitVector.threshold_many([x, y, x ^ y], 2))
        start = threading.Barrier(8)

        def read(turn: int):
            start.wait()
            views = [
                lambda: shared.nbytes,
                lambda: shared.to_payload(),
                lambda: shared.container_kinds(),
            ]
            seen = {}
            for i in range(3):  # each thread asks in its own order
                view = (turn + i) % 3
                seen[view] = views[view]()
            return seen[0], seen[1], seen[2]

        with ThreadPoolExecutor(max_workers=8) as pool:
            seen = list(pool.map(read, range(8)))
        assert all(each == seen[0] for each in seen)
        nbytes, blob, kinds = seen[0]
        assert nbytes == len(blob)
        assert blob == want.to_payload()
        assert kinds == want.container_kinds()

    def test_no_python_loop_over_chunks(self):
        """The mechanism: an operator makes as many calls from
        ``roaring.py`` over 64-chunk operands as over 8-chunk operands of
        the same kind mix (a 4-chunk mix, twice and 16 times over, so that
        the chunks of the routes interleave in both) — nothing in it
        iterates per chunk."""

        def calls(fn) -> int:
            made = 0

            def profile(frame, event, arg):
                nonlocal made
                here = frame.f_code.co_filename.endswith("bitmaps/roaring.py")
                made += here and event in ("call", "c_call")

            sys.setprofile(profile)
            try:
                fn()
            finally:
                sys.setprofile(None)
            return made

        def operands(repeat: int):
            return [
                self._operand(kinds * repeat, seed)[0]
                for seed, kinds in enumerate(
                    (
                        ["array", "bitmap", "run", "none"],
                        ["bitmap", "run", "array", "array"],
                        ["run", "none", "bitmap", "array"],
                    )
                )
            ]

        kernels = {
            "and": lambda a, b, c: a & b,
            "or": lambda a, b, c: a | b,
            "not": lambda a, b, c: ~a,
            "threshold": lambda a, b, c: RoaringBitmap.threshold_many([a, b, c], 2),
            "indices": lambda a, b, c: a.indices(),
            "to_payload": lambda a, b, c: a.to_payload(),
            "from_payload": lambda a, b, c: RoaringBitmap.from_payload(a.to_payload(), a.nbits),
        }
        few, many = operands(2), operands(16)
        assert many[0].num_containers == 8 * few[0].num_containers == 48
        for name, kernel in kernels.items():
            assert calls(lambda: kernel(*many)) == calls(lambda: kernel(*few)) > 0, name

    def test_length_mismatch_rejected(self):
        a = RoaringBitmap.zeros(100)
        b = RoaringBitmap.zeros(101)
        with pytest.raises(LengthMismatchError):
            a & b

    def test_foreign_type_rejected(self):
        a = RoaringBitmap.zeros(100)
        with pytest.raises(TypeError):
            a & BitVector.zeros(100)


# ----------------------------------------------------------------------
# Corrupt payloads
# ----------------------------------------------------------------------


class TestCorruption:
    def test_short_header(self):
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(b"ROAR\x01", 100)

    def test_bad_magic(self):
        blob = RoaringBitmap.ones(100).to_payload()
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(b"WAHX" + blob[4:], 100)

    def test_bad_version(self):
        blob = bytearray(RoaringBitmap.ones(100).to_payload())
        blob[4] = 99
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(bytes(blob), 100)

    def test_too_many_containers_declared(self):
        # 100 bits = 1 chunk, but the header declares 2 containers.
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(
                _payload(100, [(0, ARRAY, 1, _array_body([0]))] * 2), 100
            )

    def test_truncated_container_header(self):
        blob = _payload(100, [(0, ARRAY, 1, _array_body([0]))])
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(blob[: _HEADER.size + 3], 100)

    def test_empty_container_rejected(self):
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(_payload(100, [(0, ARRAY, 0, b"")]), 100)

    def test_non_increasing_keys(self):
        containers = [
            (1, ARRAY, 1, _array_body([0])),
            (0, ARRAY, 1, _array_body([0])),
        ]
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(_payload(3 * CHUNK_SIZE, containers), 3 * CHUNK_SIZE)

    def test_key_out_of_range(self):
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(_payload(100, [(4, ARRAY, 1, _array_body([0]))]), 100)

    def test_unsorted_array(self):
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(
                _payload(100, [(0, ARRAY, 2, _array_body([5, 3]))]), 100
            )

    def test_duplicate_array_values(self):
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(
                _payload(100, [(0, ARRAY, 2, _array_body([5, 5]))]), 100
            )

    def test_array_value_beyond_nbits(self):
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(
                _payload(100, [(0, ARRAY, 1, _array_body([100]))]), 100
            )

    def test_bitmap_cardinality_mismatch(self):
        count, body = _bitmap_body(list(range(0, 9000, 2)))
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(
                _payload(CHUNK_SIZE, [(0, BITMAP, count + 1, body)]), CHUNK_SIZE
            )

    def test_bitmap_bits_beyond_nbits(self):
        count, body = _bitmap_body(list(range(4000, 9001, 2)))
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(_payload(9000, [(0, BITMAP, count, body)]), 9000)

    def test_overlapping_runs(self):
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(
                _payload(1000, [(0, RUN, 2, _run_body([(0, 100), (50, 100)]))]), 1000
            )

    def test_uncoalesced_adjacent_runs(self):
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(
                _payload(1000, [(0, RUN, 2, _run_body([(0, 100), (100, 100)]))]), 1000
            )

    def test_run_beyond_nbits(self):
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(
                _payload(100, [(0, RUN, 1, _run_body([(50, 51)]))]), 100
            )

    def test_unknown_container_kind(self):
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(_payload(100, [(0, 3, 1, _array_body([0]))]), 100)

    def test_trailing_bytes(self):
        blob = RoaringBitmap.from_indices(100, [3, 5]).to_payload()
        with pytest.raises(CorruptFileError):
            RoaringBitmap.from_payload(blob + b"\x00", 100)

    def test_nonzero_padding(self):
        # 18 header bytes, 7 directory bytes, 2 pool bytes: each padded to 8.
        blob = _payload(100, [(0, ARRAY, 1, _array_body([7]))])
        assert RoaringBitmap.from_payload(blob, 100).indices().tolist() == [7]
        for at in (18, 23, 31, 34, 39):
            bad = bytearray(blob)
            bad[at] = 1
            with pytest.raises(CorruptFileError, match="padding"):
                RoaringBitmap.from_payload(bytes(bad), 100)

    @pytest.mark.parametrize("kind, count", [(ARRAY, 1000), (RUN, 2**32 - 1)])
    def test_counts_imply_more_pool_bytes_than_held(self, kind, count):
        blob = _payload(100, [(0, kind, count, _array_body([0, 1]))])
        with pytest.raises(CorruptFileError, match="bytes"):
            RoaringBitmap.from_payload(blob, 100)

    def test_version_1_payload_names_its_version(self):
        # Version 1 stored each container's key, kind and count before its body.
        blob = struct.pack("<4sBBQIHBIH", b"ROAR", 1, 0, 100, 1, 0, ARRAY, 1, 7)
        with pytest.raises(CorruptFileError, match="version 1"):
            RoaringBitmap.from_payload(blob, 100)


# A mixed-kind fixture bitmap for the fuzz tests: array + bitmap + run
# containers in one payload.
def _mixed_bitmap(rng: np.random.Generator) -> RoaringBitmap:
    bools = np.zeros(3 * CHUNK_SIZE, dtype=bool)
    bools[rng.integers(0, CHUNK_SIZE, 300)] = True  # chunk 0: array
    dense = rng.random(CHUNK_SIZE) < 0.4
    bools[CHUNK_SIZE : 2 * CHUNK_SIZE] = dense  # chunk 1: bitmap
    bools[2 * CHUNK_SIZE + 1000 : 2 * CHUNK_SIZE + 60_000] = True  # chunk 2: run
    return RoaringBitmap.from_bools(bools)


@settings(max_examples=80, deadline=None)
@given(cut=st.integers(0, 10_000), seed=st.integers(0, 3))
def test_fuzz_any_truncation_raises(cut, seed):
    """Every strict prefix of a valid payload must be rejected."""
    blob = _mixed_bitmap(np.random.default_rng(seed)).to_payload()
    truncated = blob[: cut % len(blob)]
    with pytest.raises(CorruptFileError):
        RoaringBitmap.from_payload(truncated, 3 * CHUNK_SIZE)


@settings(max_examples=60, deadline=None)
@given(extra=st.binary(min_size=1, max_size=64), seed=st.integers(0, 3))
def test_fuzz_overlong_payload_raises(extra, seed):
    """Any bytes past the declared containers must be rejected."""
    blob = _mixed_bitmap(np.random.default_rng(seed)).to_payload()
    with pytest.raises(CorruptFileError):
        RoaringBitmap.from_payload(blob + extra, 3 * CHUNK_SIZE)


@settings(max_examples=80, deadline=None)
@given(garbage=st.binary(max_size=256))
def test_fuzz_garbage_raises(garbage):
    """Arbitrary bytes (wrong magic) never decode."""
    if garbage[:4] == b"ROAR":  # pragma: no cover - 2^-32 per example
        garbage = b"XXXX" + garbage[4:]
    with pytest.raises(CorruptFileError):
        RoaringBitmap.from_payload(garbage, 3 * CHUNK_SIZE)


@settings(max_examples=60, deadline=None)
@given(position=st.integers(0, 1 << 30), flip=st.integers(0, 7), seed=st.integers(0, 3))
def test_fuzz_bit_flips_never_crash(position, flip, seed):
    """A single flipped bit either raises CorruptFileError or decodes.

    There is no checksum, so some flips (e.g. inside a bitmap container's
    words alongside a matching count) cannot be detected — but no flip may
    escape as IndexError/ValueError or decode to a structurally invalid
    object.
    """
    blob = bytearray(_mixed_bitmap(np.random.default_rng(seed)).to_payload())
    index = _HEADER.size + position % (len(blob) - _HEADER.size)
    blob[index] ^= 1 << flip
    try:
        decoded = RoaringBitmap.from_payload(bytes(blob), 3 * CHUNK_SIZE)
    except CorruptFileError:
        return
    # If it decoded, it must re-encode cleanly (structural validity).
    assert RoaringBitmap.from_payload(decoded.to_payload(), decoded.nbits) == decoded


# ----------------------------------------------------------------------
# Interop: cache byte accounting across mixed codecs
# ----------------------------------------------------------------------


class TestMixedCodecCache:
    def test_nbytes_tracks_serialized_size(self, rng):
        bitmap = RoaringBitmap.from_bools(rng.random(200_000) < 0.01)
        assert bitmap.nbytes >= len(bitmap.to_payload())
        # and is a real accounting hook, not the dense footprint
        assert bitmap.nbytes < BitVector.from_bools(np.zeros(200_000, bool)).nbytes

    def test_mixed_wah_roaring_budget_respected(self, rng):
        """A shared cache holding both codecs never exceeds byte_budget.

        Regression for the cache's ``nbytes`` accounting hook: the budget
        must govern the codecs' real payload bytes, whichever class the
        entry is.
        """
        budget = 50_000
        cache = SharedBitmapCache(capacity=None, byte_budget=budget)
        nbits = 100_000
        for i in range(40):
            bools = rng.random(nbits) < rng.choice([0.001, 0.05, 0.4])
            vector = BitVector.from_bools(bools)
            if i % 2:
                cache.put(("rel", "a", "wah", i), WahBitVector.from_bitvector(vector))
            else:
                cache.put(
                    ("rel", "a", "roaring", i), RoaringBitmap.from_bitvector(vector)
                )
            assert cache.bytes_cached <= budget
        snap = cache.snapshot()
        assert snap["bytes_cached"] <= budget
        assert len(cache) > 0
