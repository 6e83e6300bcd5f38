"""A from-scratch Roaring bitmap codec: adaptive per-chunk containers.

Roaring (Chambi, Lemire, Kaser & Godin, "Better bitmap performance with
Roaring bitmaps") partitions the row space into 2^16-row *chunks* and
stores each non-empty chunk in whichever of three container shapes is
smallest for its contents:

- **array** — a sorted ``uint16`` array of the set positions; used while
  the chunk holds at most :data:`ARRAY_MAX` (4096) rows, at which point
  the array (2 bytes/row) would outgrow the bitmap container.
- **bitmap** — a packed 1024-word (8 KiB) ``uint64`` bit array; used for
  dense chunks beyond the array threshold.
- **run** — sorted, coalesced ``(start, length)`` intervals; used
  whenever the chunk's set bits form few enough runs that 4 bytes/run
  beats both alternatives.

Container selection is re-evaluated after every operation
(:func:`_seal_array` / :func:`_seal_words` / :func:`_seal_runs`), so a
chunk crossing the 4096-row boundary flips representation automatically
and run-structured results collapse to run containers without an explicit
``runOptimize`` pass.

Where WAH's run-length words lose on uniform-random (short-run) data —
every 31-bit group becomes a literal word and the codec degenerates to a
dense bitmap with 1/32 overhead plus per-run merge cost — Roaring's array
containers keep both the space and the AND/OR cost proportional to the
number of *set bits*, which is exactly the regime the
``bench_codec_crossover`` benchmark maps against WAH and dense execution.

:class:`RoaringBitmap` mirrors the algebra surface of
:class:`~repro.bitmaps.bitvector.BitVector` and
:class:`~repro.bitmaps.compressed.WahBitVector` (``zeros`` / ``ones``,
``count``, ``indices``, ``to_bools``, ``copy``, ``nbytes``, the four
logical operators, and k-way ``and_many`` / ``or_many``), so the
evaluation algorithms of :mod:`repro.core.evaluation`, the storage
schemes, and the query engine serve it unchanged as a third backend.

The serialized form (:meth:`RoaringBitmap.serialize` /
:meth:`RoaringBitmap.deserialize`) is self-describing and validated on
read: truncated, overlong, or internally inconsistent payloads raise
:class:`~repro.errors.CorruptFileError` rather than crashing or decoding
to a wrong answer.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Sequence
from typing import ClassVar

import numpy as np

from repro.bitmaps.bitvector import BitVector
from repro.errors import CorruptFileError, LengthMismatchError

#: Rows per chunk (the Roaring partition unit).
CHUNK_SIZE = 1 << 16
#: Array containers hold at most this many rows before flipping to bitmap
#: (2 bytes/row * 4096 = the 8 KiB bitmap container size).
ARRAY_MAX = 4096
#: 64-bit words in a bitmap container.
BITMAP_WORDS = CHUNK_SIZE // 64
#: Bytes in a bitmap container.
BITMAP_NBYTES = BITMAP_WORDS * 8

#: Container kind tags (also the on-disk ``kind`` byte).
ARRAY, BITMAP, RUN = 0, 1, 2

_KIND_NAMES = {ARRAY: "array", BITMAP: "bitmap", RUN: "run"}

# header: magic(4) version(B) reserved(B) nbits(Q) ncontainers(I)
_HEADER = struct.Struct("<4sBBQI")
# per container: key(H) kind(B) count(I)
_CONTAINER_HEADER = struct.Struct("<HBI")
_MAGIC = b"ROAR"
_VERSION = 1

_ONE = np.uint64(1)
_SIX3 = np.uint64(63)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _popcount_words(words: np.ndarray) -> int:
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum())
    return int(np.unpackbits(words.view(np.uint8)).sum())


def _words_to_indices(words: np.ndarray) -> np.ndarray:
    """Positions of set bits in a 1024-word chunk, as int64."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return np.flatnonzero(bits)


def _indices_to_words(values: np.ndarray) -> np.ndarray:
    """Pack sorted in-chunk positions into a 1024-word bitmap."""
    bools = np.zeros(CHUNK_SIZE, dtype=bool)
    bools[values] = True
    return np.packbits(bools, bitorder="little").view(np.uint64)


def _runs_to_words(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Pack coalesced runs into a 1024-word bitmap (delta + cumsum)."""
    delta = np.zeros(CHUNK_SIZE + 1, dtype=np.int32)
    delta[starts] = 1
    # Coalesced runs guarantee start[k+1] > start[k] + length[k], so the
    # decrement positions never collide with an increment.
    delta[starts + lengths] -= 1
    bools = np.cumsum(delta[:CHUNK_SIZE]).astype(bool)
    return np.packbits(bools, bitorder="little").view(np.uint64)


def _runs_to_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Expand runs to the sorted positions they cover (vectorized)."""
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    step = np.ones(total, dtype=np.int64)
    ends = np.cumsum(lengths)
    step[0] = starts[0]
    step[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(step)


def _shift_up(words: np.ndarray) -> np.ndarray:
    """Each bit moved one position higher (bit i gets old bit i-1)."""
    out = words << _ONE
    out[1:] |= words[:-1] >> _SIX3
    return out


def _shift_down(words: np.ndarray) -> np.ndarray:
    """Each bit moved one position lower (bit i gets old bit i+1)."""
    out = words >> _ONE
    out[:-1] |= words[1:] << _SIX3
    return out


# ----------------------------------------------------------------------
# Container construction: pick the smallest representation
# ----------------------------------------------------------------------
#
# A container is a ``(kind, data)`` pair: ARRAY data is a sorted uint16
# array; BITMAP data is a 1024-entry uint64 array (owned, never a view
# into shared storage); RUN data is an ``(starts, lengths)`` pair of
# int64 arrays describing sorted, coalesced, non-empty intervals.


def _run_bytes(nruns: int) -> int:
    return 4 * nruns


def _pick_kind(cardinality: int, nruns: int) -> int:
    """The smallest representation for a chunk's statistics."""
    array_ok = cardinality <= ARRAY_MAX
    threshold = min(2 * cardinality, BITMAP_NBYTES) if array_ok else BITMAP_NBYTES
    if _run_bytes(nruns) < threshold:
        return RUN
    return ARRAY if array_ok else BITMAP


def _seal_array(values: np.ndarray):
    """Seal sorted unique in-chunk positions into the best container."""
    card = len(values)
    if card == 0:
        return None
    boundaries = np.flatnonzero(np.diff(values) != 1)
    nruns = len(boundaries) + 1
    kind = _pick_kind(card, nruns)
    if kind == RUN:
        starts = values[np.concatenate(([0], boundaries + 1))].astype(np.int64)
        ends = values[np.concatenate((boundaries, [card - 1]))].astype(np.int64)
        return (RUN, (starts, ends - starts + 1))
    if kind == ARRAY:
        return (ARRAY, values.astype(np.uint16))
    return (BITMAP, _indices_to_words(values))


def _seal_words(words: np.ndarray):
    """Seal a 1024-word chunk bitmap into the best container.

    Takes ownership of ``words``; pass a copy when the array aliases
    shared storage.
    """
    card = _popcount_words(words)
    if card == 0:
        return None
    starts_mask = words & ~_shift_up(words)
    nruns = _popcount_words(starts_mask)
    kind = _pick_kind(card, nruns)
    if kind == RUN:
        ends_mask = words & ~_shift_down(words)
        starts = _words_to_indices(starts_mask)
        ends = _words_to_indices(ends_mask)
        return (RUN, (starts, ends - starts + 1))
    if kind == ARRAY:
        return (ARRAY, _words_to_indices(words).astype(np.uint16))
    return (BITMAP, words)


def _seal_runs(starts: np.ndarray, lengths: np.ndarray):
    """Seal sorted coalesced runs into the best container."""
    nruns = len(starts)
    if nruns == 0:
        return None
    card = int(lengths.sum())
    kind = _pick_kind(card, nruns)
    if kind == RUN:
        return (RUN, (starts, lengths))
    if kind == ARRAY:
        return (ARRAY, _runs_to_indices(starts, lengths).astype(np.uint16))
    return (BITMAP, _runs_to_words(starts, lengths))


# ----------------------------------------------------------------------
# Container accessors
# ----------------------------------------------------------------------


def _container_count(container) -> int:
    kind, data = container
    if kind == ARRAY:
        return len(data)
    if kind == BITMAP:
        return _popcount_words(data)
    return int(data[1].sum())


def _container_indices(container) -> np.ndarray:
    """Sorted in-chunk positions of a container, as int64."""
    kind, data = container
    if kind == ARRAY:
        return data.astype(np.int64)
    if kind == BITMAP:
        return _words_to_indices(data)
    return _runs_to_indices(*data)


def _container_words(container) -> np.ndarray:
    """The container as a fresh (owned) 1024-word bitmap."""
    kind, data = container
    if kind == ARRAY:
        return _indices_to_words(data.astype(np.int64))
    if kind == BITMAP:
        return data.copy()
    return _runs_to_words(*data)


def _member_mask(values: np.ndarray, container) -> np.ndarray:
    """Boolean mask: which sorted int64 ``values`` are in ``container``."""
    kind, data = container
    if kind == ARRAY:
        other = data.astype(np.int64)
        pos = np.searchsorted(other, values)
        pos[pos >= len(other)] = len(other) - 1
        return other[pos] == values
    if kind == BITMAP:
        return ((data[values >> 6] >> (values & 63).astype(np.uint64)) & _ONE) == 1
    starts, lengths = data
    pos = np.searchsorted(starts, values, side="right") - 1
    valid = pos >= 0
    pos[~valid] = 0
    return valid & (values < starts[pos] + lengths[pos])


# ----------------------------------------------------------------------
# Container algebra
# ----------------------------------------------------------------------


def _and_runs(a, b):
    """Intersect two coalesced run lists with a two-pointer sweep."""
    (sa, la), (sb, lb) = a, b
    starts: list[int] = []
    lengths: list[int] = []
    i = j = 0
    while i < len(sa) and j < len(sb):
        lo = max(sa[i], sb[j])
        hi = min(sa[i] + la[i], sb[j] + lb[j])
        if lo < hi:
            starts.append(int(lo))
            lengths.append(int(hi - lo))
        if sa[i] + la[i] <= sb[j] + lb[j]:
            i += 1
        else:
            j += 1
    return np.asarray(starts, dtype=np.int64), np.asarray(lengths, dtype=np.int64)


def _or_runs(a, b):
    """Union two coalesced run lists with a merge sweep."""
    (sa, la), (sb, lb) = a, b
    order = np.argsort(np.concatenate((sa, sb)), kind="stable")
    all_starts = np.concatenate((sa, sb))[order]
    all_ends = np.concatenate((sa + la, sb + lb))[order]
    starts: list[int] = []
    lengths: list[int] = []
    cur_start = int(all_starts[0])
    cur_end = int(all_ends[0])
    for s, e in zip(all_starts[1:].tolist(), all_ends[1:].tolist()):
        if s > cur_end:  # gap: runs must stay coalesced (end + 1 adjacency merges)
            starts.append(cur_start)
            lengths.append(cur_end - cur_start)
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    starts.append(cur_start)
    lengths.append(cur_end - cur_start)
    return np.asarray(starts, dtype=np.int64), np.asarray(lengths, dtype=np.int64)


def _container_and(a, b):
    ka, kb = a[0], b[0]
    if ka == ARRAY and kb == ARRAY:
        return _seal_array(
            np.intersect1d(a[1], b[1], assume_unique=True).astype(np.int64)
        )
    if ka == BITMAP and kb == BITMAP:
        return _seal_words(a[1] & b[1])
    if ka == RUN and kb == RUN:
        return _seal_runs(*_and_runs(a[1], b[1]))
    if ka == ARRAY or kb == ARRAY:
        arr, other = (a, b) if ka == ARRAY else (b, a)
        values = arr[1].astype(np.int64)
        return _seal_array(values[_member_mask(values, other)])
    # bitmap x run
    return _seal_words(_container_words(a) & _container_words(b))


def _container_and_count(a, b) -> int:
    """Cardinality of the container intersection without sealing it."""
    ka, kb = a[0], b[0]
    if ka == ARRAY and kb == ARRAY:
        return int(np.intersect1d(a[1], b[1], assume_unique=True).size)
    if ka == ARRAY or kb == ARRAY:
        arr, other = (a, b) if ka == ARRAY else (b, a)
        return int(_member_mask(arr[1].astype(np.int64), other).sum())
    if ka == RUN and kb == RUN:
        return int(_and_runs(a[1], b[1])[1].sum())
    return int(_popcount_words(_container_words(a) & _container_words(b)))


def _container_or(a, b):
    ka, kb = a[0], b[0]
    if ka == ARRAY and kb == ARRAY:
        return _seal_array(np.union1d(a[1], b[1]).astype(np.int64))
    if ka == RUN and kb == RUN:
        return _seal_runs(*_or_runs(a[1], b[1]))
    return _seal_words(_container_words(a) | _container_words(b))


def _container_xor(a, b):
    if a[0] == ARRAY and b[0] == ARRAY:
        return _seal_array(
            np.setxor1d(a[1], b[1], assume_unique=True).astype(np.int64)
        )
    return _seal_words(_container_words(a) ^ _container_words(b))


def _container_andnot(a, b):
    ka, kb = a[0], b[0]
    if ka == ARRAY and kb == ARRAY:
        return _seal_array(
            np.setdiff1d(a[1], b[1], assume_unique=True).astype(np.int64)
        )
    if ka == ARRAY:
        values = a[1].astype(np.int64)
        return _seal_array(values[~_member_mask(values, b)])
    return _seal_words(_container_words(a) & ~_container_words(b))


def _complement_container(container, limit: int):
    """The complement of a container within ``[0, limit)``."""
    if container is None:
        if limit == 0:
            return None
        return _seal_runs(
            np.asarray([0], dtype=np.int64), np.asarray([limit], dtype=np.int64)
        )
    kind, data = container
    if kind == RUN:
        starts, lengths = data
        ends = starts + lengths
        gap_starts = np.concatenate(([0], ends))
        gap_ends = np.concatenate((starts, [limit]))
        keep = gap_starts < gap_ends
        return _seal_runs(gap_starts[keep], (gap_ends - gap_starts)[keep])
    words = ~_container_words(container)
    if limit < CHUNK_SIZE:
        full, tail = divmod(limit, 64)
        words[full + 1 :] = 0
        if tail:
            words[full] &= np.uint64((1 << tail) - 1)
        else:
            words[full:] = 0
    return _seal_words(words)


# ----------------------------------------------------------------------
# The bitmap
# ----------------------------------------------------------------------


class RoaringBitmap:
    """A Roaring-compressed bitmap supporting compressed-domain algebra.

    Instances are immutable by convention: every operator returns a new
    bitmap and containers are never mutated in place, matching the
    aliasing contract of :class:`BitVector` and :class:`WahBitVector`.
    """

    __slots__ = ("_nbits", "_keys", "_containers")

    #: Name of this representation in :data:`repro.bitmaps.BITMAP_CLASSES`.
    codec: ClassVar[str] = "roaring"

    def __init__(self, nbits: int, keys: list[int], containers: list):
        self._nbits = nbits
        self._keys = keys
        self._containers = containers

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, nbits: int) -> "RoaringBitmap":
        """The all-zero bitmap of ``nbits`` bits (no containers at all)."""
        if nbits < 0:
            raise ValueError(f"nbits must be non-negative, got {nbits}")
        return cls(nbits, [], [])

    @classmethod
    def ones(cls, nbits: int) -> "RoaringBitmap":
        """The all-one bitmap of ``nbits`` bits (one run per chunk)."""
        if nbits < 0:
            raise ValueError(f"nbits must be non-negative, got {nbits}")
        keys: list[int] = []
        containers: list = []
        for key in range(_num_chunks(nbits)):
            limit = _chunk_limit(nbits, key)
            keys.append(key)
            containers.append(
                _seal_runs(
                    np.asarray([0], dtype=np.int64),
                    np.asarray([limit], dtype=np.int64),
                )
            )
        return cls(nbits, keys, containers)

    @classmethod
    def from_indices(cls, nbits: int, indices) -> "RoaringBitmap":
        """A bitmap with exactly the bits in ``indices`` set."""
        values = np.unique(np.asarray(indices, dtype=np.int64))
        if values.size and (values[0] < 0 or values[-1] >= nbits):
            raise IndexError("bit index out of range")
        keys: list[int] = []
        containers: list = []
        if values.size:
            chunk_of = values >> 16
            cut = np.flatnonzero(np.diff(chunk_of)) + 1
            for part in np.split(values, cut):
                keys.append(int(part[0] >> 16))
                containers.append(_seal_array(part & 0xFFFF))
        return cls(nbits, keys, containers)

    @classmethod
    def from_bools(cls, bools: np.ndarray) -> "RoaringBitmap":
        """Build from a boolean array (bit ``i`` = ``bools[i]``)."""
        return cls.from_bitvector(BitVector.from_bools(np.asarray(bools, bool)))

    @classmethod
    def from_bitvector(cls, vector: BitVector) -> "RoaringBitmap":
        """Compress an uncompressed vector, chunk by chunk."""
        nbits = vector.nbits
        raw = vector.to_bytes()
        nchunks = _num_chunks(nbits)
        buf = np.zeros(nchunks * BITMAP_NBYTES, dtype=np.uint8)
        buf[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        words = buf.view(np.uint64).reshape(nchunks, BITMAP_WORDS)
        keys: list[int] = []
        containers: list = []
        for key in range(nchunks):
            container = _seal_words(words[key].copy())
            if container is not None:
                keys.append(key)
                containers.append(container)
        return cls(nbits, keys, containers)

    def to_bitvector(self) -> BitVector:
        """Materialize back to the uncompressed form."""
        nchunks = _num_chunks(self._nbits)
        words = np.zeros(nchunks * BITMAP_WORDS, dtype=np.uint64)
        for key, container in zip(self._keys, self._containers):
            base = key * BITMAP_WORDS
            words[base : base + BITMAP_WORDS] = _container_words(container)
        nwords = (self._nbits + 63) // 64
        return BitVector(self._nbits, words[:nwords].copy())

    def copy(self) -> "RoaringBitmap":
        """An independent handle (containers are immutable by convention)."""
        return RoaringBitmap(self._nbits, list(self._keys), list(self._containers))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def nbits(self) -> int:
        return self._nbits

    @property
    def num_containers(self) -> int:
        """Resident containers (non-empty 2^16-row chunks)."""
        return len(self._containers)

    def container_kinds(self) -> list[tuple[int, str]]:
        """``(chunk_key, kind_name)`` per container — for tests and tuning."""
        return [
            (key, _KIND_NAMES[container[0]])
            for key, container in zip(self._keys, self._containers)
        ]

    @property
    def nbytes(self) -> int:
        """In-memory footprint in bytes: actual container storage.

        This is the accounting hook byte-budget caches rely on
        (:class:`~repro.engine.cache.SharedBitmapCache` sizes entries via
        ``nbytes`` for every bitmap representation): the sum of each
        container's backing-array bytes plus a small fixed per-container
        and per-bitmap bookkeeping overhead.
        """
        total = _HEADER.size
        for kind, data in self._containers:
            total += _CONTAINER_HEADER.size
            if kind == RUN:
                total += data[0].nbytes + data[1].nbytes
            else:
                total += data.nbytes
        return total

    def count(self) -> int:
        """Population count, summed container by container."""
        return sum(_container_count(c) for c in self._containers)

    def and_count(self, other: "RoaringBitmap") -> int:
        """``(self & other).count()`` without sealing result containers.

        The aggregate-pushdown primitive: intersects chunk pairs with the
        same kind-specialized paths as ``&`` but counts in place — no
        result container is classified, copied, or sealed.
        """
        self._check(other)
        mine = dict(zip(self._keys, self._containers))
        total = 0
        for key, theirs in zip(other._keys, other._containers):
            ours = mine.get(key)
            if ours is not None:
                total += _container_and_count(ours, theirs)
        return total

    def any(self) -> bool:
        return bool(self._containers)

    def to_bools(self) -> np.ndarray:
        """Decode to a boolean numpy array of length ``nbits``."""
        return self.to_bitvector().to_bools()

    def indices(self) -> np.ndarray:
        """Sorted array of set-bit positions (the RID list)."""
        if not self._containers:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(
            [
                (key << 16) + _container_indices(container)
                for key, container in zip(self._keys, self._containers)
            ]
        )

    def iter_indices(self) -> Iterator[int]:
        """Iterate over set-bit positions in increasing order."""
        return iter(self.indices().tolist())

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def _check(self, other: "RoaringBitmap") -> None:
        if not isinstance(other, RoaringBitmap):
            raise TypeError(
                f"expected RoaringBitmap, got {type(other).__name__}"
            )
        if self._nbits != other._nbits:
            raise LengthMismatchError(
                f"cannot combine vectors of {self._nbits} and "
                f"{other._nbits} bits"
            )

    def __and__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        self._check(other)
        keys: list[int] = []
        containers: list = []
        mine = dict(zip(self._keys, self._containers))
        for key, theirs in zip(other._keys, other._containers):
            ours = mine.get(key)
            if ours is None:
                continue
            merged = _container_and(ours, theirs)
            if merged is not None:
                keys.append(key)
                containers.append(merged)
        return RoaringBitmap(self._nbits, keys, containers)

    def __or__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        self._check(other)
        return self._merge_union(other, _container_or)

    def __xor__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        self._check(other)
        return self._merge_union(other, _container_xor)

    def _merge_union(self, other: "RoaringBitmap", op) -> "RoaringBitmap":
        """Key-union merge for operators where one-sided chunks survive."""
        mine = dict(zip(self._keys, self._containers))
        theirs = dict(zip(other._keys, other._containers))
        keys: list[int] = []
        containers: list = []
        for key in sorted(mine.keys() | theirs.keys()):
            a, b = mine.get(key), theirs.get(key)
            merged = op(a, b) if a is not None and b is not None else (a or b)
            if merged is not None:
                keys.append(key)
                containers.append(merged)
        return RoaringBitmap(self._nbits, keys, containers)

    def andnot(self, other: "RoaringBitmap") -> "RoaringBitmap":
        """``self AND NOT other`` as a single container-level operation."""
        self._check(other)
        theirs = dict(zip(other._keys, other._containers))
        keys: list[int] = []
        containers: list = []
        for key, ours in zip(self._keys, self._containers):
            b = theirs.get(key)
            merged = ours if b is None else _container_andnot(ours, b)
            if merged is not None:
                keys.append(key)
                containers.append(merged)
        return RoaringBitmap(self._nbits, keys, containers)

    def __invert__(self) -> "RoaringBitmap":
        mine = dict(zip(self._keys, self._containers))
        keys: list[int] = []
        containers: list = []
        for key in range(_num_chunks(self._nbits)):
            flipped = _complement_container(
                mine.get(key), _chunk_limit(self._nbits, key)
            )
            if flipped is not None:
                keys.append(key)
                containers.append(flipped)
        return RoaringBitmap(self._nbits, keys, containers)

    @classmethod
    def or_many(cls, vectors: Sequence["RoaringBitmap"]) -> "RoaringBitmap":
        """OR k bitmaps in one k-way container merge (see :func:`roaring_or_many`)."""
        return roaring_or_many(vectors)

    @classmethod
    def and_many(cls, vectors: Sequence["RoaringBitmap"]) -> "RoaringBitmap":
        """AND k bitmaps in one k-way container merge (see :func:`roaring_and_many`)."""
        return roaring_and_many(vectors)

    @classmethod
    def threshold_many(
        cls, vectors: Sequence["RoaringBitmap"], k: int
    ) -> "RoaringBitmap":
        """k-of-N threshold over containers (see :func:`roaring_threshold_many`)."""
        return roaring_threshold_many(vectors, k)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def serialize(self) -> bytes:
        """The bitmap as a self-describing, validated byte payload."""
        parts = [
            _HEADER.pack(_MAGIC, _VERSION, 0, self._nbits, len(self._containers))
        ]
        for key, (kind, data) in zip(self._keys, self._containers):
            if kind == ARRAY:
                count = len(data)
                payload = data.astype("<u2").tobytes()
            elif kind == BITMAP:
                count = _popcount_words(data)
                payload = data.astype("<u8").tobytes()
            else:
                starts, lengths = data
                count = len(starts)
                pairs = np.empty((count, 2), dtype="<u2")
                pairs[:, 0] = starts
                pairs[:, 1] = lengths - 1  # length is stored minus one
                payload = pairs.tobytes()
            parts.append(_CONTAINER_HEADER.pack(key, kind, count))
            parts.append(payload)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, blob: bytes) -> "RoaringBitmap":
        """Inverse of :meth:`serialize`; validates every structural invariant.

        Raises :class:`~repro.errors.CorruptFileError` on truncated,
        overlong, or internally inconsistent payloads — a corrupt stored
        bitmap must never decode to a silently wrong answer.
        """
        if len(blob) < _HEADER.size:
            raise CorruptFileError("roaring payload shorter than its header")
        magic, version, _, nbits, ncontainers = _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise CorruptFileError(f"roaring payload has bad magic {magic!r}")
        if version != _VERSION:
            raise CorruptFileError(
                f"unsupported roaring payload version {version}"
            )
        nchunks = _num_chunks(nbits)
        if ncontainers > nchunks:
            raise CorruptFileError(
                f"roaring payload declares {ncontainers} containers for "
                f"{nbits} bits ({nchunks} chunks)"
            )
        offset = _HEADER.size
        keys: list[int] = []
        containers: list = []
        prev_key = -1
        for _ in range(ncontainers):
            if len(blob) < offset + _CONTAINER_HEADER.size:
                raise CorruptFileError("roaring container header truncated")
            key, kind, count = _CONTAINER_HEADER.unpack_from(blob, offset)
            offset += _CONTAINER_HEADER.size
            if key <= prev_key:
                raise CorruptFileError(
                    f"roaring container keys not strictly increasing at {key}"
                )
            if key >= nchunks:
                raise CorruptFileError(
                    f"roaring container key {key} out of range for {nbits} bits"
                )
            prev_key = key
            limit = _chunk_limit(nbits, key)
            container, offset = cls._read_container(
                blob, offset, kind, count, limit
            )
            keys.append(key)
            containers.append(container)
        if offset != len(blob):
            raise CorruptFileError(
                f"roaring payload has {len(blob) - offset} trailing bytes"
            )
        return cls(nbits, keys, containers)

    to_payload = serialize  #: The stored form.

    @classmethod
    def from_payload(cls, buf, nbits: int) -> "RoaringBitmap":
        """:meth:`deserialize` a payload that must declare exactly ``nbits``.

        A bitmap of another length raises
        :class:`~repro.errors.CorruptFileError` here instead of surfacing
        later as a length mismatch, or never.
        """
        if len(buf) >= _HEADER.size:
            declared = _HEADER.unpack_from(buf)[3]
            if declared != nbits:
                raise CorruptFileError(
                    f"roaring payload declares {declared} bits; "
                    f"{nbits} expected"
                )
        return cls.deserialize(bytes(buf))

    @staticmethod
    def _read_container(blob: bytes, offset: int, kind: int, count: int, limit: int):
        if count == 0:
            raise CorruptFileError("roaring payload contains an empty container")
        if kind == ARRAY:
            size = 2 * count
            if len(blob) < offset + size:
                raise CorruptFileError("roaring array container truncated")
            values = np.frombuffer(blob, dtype="<u2", count=count, offset=offset)
            inorder = values[:-1] < values[1:]
            if not bool(inorder.all()):
                raise CorruptFileError(
                    "roaring array container not sorted strictly increasing"
                )
            if int(values[-1]) >= limit:
                raise CorruptFileError(
                    "roaring array container exceeds the bitmap length"
                )
            return (ARRAY, values.astype(np.uint16)), offset + size
        if kind == BITMAP:
            if len(blob) < offset + BITMAP_NBYTES:
                raise CorruptFileError("roaring bitmap container truncated")
            words = np.frombuffer(
                blob, dtype="<u8", count=BITMAP_WORDS, offset=offset
            ).astype(np.uint64)
            if _popcount_words(words) != count:
                raise CorruptFileError(
                    "roaring bitmap container cardinality mismatch"
                )
            if limit < CHUNK_SIZE:
                tail = _words_to_indices(words)
                if len(tail) and int(tail[-1]) >= limit:
                    raise CorruptFileError(
                        "roaring bitmap container exceeds the bitmap length"
                    )
            return (BITMAP, words), offset + BITMAP_NBYTES
        if kind == RUN:
            size = 4 * count
            if len(blob) < offset + size:
                raise CorruptFileError("roaring run container truncated")
            pairs = np.frombuffer(blob, dtype="<u2", count=2 * count, offset=offset)
            starts = pairs[0::2].astype(np.int64)
            lengths = pairs[1::2].astype(np.int64) + 1
            ends = starts + lengths
            if len(starts) > 1 and not bool((starts[1:] > ends[:-1]).all()):
                raise CorruptFileError(
                    "roaring run container runs overlap or are not coalesced"
                )
            if int(ends[-1]) > limit:
                raise CorruptFileError(
                    "roaring run container exceeds the bitmap length"
                )
            return (RUN, (starts, lengths)), offset + size
        raise CorruptFileError(f"unknown roaring container kind {kind}")

    # ------------------------------------------------------------------
    # Comparison / repr
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoaringBitmap):
            return NotImplemented
        if self._nbits != other._nbits:
            return False
        if self._keys != other._keys:
            return False
        for a, b in zip(self._containers, other._containers):
            if a[0] == b[0]:
                if a[0] == RUN:
                    if not (
                        np.array_equal(a[1][0], b[1][0])
                        and np.array_equal(a[1][1], b[1][1])
                    ):
                        return False
                elif not np.array_equal(a[1], b[1]):
                    return False
            elif not np.array_equal(_container_indices(a), _container_indices(b)):
                return False
        return True

    def __hash__(self):  # pragma: no cover - parity with BitVector
        raise TypeError("RoaringBitmap is unhashable")

    def __repr__(self) -> str:
        kinds = [kind for _, kind in self.container_kinds()]
        summary = {name: kinds.count(name) for name in ("array", "bitmap", "run")}
        parts = ", ".join(f"{v} {k}" for k, v in summary.items() if v)
        return (
            f"RoaringBitmap({self._nbits} bits, {self.count()} set, "
            f"containers: {parts or 'none'})"
        )


# ----------------------------------------------------------------------
# k-way kernels
# ----------------------------------------------------------------------


def roaring_or_many(vectors: Sequence[RoaringBitmap]) -> RoaringBitmap:
    """OR k bitmaps in one pass over each chunk's containers.

    Equivalent to folding ``|`` pairwise, but each chunk accumulates all
    its operands at once: sparse chunks concatenate their arrays and
    deduplicate once, dense chunks fold into a single 1024-word buffer —
    no intermediate containers are sealed and re-opened per operand.
    """
    if not vectors:
        raise ValueError("roaring_or_many needs at least one vector")
    first = vectors[0]
    for other in vectors[1:]:
        first._check(other)
    if len(vectors) == 1:
        return first.copy()
    per_chunk: dict[int, list] = {}
    for vector in vectors:
        for key, container in zip(vector._keys, vector._containers):
            per_chunk.setdefault(key, []).append(container)
    keys: list[int] = []
    containers: list = []
    for key in sorted(per_chunk):
        group = per_chunk[key]
        if len(group) == 1:
            merged = group[0]
        elif all(kind == ARRAY for kind, _ in group):
            merged = _seal_array(
                np.unique(np.concatenate([data for _, data in group])).astype(
                    np.int64
                )
            )
        else:
            words = _container_words(group[0])
            for container in group[1:]:
                if container[0] == BITMAP:
                    words |= container[1]
                else:
                    words |= _container_words(container)
            merged = _seal_words(words)
        if merged is not None:
            keys.append(key)
            containers.append(merged)
    return RoaringBitmap(first.nbits, keys, containers)


def roaring_and_many(vectors: Sequence[RoaringBitmap]) -> RoaringBitmap:
    """AND k bitmaps chunk by chunk, cheapest containers first.

    Chunks missing from any operand vanish without touching the others;
    surviving chunks fold in ascending-cardinality order so the running
    intersection shrinks as fast as possible and can short-circuit to
    empty.
    """
    if not vectors:
        raise ValueError("roaring_and_many needs at least one vector")
    first = vectors[0]
    for other in vectors[1:]:
        first._check(other)
    if len(vectors) == 1:
        return first.copy()
    common = set(vectors[0]._keys)
    for vector in vectors[1:]:
        common &= set(vector._keys)
        if not common:
            return RoaringBitmap(first.nbits, [], [])
    maps = [dict(zip(v._keys, v._containers)) for v in vectors]
    keys: list[int] = []
    containers: list = []
    for key in sorted(common):
        group = sorted(
            (m[key] for m in maps), key=_container_count
        )
        acc = group[0]
        for container in group[1:]:
            acc = _container_and(acc, container)
            if acc is None:
                break
        if acc is not None:
            keys.append(key)
            containers.append(acc)
    return RoaringBitmap(first.nbits, keys, containers)


def roaring_threshold_many(
    vectors: Sequence[RoaringBitmap], k: int
) -> RoaringBitmap:
    """k-of-N threshold: bit ``i`` set iff at least ``k`` operands set it.

    ``k == 1`` is the k-way OR and ``k == N`` the k-way AND; intermediate
    ``k`` is the symmetric threshold neither fold expresses.  Works
    container-wise (Kaser & Lemire's per-chunk counter approach): each
    chunk accumulates a per-position occurrence counter fed directly from
    whatever container shapes its operands use — arrays bump their listed
    positions, run containers add a delta/cumsum staircase, bitmap
    containers unpack once — and chunks present in fewer than ``k``
    operands are skipped without touching their containers at all.

    ``k <= 0`` clamps to the all-ones bitmap and ``k > N`` to all-zeros.
    """
    if not vectors:
        raise ValueError("roaring_threshold_many needs at least one vector")
    first = vectors[0]
    for other in vectors[1:]:
        first._check(other)
    if k <= 0:
        return RoaringBitmap.ones(first.nbits)
    if k > len(vectors):
        return RoaringBitmap.zeros(first.nbits)
    if len(vectors) == 1:
        return first.copy()
    per_chunk: dict[int, list] = {}
    for vector in vectors:
        for key, container in zip(vector._keys, vector._containers):
            per_chunk.setdefault(key, []).append(container)
    keys: list[int] = []
    containers: list = []
    for key in sorted(per_chunk):
        group = per_chunk[key]
        if len(group) < k:
            continue  # fewer operands touch this chunk than the threshold
        if all(kind != BITMAP for kind, _ in group):
            # Run/array-only chunk: count coverage at run boundaries
            # instead of per position — O(total runs), never 65536-wide.
            merged = _threshold_boundary_merge(group, k)
        else:
            counts = np.zeros(CHUNK_SIZE, dtype=np.int32)
            for kind, data in group:
                if kind == ARRAY:
                    # Array positions are unique, so fancy-index += is exact.
                    counts[data.astype(np.int64)] += 1
                elif kind == BITMAP:
                    counts += np.unpackbits(
                        data.view(np.uint8), bitorder="little"
                    )
                else:
                    starts, lengths = data
                    delta = np.zeros(CHUNK_SIZE + 1, dtype=np.int32)
                    delta[starts] = 1
                    delta[starts + lengths] -= 1
                    counts += np.cumsum(delta[:CHUNK_SIZE])
            merged = _seal_words(
                np.packbits(counts >= k, bitorder="little").view(np.uint64)
            )
        if merged is not None:
            keys.append(key)
            containers.append(merged)
    return RoaringBitmap(first.nbits, keys, containers)


def _threshold_boundary_merge(group, k: int):
    """k-of-N over one chunk's run/array containers, at run granularity.

    Every operand contributes +1 at each interval start and -1 one past
    its end (array positions are length-1 intervals); sorting the
    boundary events and prefix-summing the deltas gives the coverage
    depth between consecutive boundaries, and the ``depth >= k`` spans
    are exactly the result's runs.  The whole chunk costs one sort of the
    event list — proportional to the operands' run counts, not to
    CHUNK_SIZE.
    """
    starts_parts = []
    ends_parts = []
    for kind, data in group:
        if kind == ARRAY:
            positions = data.astype(np.int64)
            starts_parts.append(positions)
            ends_parts.append(positions + 1)
        else:
            run_starts, run_lengths = data
            starts_parts.append(run_starts.astype(np.int64))
            ends_parts.append((run_starts + run_lengths).astype(np.int64))
    starts = np.concatenate(starts_parts)
    ends = np.concatenate(ends_parts)
    points = np.concatenate((starts, ends))
    deltas = np.concatenate(
        (
            np.ones(len(starts), dtype=np.int64),
            np.full(len(ends), -1, dtype=np.int64),
        )
    )
    order = np.argsort(points, kind="stable")
    points = points[order]
    coverage = np.cumsum(deltas[order])
    # Keep the last event at each distinct boundary: its running sum is
    # the coverage depth on [points[i], points[i + 1]).
    last = np.empty(len(points), dtype=bool)
    last[:-1] = points[1:] != points[:-1]
    last[-1] = True
    points = points[last]
    coverage = coverage[last]
    above = coverage >= k
    # Coverage always falls back to zero at the final boundary (every +1
    # has its -1), so each rising edge pairs with a later falling edge.
    previous = np.empty(len(above), dtype=bool)
    previous[0] = False
    previous[1:] = above[:-1]
    run_starts = points[above & ~previous]
    run_ends = points[previous & ~above]
    return _seal_runs(run_starts, run_ends - run_starts)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _num_chunks(nbits: int) -> int:
    return (nbits + CHUNK_SIZE - 1) // CHUNK_SIZE


def _chunk_limit(nbits: int, key: int) -> int:
    """Valid positions in chunk ``key`` of an ``nbits``-bit bitmap."""
    return min(CHUNK_SIZE, nbits - key * CHUNK_SIZE)
