"""A from-scratch Roaring bitmap codec: adaptive per-chunk containers.

Roaring (Chambi, Lemire, Kaser & Godin, "Better bitmap performance with
Roaring bitmaps") partitions the row space into 2^16-row *chunks* and
stores each non-empty chunk in whichever of three container shapes is
smallest for its contents:

- **array** — the sorted ``uint16`` set positions; used while the chunk
  holds at most :data:`ARRAY_MAX` (4096) rows, at which point the array
  (2 bytes/row) would outgrow the bitmap container.
- **bitmap** — a packed 1024-word (8 KiB) ``uint64`` bit array; used for
  dense chunks beyond the array threshold.
- **run** — sorted, coalesced ``(start, length - 1)`` intervals; used
  whenever the chunk's set bits form few enough runs that 4 bytes/run
  beats both alternatives.

In memory
---------
A :class:`RoaringBitmap` holds no per-chunk Python objects.  Three
parallel arrays describe its containers in key order — ``keys``
(``uint16``), ``kinds`` (``uint8``) and ``sizes`` (``int32``: values of an
array container, runs of a run container, 1 for a bitmap container) — and
three *pools* hold every container of one kind back to back, again in key
order: ``array`` (``uint16[Σ]``), ``runs`` (``uint16[Σ, 2]``, the
serialized layout) and ``words`` (``uint64[nb, 1024]``).  The six live in
one :class:`_Containers` tuple, the bitmap's only state.  Nothing is
cached beside them, so once sealed :attr:`RoaringBitmap.nbytes` is the
resident size and never changes.

Kernels
-------
Every binary and k-way operator is one call of :func:`_evaluate`, which
aligns the chunk keys of its operands once and then runs at most one numpy
pipeline per *route*, over all the chunks on that route together — never
one Python iteration per chunk.  A chunk's route follows from how many
operands hold it and from their container kinds and sizes:

- *through*: held by one operand only; its container is sliced out of
  that operand's pools as it is (or dropped, for AND-like operators).
- *rows*: some operand holds a bitmap container.  Every operand is
  rendered into an ``(m, 1024)`` word matrix (:meth:`_Containers.render`:
  bitmap rows gathered, array rows by one scatter, run rows by word
  arithmetic on their bounds — O(runs + words), never 65,536 wide) and the
  operator is one 2-D ufunc, or the shared bit-sliced ripple adder and
  ``>= k`` comparator for a threshold.
- *probe*: an array container under AND / ANDNOT stays O(array): its
  values are looked up in the other operand's container, by one gather
  of bits (bitmap) or one binary search each (array, run).
- *sweep*: array and run containers only, a run among them.  One sorted
  pass over the interval boundaries of all operands in a global position
  space (the chunk key rides in the high bits; an array value is a unit
  run) keeps the spans whose coverage the operator's truth table accepts
  (:func:`_sweep`) — O(boundaries), whatever the chunk count.
- *tally*: array containers only, adding up to at most :data:`ARRAY_MAX`
  values (more take the *rows* route, as in Chambi et al.'s array union).
  The same sorted pass over the values themselves (:func:`_tally`).

When at least half of every operand's containers are bitmap containers,
routing is skipped: every chunk that can hold result rows is rendered
into one word matrix and the operator runs once over it
(:func:`_fold_rows`); operands that are bitmap containers only, on the
same keys, are folded as their ``words`` pools themselves.

NOT (one operand) flips the word rows of its array and bitmap containers
and takes the gaps between the runs of every other chunk.

Container selection is re-evaluated at seal, in one batch (``seal`` of
:class:`_Rows`, :class:`_Spans`, :class:`_Values`): cardinality and run
count of all result chunks at once, the smallest-representation rule
(:func:`_pick_kinds`) as one vectorized expression, and one conversion
per (form, kind) for the chunks whose form is not already their kind.
So a chunk crossing the 4096-row boundary flips representation
automatically, run-structured results collapse to run containers without
an explicit ``runOptimize`` pass, and a sealed result is byte for byte
what :meth:`RoaringBitmap.from_bitvector` of the same bits would be.

What the *rows* route leaves is not sealed by the operator: the result
keeps those word rows as *loose* bitmap containers, of any cardinality
and possibly empty, which every kernel, ``count``, ``indices`` and
``to_bitvector`` read as they are — so a chain of operators never
re-picks the kinds of an intermediate that the next one renders back to
rows.  A loose bitmap seals once, in place, when its bytes are asked for
(:meth:`~RoaringBitmap.to_payload`, :attr:`~RoaringBitmap.nbytes`,
:meth:`~RoaringBitmap.container_kinds` and the other introspection).
Built bitmaps (:meth:`~RoaringBitmap.from_bitvector` and the other
constructors) and ones read by ``from_payload`` are sealed from the start.

Where WAH's run-length words lose on uniform-random (short-run) data —
every 31-bit group becomes a literal word and the codec degenerates to a
dense bitmap with 1/32 overhead plus per-run merge cost — Roaring's array
containers keep both the space and the AND/OR cost proportional to the
number of *set bits*, which is exactly the regime the
``bench_codec_crossover`` benchmark maps against WAH and dense execution.

:class:`RoaringBitmap` mirrors the algebra surface of ``BitVector`` and
``WahBitVector``, so the evaluation algorithms, the storage schemes and
the query engine serve it unchanged as a third backend.  The stored form
(:meth:`~RoaringBitmap.to_payload`, the one writer of Roaring bytes) is
the six arrays back to back, little-endian, in three parts each padded
with zeros to a multiple of 8 bytes: an 18-byte header; ``keys`` (u2),
``kinds`` (u1) and ``counts`` (u4: ``sizes``, but a bitmap container's
cardinality); the ``words``, ``array`` and ``runs`` pools.
:meth:`~RoaringBitmap.from_payload` takes all six as views of its buffer,
validated in batch: truncated, overlong, or internally inconsistent
payloads raise :class:`~repro.errors.CorruptFileError` rather than
crashing or decoding to a wrong answer.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterator, Sequence
from functools import reduce
from typing import ClassVar, NamedTuple

import numpy as np

from repro.bitmaps.bitvector import (
    BitVector,
    _bit_positions,
    _count_bits,
    _packed,
    _ripple_threshold,
)
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

_KIND_NAMES = np.array(["array", "bitmap", "run"])
#: In place of a kind: a sealed row that turned out empty.
_NOTHING = 3

# header: magic(4) version(B) reserved(B) nbits(Q) ncontainers(I) padding(6s)
_HEADER = struct.Struct("<4sBBQI6s")
_MAGIC = b"ROAR"
_VERSION = 2
#: Stored bytes per container: key (u2), kind (u1) and count (u4).
_ENTRY_NBYTES = 7

_ONE, _SIX3 = np.uint64(1), np.uint64(63)
_LOW = CHUNK_SIZE - 1

#: The empty pools (shared: no array of a bitmap is ever written to).
_NO_ARRAY = np.zeros(0, dtype=np.uint16)
_NO_RUNS = np.zeros((0, 2), dtype=np.uint16)
_NO_WORDS = np.zeros((0, BITMAP_WORDS), dtype=np.uint64)

#: Inside a sweep a position is ``(key << _SPAN) | low`` as ``int64``: one
#: bit more than a chunk needs, so that the exclusive end of a run reaching
#: its chunk's last row (``low == 65536``) is below the next chunk's first
#: position and no span ever crosses a chunk.
_SPAN = 17
_SPAN_LOW = (1 << _SPAN) - 1

#: Routes of a chunk that several operands hold (see the module docstring),
#: looked up by the OR of ``1 << kind`` over its holders.
_DROPPED, _ROWS, _SWEEP, _TALLY = 0, 1, 2, 3
_KIND_FLAGS = np.array([1, 2, 4], dtype=np.uint8)
_ROUTES = np.array([_DROPPED, _TALLY, _ROWS, _ROWS, _SWEEP, _SWEEP, _ROWS, _ROWS], np.uint8)


# ----------------------------------------------------------------------
# Bits, words and spans
# ----------------------------------------------------------------------


def _num_chunks(nbits: int) -> int:
    return (nbits + CHUNK_SIZE - 1) // CHUNK_SIZE


def _require(holds, problem: str, *args) -> None:
    """An invariant of a payload being read: corrupt unless it ``holds``.

    ``problem`` is formatted with ``args`` only when the check fails, so a
    passing check pays for no message.
    """
    if not holds:
        raise CorruptFileError("roaring " + problem.format(*args))


def _aligned(nbytes: int) -> int:
    """``nbytes`` rounded up to a multiple of 8."""
    return nbytes + -nbytes % 8


def _offsets(ncontainers: int, nrows: int = 0, nvalues: int = 0, nruns: int = 0) -> tuple:
    """Offsets in the stored form: the directory's end, the ``words``,
    ``array`` and ``runs`` pools' starts, and the pools' end."""
    directory = _HEADER.size + _ENTRY_NBYTES * ncontainers
    words_at = _aligned(directory)
    array_at = words_at + BITMAP_NBYTES * nrows
    runs_at = array_at + 2 * nvalues
    return directory, words_at, array_at, runs_at, runs_at + 4 * nruns


def _ranges(offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(o, o + n)`` for every ``(o, n)``, concatenated: the gather
    index of pool segments, and equally the positions runs cover."""
    ends = lengths.cumsum(dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    return (offsets - ends + lengths).repeat(lengths) + np.arange(total)


def _groups(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs of equal adjacent values: where each starts, and its length."""
    change = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=change[1:])
    first = change.nonzero()[0]
    return first, np.append(first[1:], len(values)) - first


def _bit_rows(row: np.ndarray, low: np.ndarray, m: int) -> np.ndarray:
    """An ``(m, 1024)`` matrix with bit ``low[i]`` of row ``row[i]`` set, for
    distinct bits in any order; a ``low`` of 65,536 falls off its row.

    One weighted ``bincount`` per 32-bit half word: the bits of a half are
    distinct powers of two, so their sum, exact in a double, is their OR.
    Each row has a 2049th half for what falls off.
    """
    # ``ldexp`` by an int32 exponent is the fast way to the weights (by a
    # wider one it is ten times slower; a table gather by uint16, five).
    weights = np.ldexp(1.0, (low & 31).astype(np.int32))
    halves = np.bincount(row * 2049 + (low >> 5), weights=weights, minlength=m * 2049)
    halves = halves.reshape(m, 2049)[:, :2048].astype(np.uint32)
    return halves.view(np.uint64)  # little-endian: low half first


def _span_rows(row: np.ndarray, low: np.ndarray, high: np.ndarray, m: int):
    """An ``(m, 1024)`` matrix whose row ``row[i]`` has bits ``[low[i], high[i])``
    set, for spans that are disjoint within a row.

    Word arithmetic modulo 2^64: the bits ``[s, e)`` of one word are
    ``2^e - 2^s``; a span that starts in a word and runs on is ``-2^s``
    there, one that ran in and ends is ``2^e - 1``, one that covers the
    word ``-1``.  So a word is the sum of ``2^e`` over the ends in it, less
    ``2^s`` over the starts in it, less one if it begins inside a span —
    which the parity of the starts and ends in the words before it tells.
    Disjoint spans' bits add up to their OR.
    """
    rows, starts = _bit_rows(row, high, m), _bit_rows(row, low, m)
    parity = (np.bitwise_count(rows) + np.bitwise_count(starts)) & 1
    rows -= starts
    rows -= np.bitwise_xor.accumulate(parity, axis=1) ^ parity
    return rows


def _sweep(
    operands: Sequence[tuple[np.ndarray, np.ndarray]], truth: np.ndarray
) -> "_Spans":
    """Combine interval lists in one sorted pass over their boundaries.

    Each operand is ``(starts, ends)``: disjoint ``[start, end)`` spans in
    any order.  A start raises the coverage of the positions from it on by
    one and an end lowers it (an operand handed in as ``(ends, starts)``
    counts minus one where it holds); the result is the maximal spans over
    which ``truth[coverage]`` holds.  Every boundary is one event, the
    position with an is-an-end bit below it, so sorting plain integers is
    the whole merge: the array form of a heap of run readers, the sorted
    events being the order the heap would surface them.
    """
    events = np.concatenate(
        [s << 1 for s, _ in operands] + [(e << 1) | 1 for _, e in operands]
    )
    events.sort(kind="stable")  # the pieces are ascending already
    points = events >> 1
    # After the last event at a point: the coverage of [point, next point).
    last = np.append((points[1:] != points[:-1]).nonzero()[0], len(points) - 1)
    held = truth[last + 1 - 2 * (events & 1).cumsum()[last]]
    # Coverage ends at zero, which no truth table accepts, so the changes
    # of ``held`` alternate: span start, span end, span start, ...
    changes = _groups(held)[0]
    edges = points[last[changes if held[0] else changes[1:]]]
    return _Spans(edges[0::2], edges[1::2])


def _tally(operands: Sequence[np.ndarray], truth: np.ndarray) -> "_Values":
    """Combine ascending lists of positions ``(key << 16) | low``: those
    that as many lists hold as ``truth`` accepts — the sorted-array form
    of ScanCount."""
    points = np.concatenate(operands)
    points.sort()
    first, coverage = _groups(points)
    return _Values.of(points[first[truth[coverage].nonzero()[0]]])


# ----------------------------------------------------------------------
# Results before sealing, in the layout of one container kind each: word
# rows, spans, values.  ``seal`` computes every chunk's cardinality and run
# count, applies the one rule and converts only the chunks whose kind is
# not their form's; ``count`` is the cardinality without any of it.
# ----------------------------------------------------------------------


def _pick_kinds(cardinality: np.ndarray, nruns: np.ndarray) -> np.ndarray:
    """The smallest representation for each chunk's statistics: runs (4
    bytes each) when they beat both the array (2 bytes a row, up to
    :data:`ARRAY_MAX` rows) and the 8 KiB bitmap; ties go against runs."""
    fewer_runs = 2 * nruns < np.minimum(cardinality, ARRAY_MAX)
    return np.where(fewer_runs, RUN, cardinality > ARRAY_MAX).astype(np.uint8)


def _sizes(kinds: np.ndarray, cardinality: np.ndarray, nruns: np.ndarray) -> np.ndarray:
    sizes = np.where(kinds == ARRAY, cardinality, np.where(kinds == RUN, nruns, 1))
    return sizes.astype(np.int32)


class _Rows(NamedTuple):
    """One 1024-word row per key; all-zero rows vanish when sealed."""

    keys: np.ndarray
    rows: np.ndarray  #: given up by the caller: a bitmap may keep it

    def count(self) -> int:
        return int(_count_bits(self.rows))

    def loose(self) -> "_Containers":
        """The rows as they are: one loose bitmap container each."""
        n = len(self.keys)
        kinds, sizes = np.full(n, BITMAP, dtype=np.uint8), np.ones(n, dtype=np.int32)
        return _Containers(self.keys, kinds, sizes, _NO_ARRAY, _NO_RUNS, self.rows, True)

    def seal(self) -> "_Containers":
        keys, rows = self
        cardinality = _count_bits(rows, axis=1)
        before = rows << _ONE
        before[:, 1:] |= rows[:, :-1] >> _SIX3
        heads = rows & ~before  # the first bit of every run
        nruns = _count_bits(heads, axis=1)
        kinds = _pick_kinds(cardinality, nruns)
        kinds[cardinality == 0] = _NOTHING
        held = np.bincount(kinds, minlength=4).tolist()
        array, runs, words = _NO_ARRAY, _NO_RUNS, _NO_WORDS
        # What converts is sparse (at most 4096 values, or 2047 run heads, to
        # a 65,536-bit row), so the positions come from the non-zero bytes.
        if held[ARRAY]:
            mine = kinds == ARRAY
            positions = _bit_positions(rows[mine], int(cardinality[mine].sum()))
            array = (positions & _LOW).astype(np.uint16)
        if held[BITMAP]:
            words = rows if held[BITMAP] == len(keys) else rows[kinds == BITMAP]
        if held[RUN]:
            mine = kinds == RUN
            body, total = rows[mine], int(nruns[mine].sum())
            after = body >> _ONE
            after[:, :-1] |= body[:, 1:] << _SIX3
            first = _bit_positions(heads[mine], total)
            last = _bit_positions(body & ~after, total)  # the k-th end pairs the k-th start
            runs = np.empty((len(first), 2), dtype=np.uint16)
            runs[:, 0], runs[:, 1] = first & _LOW, last - first
        sizes = _sizes(kinds, cardinality, nruns)
        if held[_NOTHING]:
            live = kinds != _NOTHING
            keys, kinds, sizes = keys[live], kinds[live], sizes[live]
        return _Containers(keys, kinds, sizes, array, runs, words)


class _Spans(NamedTuple):
    """Ascending sweep-space ``[start, end)`` spans, coalesced and each
    inside one chunk."""

    starts: np.ndarray
    ends: np.ndarray

    def count(self) -> int:
        return int((self.ends - self.starts).sum())

    def seal(self) -> "_Containers":
        starts, ends = self
        key = starts >> _SPAN
        first, nruns = _groups(key)  # a chunk's first span, and how many it has
        lengths = ends - starts
        cardinality = np.add.reduceat(lengths, first) if len(first) else lengths
        kinds = _pick_kinds(cardinality, nruns)
        held = np.bincount(kinds, minlength=3).tolist()
        low = starts & _SPAN_LOW
        array, runs, words = _NO_ARRAY, _NO_RUNS, _NO_WORDS

        def of(kind: int):  # the spans of the chunks of that kind (all chunks: as is)
            if held[kind] == len(kinds):
                return slice(None)
            return (kinds.repeat(nruns) == kind).nonzero()[0]

        if held[ARRAY]:
            mine = of(ARRAY)
            array = _ranges(low[mine], lengths[mine]).astype(np.uint16)
        if held[BITMAP]:
            mine = of(BITMAP)
            row = ((kinds == BITMAP).cumsum() - 1).repeat(nruns)[mine]
            words = _span_rows(row, low[mine], (low + lengths)[mine], held[BITMAP])
        if held[RUN]:
            mine = of(RUN)
            runs = np.empty((len(low[mine]), 2), dtype=np.uint16)
            runs[:, 0], runs[:, 1] = low[mine], lengths[mine] - 1
        sizes = _sizes(kinds, cardinality, nruns)
        return _Containers(key[first].astype(np.uint16), kinds, sizes, array, runs, words)


class _Values(NamedTuple):
    """Per key, ``sizes`` ascending ``uint16`` values, back to back; keys
    without values vanish when sealed."""

    keys: np.ndarray
    sizes: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, positions: np.ndarray) -> "_Values":
        """From ascending distinct positions ``(key << 16) | low``."""
        first, sizes = _groups(positions >> 16)
        keys = (positions[first] >> 16).astype(np.uint16)
        return cls(keys, sizes, positions.astype(np.uint16))

    def positions(self) -> np.ndarray:
        return (self.keys.astype(np.uint32) << 16).repeat(self.sizes) | self.values

    def count(self) -> int:
        return len(self.values)

    def seal(self) -> "_Containers":
        keys, sizes, values = self
        if not sizes.all():
            keys, sizes = keys[sizes > 0], sizes[sizes > 0]
        ends = sizes.cumsum()
        # A value starts a run unless it is its predecessor plus one; the
        # first of a chunk always does (the uint16 difference may wrap).
        heads = np.ones(len(values), dtype=bool)
        np.not_equal(values[1:] - values[:-1], 1, out=heads[1:])
        heads[ends[:-1]] = True
        nruns = np.searchsorted(heads.nonzero()[0], ends)  # up to each chunk's end
        nruns[1:] -= nruns[:-1].copy()
        kinds = _pick_kinds(sizes, nruns)
        if not kinds.any():  # array containers all: the values are their pool
            return _Containers(keys, kinds, sizes.astype(np.int32), values, _NO_RUNS, _NO_WORDS)
        # Some chunk is better off as runs or a bitmap: seal them as rows.
        row = np.arange(len(keys)).repeat(sizes)
        return _Rows(keys, _bit_rows(row, values, len(keys))).seal()


# ----------------------------------------------------------------------
# The containers of one bitmap
# ----------------------------------------------------------------------


class _Containers(NamedTuple):
    """Every container of one bitmap, in key order (see the module
    docstring); never written to, so bitmaps may share any of it.

    Sealed, each container is of the kind the smallest-representation rule
    picks for its chunk and none is empty.  ``loose`` containers are as a
    kernel's *rows* route left them: the array and run containers are
    sealed, the bitmap containers may be of any cardinality, zero
    included.  Every method here reads either form.
    """

    keys: np.ndarray  #: uint16[n], ascending
    kinds: np.ndarray  #: uint8[n]
    sizes: np.ndarray  #: int32[n]: values, runs, or 1
    array: np.ndarray  #: uint16[Σ]
    runs: np.ndarray  #: uint16[Σ, 2]: start, length - 1
    words: np.ndarray  #: uint64[nb, 1024]
    loose: bool = False

    def seal(self) -> "_Containers":
        """The sealed form: the bitmap containers through one
        :meth:`_Rows.seal`, the others as they are."""
        mine = self.kinds == BITMAP
        rows = _Rows(self.keys[mine], self.words).seal()
        if mine.all():
            return rows
        return _assemble([self.take((~mine).nonzero()[0]), rows])

    def count(self) -> int:
        lengths = int(self.runs[:, 1].sum(dtype=np.int64)) + len(self.runs)
        return len(self.array) + lengths + int(_count_bits(self.words))

    def pool(self, kind: int, index: np.ndarray, ascending: bool = True) -> np.ndarray:
        """Containers ``index``, all of one ``kind``, as a pool of that
        kind: a slice of the pool itself when they lie side by side in it."""
        pool = (self.array, self.words, self.runs)[kind]
        if not len(index) or (ascending and len(index) == len(self.kinds)):
            return pool[: len(pool) if len(index) else 0]
        # Where each of them starts in the pool: after those of its kind before it.
        sizes = self.sizes[index]
        at = np.where(self.kinds == kind, self.sizes, 0).cumsum()[index] - sizes
        first, total = int(at[0]), int(sizes.sum())
        if int(at[-1] + sizes[-1]) - first == total and (
            ascending or bool((index[1:] > index[:-1]).all())
        ):
            return pool[first : first + total]
        return pool[at] if kind == BITMAP else pool[_ranges(at, sizes)]

    def take(self, index: np.ndarray, ascending: bool = True) -> "_Containers":
        """Containers ``index``, in that order."""
        kinds = self.kinds[index]
        array, words, runs = (
            self.pool(kind, index[(kinds == kind).nonzero()[0]], ascending)
            for kind in (ARRAY, BITMAP, RUN)
        )
        loose = self.loose and bool(len(words))
        return _Containers(self.keys[index], kinds, self.sizes[index], array, runs, words, loose)

    def render(self, mask: np.ndarray, rank: np.ndarray, m: int) -> np.ndarray:
        """The containers under ``mask`` as rows of an ``(m, 1024)`` word
        matrix, chunk ``key`` in row ``rank[key]``, other rows zero.  May be
        the ``words`` pool itself: read-only."""
        if len(self.words) == len(self.keys) == m and mask.all():
            return self.words  # bitmap containers only, one per row, in order
        index = mask.nonzero()[0]
        kinds, dest = self.kinds[index], rank[self.keys[index]]
        rows = np.zeros((m, BITMAP_WORDS), dtype=np.uint64)
        if len(self.array):
            mine = (kinds == ARRAY).nonzero()[0]
            row = np.arange(len(mine)).repeat(self.sizes[index[mine]])
            rows[dest[mine]] = _bit_rows(row, self.pool(ARRAY, index[mine]), len(mine))
        if len(self.words):
            mine = (kinds == BITMAP).nonzero()[0]
            rows[dest[mine]] = self.pool(BITMAP, index[mine])
        if len(self.runs):
            mine = (kinds == RUN).nonzero()[0]
            row = np.arange(len(mine)).repeat(self.sizes[index[mine]])
            runs = self.pool(RUN, index[mine]).astype(np.int64)
            rows[dest[mine]] = _span_rows(
                row, runs[:, 0], runs[:, 0] + runs[:, 1] + 1, len(mine)
            )
        return rows

    def values(self, index: np.ndarray, span: int = 16) -> np.ndarray:
        """Array containers ``index`` as ascending positions
        ``(key << span) | low``."""
        base = self.keys[index].astype(np.uint32 if span == 16 else np.int64) << span
        return base.repeat(self.sizes[index]) | self.pool(ARRAY, index)

    def spans(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The array and run containers under ``mask`` as sweep-space spans
        (an array value is a unit span), ascending within each kind."""
        index = mask.nonzero()[0]
        mine = index[self.kinds[index] == RUN]
        runs = self.pool(RUN, mine)
        base = self.keys[mine].astype(np.int64) << _SPAN
        starts = base.repeat(self.sizes[mine]) + runs[:, 0]
        ends = starts + runs[:, 1] + 1
        if len(mine) < len(index):
            values = self.values(index[self.kinds[index] == ARRAY], _SPAN)
            starts, ends = np.concatenate((values, starts)), np.concatenate((values + 1, ends))
        return starts, ends

    def probe(self, mask: np.ndarray, other: "_Containers", other_mask: np.ndarray):
        """Look the values of the array containers under ``mask`` up in the
        containers ``other`` holds for the same chunks, under ``other_mask``:
        the keys, each container's end among the values, the values, and
        which of them ``other`` holds."""
        index, held = mask.nonzero()[0], other_mask.nonzero()[0]
        sizes, array = self.sizes[index], self.pool(ARRAY, index)
        kinds = other.kinds[held]
        if (kinds == BITMAP).any():
            # One gather of a byte per value, and its bit — for every value:
            # those of the other chunks read row 0 and are looked up again.
            row = ((other.kinds == BITMAP).cumsum() - 1)[held] * (kinds == BITMAP)
            octets = other.words.view(np.uint8).reshape(-1)
            octet = octets.take((row << 13).astype(np.int32).repeat(sizes) | (array >> 3))
            hit = ((octet >> (array & 7).astype(np.uint8)) & 1).view(bool)
        else:
            hit = np.zeros(len(array), dtype=bool)
        for kind in (ARRAY, RUN):  # one binary search per value of their chunks
            theirs = kinds == kind
            if not theirs.any():
                continue
            mine = slice(None) if theirs.all() else theirs.repeat(sizes).nonzero()[0]
            wide = held[theirs]
            pool = other.pool(kind, wide)
            # Positions count the chunks of this kind: (n-th chunk, low).
            nth = np.arange(len(wide), dtype=np.int64) << _SPAN
            starts = nth.repeat(other.sizes[wide]) + (pool if kind == ARRAY else pool[:, 0])
            last = starts if kind == ARRAY else starts + pool[:, 1]
            values = nth.repeat(sizes[theirs]) | array[mine]
            at = np.searchsorted(starts, values, side="right") - 1
            hit[mine] = (at >= 0) & (values <= last[at])
        return self.keys[index], sizes.cumsum(), array, hit


#: The containers of an all-zero bitmap.
_NO_CONTAINERS = _Containers(
    _NO_ARRAY, _NO_ARRAY.astype(np.uint8), _NO_ARRAY.astype(np.int32),
    _NO_ARRAY, _NO_RUNS, _NO_WORDS,
)  # fmt: skip


def _assemble(parts: list[_Containers]) -> _Containers:
    """The containers of parts with disjoint key sets, in key order."""
    parts = [part for part in parts if len(part.keys)]
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return _NO_CONTAINERS
    # Concatenate the fields, then reorder the containers by key (a pool
    # only one part has anything in stays as it is).
    stacked = _Containers(
        *(
            held[0] if len(held) == 1 else np.concatenate(held or field[:1])
            for field in zip(*(part[:6] for part in parts))
            for held in [[each for each in field if len(each)]]
        ),
        any(part.loose for part in parts),
    )
    return stacked.take(stacked.keys.argsort(), ascending=False)


# ----------------------------------------------------------------------
# The bitmap
# ----------------------------------------------------------------------


class RoaringBitmap:
    """A Roaring-compressed bitmap supporting compressed-domain algebra.

    Instances are immutable in content: every operator returns a new
    bitmap and no array of an instance is ever written to, so bitmaps may
    share them — the aliasing contract of :class:`BitVector` and
    :class:`WahBitVector`.  The one write is the seal of a loose result
    (see the module docstring): the first call that needs its bytes
    replaces its containers by their sealed form, same bits, in one
    attribute assignment, so a concurrent reader sees one form or the
    other, each whole.
    """

    __slots__ = ("_nbits", "_containers")

    #: Name of this representation in :data:`repro.bitmaps.BITMAP_CLASSES`.
    codec: ClassVar[str] = "roaring"
    #: Revision of the :meth:`to_payload` format this class reads and writes.
    payload_version: ClassVar[int] = _VERSION

    def __init__(self, nbits: int, containers: _Containers):
        self._nbits = nbits
        self._containers = containers

    def _sealed(self) -> _Containers:
        """The containers, sealed first if a kernel left them loose."""
        held = self._containers
        if held.loose:
            held = self._containers = held.seal()
        return held

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, nbits: int) -> "RoaringBitmap":
        """The all-zero bitmap of ``nbits`` bits (no containers at all)."""
        if nbits < 0:
            raise ValueError(f"nbits must be non-negative, got {nbits}")
        return cls(nbits, _NO_CONTAINERS)

    @classmethod
    def ones(cls, nbits: int) -> "RoaringBitmap":
        """The all-one bitmap of ``nbits`` bits (one run per chunk)."""
        if nbits < 0:
            raise ValueError(f"nbits must be non-negative, got {nbits}")
        starts = np.arange(_num_chunks(nbits), dtype=np.int64) << _SPAN
        ends = starts + CHUNK_SIZE
        ends[-1:] -= -nbits % CHUNK_SIZE
        return cls(nbits, _Spans(starts, ends).seal())

    @classmethod
    def from_indices(cls, nbits: int, indices) -> "RoaringBitmap":
        """A bitmap with exactly the bits in ``indices`` set."""
        values = np.unique(np.asarray(indices, dtype=np.int64))
        if values.size and (values[0] < 0 or values[-1] >= nbits):
            raise IndexError("bit index out of range")
        return cls(nbits, _Values.of(values).seal())

    @classmethod
    def from_bools(cls, bools: np.ndarray) -> "RoaringBitmap":
        """Build from a boolean array (bit ``i`` = ``bools[i]``): packed
        straight into whole chunks of words, sealed."""
        bools = np.asarray(bools, dtype=bool)
        nbits, nchunks = len(bools), _num_chunks(len(bools))
        rows = _packed(bools, nchunks * BITMAP_NBYTES).view(np.uint64)
        keys = np.arange(nchunks, dtype=np.uint16)
        return cls(nbits, _Rows(keys, rows.reshape(nchunks, BITMAP_WORDS)).seal())

    @staticmethod
    def _layout(column: np.ndarray) -> np.ndarray:
        """A column of per-row values in this codec's word geometry: as it
        is, since chunk ``k`` is rows ``65536 k`` on, padded when packed."""
        return column

    @classmethod
    def _pack(cls, members: np.ndarray, nbits: int) -> bytes:
        """The payload of the bitmap whose rows are the true cells of
        ``members``, a comparison over a :meth:`_layout` of ``nbits`` rows:
        the word rows sealed into containers, as the stored form."""
        return cls.from_bools(members).to_payload()

    @classmethod
    def from_bitvector(cls, vector: BitVector) -> "RoaringBitmap":
        """Compress an uncompressed vector: pad to whole chunks, seal."""
        nchunks = _num_chunks(vector.nbits)
        source = np.frombuffer(vector.to_payload(), dtype="<u8")
        words = np.zeros(nchunks * BITMAP_WORDS, dtype=np.uint64)
        words[: len(source)] = source
        keys = np.arange(nchunks, dtype=np.uint16)
        return cls(vector.nbits, _Rows(keys, words.reshape(nchunks, BITMAP_WORDS)).seal())

    def to_bitvector(self) -> BitVector:
        """Materialize back to the uncompressed form."""
        held, nchunks = self._containers, _num_chunks(self._nbits)
        rows = held.render(np.ones(len(held.keys), dtype=bool), np.arange(nchunks), nchunks)
        nwords = (self._nbits + 63) // 64
        return BitVector(self._nbits, rows.reshape(-1)[:nwords].copy())

    def copy(self) -> "RoaringBitmap":
        """An independent handle (the arrays are never mutated)."""
        return RoaringBitmap(self._nbits, self._containers)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def nbits(self) -> int:
        return self._nbits

    @property
    def num_containers(self) -> int:
        """Resident containers (non-empty 2^16-row chunks)."""
        return len(self._sealed().keys)

    def container_kinds(self) -> list[tuple[int, str]]:
        """``(chunk_key, kind_name)`` per container — for tests and tuning."""
        held = self._sealed()
        return list(zip(held.keys.tolist(), _KIND_NAMES[held.kinds].tolist()))

    @property
    def nbytes(self) -> int:
        """In-memory footprint in bytes: the resident arrays, exactly.

        The accounting hook of byte-budget caches
        (:class:`~repro.engine.cache.SharedBitmapCache`): the three
        container arrays and the three pools, plus the fixed header and
        the padding of the stored form as the per-bitmap allowance — which
        makes it the length of :meth:`to_payload`.  A loose result seals
        first, so the size is constant once sealed, which a cached bitmap
        always is.
        """
        keys, _, _, array, runs, words, _ = self._sealed()
        return _aligned(_offsets(len(keys), len(words), len(array), len(runs))[-1])

    def count(self) -> int:
        """Population count: array sizes, run lengths and word popcounts."""
        return self._containers.count()

    def and_count(self, other: "RoaringBitmap") -> int:
        """``(self & other).count()`` without building the result: the
        aggregate-pushdown primitive.  The same routes as ``&``, but what
        they leave is counted in place — nothing is classified or converted.
        """
        self._check(other)
        left = _evaluate((self._containers, other._containers), _AND, _num_chunks(self._nbits))
        return sum(form.count() for form in left[1])

    def any(self) -> bool:
        return bool(len(self._sealed().keys))

    def to_bools(self) -> np.ndarray:
        """Decode to a boolean numpy array of length ``nbits``."""
        return self.to_bitvector().to_bools()

    def indices(self) -> np.ndarray:
        """Sorted array of set-bit positions (the RID list).

        Array or run containers alone are written out in key order; any
        other bitmap is rendered to one word row per container and
        unpacked once — never pieces by kind merged by a sort.
        """
        held = self._containers
        base = held.keys.astype(np.int64) << 16
        if not len(held.words) and not len(held.runs):
            return base.repeat(held.sizes) | held.array
        if not len(held.words) and not len(held.array):
            starts = base.repeat(held.sizes) + held.runs[:, 0]
            return _ranges(starts, held.runs[:, 1].astype(np.int64) + 1)
        n = len(held.keys)
        rank = np.zeros(_num_chunks(self._nbits), dtype=np.intp)
        rank[held.keys] = np.arange(n)
        rows = held.render(np.ones(n, dtype=bool), rank, n)
        counts = _count_bits(rows, axis=1)
        flat = _bit_positions(rows, int(counts.sum()))
        # Row r is chunk key[r], not chunk r.
        shift = base - (np.arange(n) << 16)
        if shift.any():
            flat += shift.repeat(counts)
        return flat

    def iter_indices(self) -> Iterator[int]:
        """Iterate over set-bit positions in increasing order."""
        return iter(self.indices().tolist())

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def _check(self, other: "RoaringBitmap") -> None:
        if not isinstance(other, RoaringBitmap):
            raise TypeError(f"expected RoaringBitmap, got {type(other).__name__}")
        if self._nbits != other._nbits:
            raise LengthMismatchError(
                f"cannot combine vectors of {self._nbits} and {other._nbits} bits"
            )

    def __and__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        self._check(other)
        return _combine((self, other), _AND)

    def __or__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        self._check(other)
        return _combine((self, other), _OR)

    def __xor__(self, other: "RoaringBitmap") -> "RoaringBitmap":
        self._check(other)
        return _combine((self, other), _XOR)

    def andnot(self, other: "RoaringBitmap") -> "RoaringBitmap":
        """``self AND NOT other`` as a single container-level operation."""
        self._check(other)
        return _combine((self, other), _ANDNOT)

    def __invert__(self) -> "RoaringBitmap":
        nbits, nchunks = self._nbits, _num_chunks(self._nbits)
        held = self._containers
        limit = np.full(nchunks, CHUNK_SIZE)
        limit[-1:] -= -nbits % CHUNK_SIZE
        parts = []
        flat = held.kinds != RUN
        if flat.any():
            # Array and bitmap containers: as word rows, every word flipped.
            keys = held.keys[flat]
            rank = np.zeros(nchunks, dtype=np.intp)
            rank[keys] = np.arange(len(keys))
            rows = ~held.render(flat, rank, len(keys))
            if keys[-1] == nchunks - 1 and limit[-1] < CHUNK_SIZE:
                full, rest = divmod(int(limit[-1]), 64)
                rows[-1, full] &= np.uint64((1 << rest) - 1)
                rows[-1, full + 1 :] = 0
            parts.append(_Rows(keys, rows).loose())
            limit[keys] = 0
        # Every other chunk, held or not: the gaps between its runs.  Two
        # empty spans fence each chunk in, [base, base) and [base + limit,
        # next base), so that one ascending pass finds all the gaps; the
        # first sorts before a run starting at the base (stable).
        base = np.arange(nchunks, dtype=np.int64) << _SPAN
        starts, ends = held.spans(~flat)
        starts = np.concatenate((base, base + limit, starts))
        ends = np.concatenate((base, base + (1 << _SPAN), ends))
        order = starts.argsort(kind="stable")
        gap_starts, gap_ends = ends[order][:-1], starts[order][1:]
        gaps = (gap_ends > gap_starts).nonzero()[0]
        parts.append(_Spans(gap_starts[gaps], gap_ends[gaps]).seal())
        return RoaringBitmap(nbits, _assemble(parts))

    @classmethod
    def _k_of_n(cls, vectors: Sequence["RoaringBitmap"], k: int, fold: Callable):
        """Rows set in at least ``k`` of the vectors; ``fold``: the same over word rows."""
        first = vectors[0]
        for other in vectors[1:]:
            first._check(other)
        if k <= 0:
            return cls.ones(first._nbits)
        if k > len(vectors):
            return cls.zeros(first._nbits)
        if len(vectors) == 1:
            return first.copy()
        held_by = np.arange(len(vectors) + 1)
        solo = (k == 1,) * len(vectors)
        return _combine(vectors, _Operator(held_by >= k, held_by >= max(k, 2), solo, fold))

    @classmethod
    def or_many(cls, vectors: Sequence["RoaringBitmap"]) -> "RoaringBitmap":
        """OR k bitmaps in one k-way evaluation.

        Equivalent to folding ``|`` pairwise, but the operands are aligned
        once and every chunk accumulates all its operands at once: no
        intermediate containers are built and re-opened per operand.
        """
        if not vectors:
            raise ValueError("or_many needs at least one vector")
        return cls._k_of_n(vectors, 1, lambda rows: reduce(np.bitwise_or, rows))

    @classmethod
    def and_many(cls, vectors: Sequence["RoaringBitmap"]) -> "RoaringBitmap":
        """AND k bitmaps in one k-way evaluation (see :meth:`or_many`); chunks
        missing from any operand vanish without their containers being touched."""
        if not vectors:
            raise ValueError("and_many needs at least one vector")
        return cls._k_of_n(vectors, len(vectors), lambda rows: reduce(np.bitwise_and, rows))

    @classmethod
    def threshold_many(cls, vectors: Sequence["RoaringBitmap"], k: int) -> "RoaringBitmap":
        """k-of-N threshold: bit ``i`` set iff at least ``k`` operands set it.

        ``k == 1`` is the k-way OR and ``k == N`` the k-way AND; ``k <= 0``
        clamps to the all-ones bitmap and ``k > N`` to all-zeros.  Chunks
        held by fewer than ``k`` operands are skipped without their
        containers being touched; chunks of array and run containers only
        count coverage at values and run boundaries (:func:`_tally`,
        :func:`_sweep`); the others add their word rows up in bit-sliced
        counters (:func:`~repro.bitmaps.bitvector._ripple_threshold`) —
        Kaser & Lemire's observation that no one threshold algorithm wins
        everywhere, decided per chunk by the container kinds.
        """
        if not vectors:
            raise ValueError("threshold_many needs at least one vector")
        return cls._k_of_n(vectors, k, lambda rows: _ripple_threshold(rows, k))

    # ------------------------------------------------------------------
    # Stored form
    # ------------------------------------------------------------------

    def to_payload(self) -> bytes:
        """The stored form, sealed first: the six arrays back to back."""
        held = self._sealed()
        keys, kinds, sizes, array, runs, words, _ = held
        counts = sizes.astype("<u4")
        counts[kinds == BITMAP] = _count_bits(words, axis=1)
        directory, words_at, *_, end = _offsets(len(keys), len(words), len(array), len(runs))
        return b"".join(
            (
                _HEADER.pack(_MAGIC, _VERSION, 0, self._nbits, len(keys), b""),
                keys.astype("<u2", copy=False), kinds, counts, bytes(words_at - directory),
                words.astype("<u8", copy=False), array.astype("<u2", copy=False),
                runs.astype("<u2", copy=False), bytes(_aligned(end) - end),
            )
        )  # fmt: skip

    @classmethod
    def from_payload(cls, buf, nbits: int) -> "RoaringBitmap":
        """Inverse of :meth:`to_payload`: the six arrays as uncopied views of
        ``buf`` — any bytes-like buffer, an mmap'd file region or a
        shared-memory segment included — which the bitmap keeps alive and
        never writes to.

        Raises :class:`~repro.errors.CorruptFileError` on truncated, overlong,
        or internally inconsistent payloads — a corrupt stored bitmap must
        never decode to a silently wrong answer — and on a payload that
        declares another length than ``nbits``, here instead of surfacing
        later as a length mismatch, or never.
        """
        blob = memoryview(buf)
        size = len(blob)
        magic = bytes(blob[:4])
        _require(magic == _MAGIC, "payload has bad magic {!r}", magic)
        version = blob[4] if size > 4 else None
        _require(version == _VERSION, "payload has unsupported version {}", version)
        _require(size >= _HEADER.size, "payload shorter than its header")
        _, _, _, declared, ncontainers, padding = _HEADER.unpack_from(blob)
        _require(declared == nbits, "payload declares {} bits; {} expected", declared, nbits)
        _require(size >= _offsets(ncontainers)[1], "payload truncated in its container directory")
        keys, kinds, counts = (
            np.frombuffer(blob, stored, ncontainers, _HEADER.size + at * ncontainers)
            for stored, at in (("<u2", 0), ("u1", 2), ("<u4", 3))
        )
        kind = kinds.max(initial=ARRAY)
        _require(kind <= RUN, "payload has unknown container kind {}", kind)
        _require(counts.all(), "payload contains an empty container")
        # Each pool's length follows from the directory, and so does the
        # payload's: nothing may be missing or left over.
        sizes = np.where(kinds == BITMAP, 1, counts)
        nvalues, nrows, nruns = np.bincount(kinds, sizes, 3).astype(np.int64).tolist()
        directory, words_at, array_at, runs_at, end = _offsets(ncontainers, nrows, nvalues, nruns)
        _require(size == _aligned(end), "payload holds {} bytes; {} expected", size, _aligned(end))
        padding += bytes(blob[directory:words_at]) + bytes(blob[end:])
        _require(not any(padding), "payload has nonzero padding")
        # Strictly increasing keys below the chunk count: no more
        # containers than chunks.
        _require(not (keys[1:] <= keys[:-1]).any(), "container keys not strictly increasing")
        _require(not (keys[-1:] >= _num_chunks(nbits)).any(), "container key past {} bits", nbits)
        held = _Containers(
            keys, kinds, sizes.astype(np.int32),
            np.frombuffer(blob, "<u2", nvalues, array_at),
            np.frombuffer(blob, "<u2", 2 * nruns, runs_at).reshape(-1, 2),
            np.frombuffer(blob, "<u8", nrows * BITMAP_WORDS, words_at).reshape(-1, BITMAP_WORDS),
        )  # fmt: skip
        _validate(nbits, held, counts[kinds == BITMAP])
        return cls(nbits, held)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoaringBitmap):
            return NotImplemented
        # By content: a container read by from_payload need not be of the kind a
        # sealed one would be.
        return (
            self._nbits == other._nbits
            and np.array_equal(self._sealed().keys, other._sealed().keys)
            and np.array_equal(self.indices(), other.indices())
        )

    def __hash__(self):  # pragma: no cover - parity with BitVector
        raise TypeError("RoaringBitmap is unhashable")

    def __repr__(self) -> str:
        held = self._sealed()
        counts = np.bincount(held.kinds, minlength=3).tolist()
        parts = ", ".join(f"{n} {name}" for name, n in zip(_KIND_NAMES, counts) if n)
        return (
            f"RoaringBitmap({self._nbits} bits, {held.count()} set, "
            f"containers: {parts or 'none'})"
        )


def _validate(nbits: int, held: _Containers, cardinalities: np.ndarray) -> None:
    """The per-container invariants of a payload just read, in batch."""
    keys = held.keys.astype(np.int64)
    limit = np.minimum(CHUNK_SIZE, nbits - (keys << 16))
    if len(held.array):
        # Ascending keys: one comparison covers every array at once.
        mine = held.kinds == ARRAY
        values = (keys[mine] << _SPAN).repeat(held.sizes[mine]) | held.array
        _require(
            not (values[1:] <= values[:-1]).any(),
            "array container not sorted strictly increasing",
        )
        _require(
            not (held.array >= limit[mine].repeat(held.sizes[mine])).any(),
            "array container exceeds the bitmap length",
        )
    if len(held.words):
        _require(
            not (_count_bits(held.words, axis=1) != cardinalities).any(),
            "bitmap container cardinality mismatch",
        )
        # Only the last chunk can be short of 65,536 rows.
        if held.kinds[-1] == BITMAP and limit[-1] < CHUNK_SIZE:
            tail = held.words[-1, limit[-1] >> 6 :]
            _require(
                not (tail[0] >> np.uint64(limit[-1] & 63) or tail[1:].any()),
                "bitmap container exceeds the bitmap length",
            )
    if len(held.runs):
        mine = held.kinds == RUN
        starts = (keys[mine] << _SPAN).repeat(held.sizes[mine]) + held.runs[:, 0]
        ends = starts + held.runs[:, 1] + 1
        _require(
            not (starts[1:] <= ends[:-1]).any(),
            "run container runs overlap or are not coalesced",
        )
        _require(
            not ((ends & _SPAN_LOW) > limit[mine].repeat(held.sizes[mine])).any(),
            "run container exceeds the bitmap length",
        )


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


class _Operator(NamedTuple):
    #: By coverage (how many operands hold a row; less one for ``minus``):
    #: is the row in the result.  Index -1 is the last entry.
    truth: np.ndarray
    #: By the number of operands holding a chunk: can it hold result rows.
    shared: np.ndarray
    #: Per operand: does a chunk that only it holds pass through.
    solo: tuple[bool, ...]
    #: The operator over the operands' rendered word rows.
    fold: Callable
    #: The operand whose rows count minus one, if any.
    minus: int | None = None
    #: The operands whose array containers may probe the other's container:
    #: the result holds nothing else of that chunk.
    probes: tuple[int, ...] = ()


_TWO = np.array([False, False, True])
_AND = _Operator(_TWO, _TWO, (False, False), lambda rows: rows[0] & rows[1], None, (0, 1))
_OR = _Operator(np.array([False, True, True]), _TWO, (True, True), lambda rows: rows[0] | rows[1])
_XOR = _Operator(np.array([False, True, False]), _TWO, (True, True), lambda rows: rows[0] ^ rows[1])
_ANDNOT = _Operator(
    np.array([False, True, False]), _TWO, (True, False), lambda rows: rows[0] & ~rows[1], 1, (0,)
)


def _fold_rows(vectors: Sequence[_Containers], op: _Operator, nchunks: int) -> _Rows:
    """Every chunk that can hold result rows, rendered from every operand
    into one word matrix, and the operator applied to it once."""
    first = vectors[0]
    if all(len(v.words) == len(v.keys) and np.array_equal(v.keys, first.keys) for v in vectors):
        return _Rows(first.keys, op.fold([v.words for v in vectors]))
    holders = np.zeros(nchunks, dtype=np.intp)
    passing = np.zeros(nchunks, dtype=bool)
    for v, solo in zip(vectors, op.solo):
        holders[v.keys] += 1
        passing[v.keys] |= solo
    chosen = op.shared[holders] | (passing & (holders == 1))
    rank = chosen.cumsum() - 1
    m = int(rank[-1]) + 1 if nchunks else 0
    rows = op.fold([v.render(chosen[v.keys], rank, m) for v in vectors])
    return _Rows(chosen.nonzero()[0].astype(np.uint16), rows)


def _evaluate(vectors: Sequence[_Containers], op: _Operator, nchunks: int):
    """Route every chunk of the operands and run each route once.

    Returns the *through* containers (a list, one entry per operand that
    has some) and what the other routes left, unsealed (a list of
    :class:`_Rows`, :class:`_Spans` and :class:`_Values`).  The module
    docstring describes the routes.
    """
    if all(2 * len(v.words) >= len(v.keys) for v in vectors):
        return [], [_fold_rows(vectors, op, nchunks)]
    # Direct addressing by chunk key: flags[i, key] says what operand i holds.
    flags = np.zeros((len(vectors), nchunks), dtype=np.uint8)
    for mine, v in zip(flags, vectors):
        mine[v.keys] = _KIND_FLAGS[v.kinds]
    holders = (flags != 0).sum(axis=0)
    route = _ROUTES[np.bitwise_or.reduce(flags, axis=0)] * op.shared[holders]
    left: list = []
    # The operand with more in its array containers probes first: what it
    # takes the other need not look at.
    for side in sorted(op.probes, key=lambda side: -len(vectors[side].array)):
        lean, wide = vectors[side], vectors[1 - side]
        if len(lean.array):
            # Under AND two arrays are tallied: neither is the one to probe.
            theirs = flags[1 - side] > (1 if op.minus is None else 0)
            probing = (flags[side] == 1) & theirs & (route != _DROPPED)
            if probing.any():
                route[probing] = _DROPPED
                keys, ends, values, hit = lean.probe(probing[lean.keys], wide, probing[wide.keys])
                # Both hold the chunk: AND keeps its hits, ANDNOT its misses.
                keep = (hit if op.minus is None else ~hit).nonzero()[0]
                sizes = np.searchsorted(keep, ends)
                sizes[1:] -= sizes[:-1].copy()
                left.append(_Values(keys, sizes, values[keep]))
    taken = np.bincount(route, minlength=4).tolist()
    if taken[_TALLY]:
        # Arrays whose result may outgrow an array container (every value
        # of it is in at least ``argmax(truth)`` of them) are better set in
        # a bitmap and counted there (Chambi et al., array union).
        total = np.zeros(len(route), dtype=np.int64)
        for v in vectors:
            total[v.keys] += v.sizes
        route[(route == _TALLY) & (total > ARRAY_MAX * op.truth.argmax())] = _ROWS
        taken = np.bincount(route, minlength=4).tolist()
    if taken[_TALLY]:
        chosen = route == _TALLY
        left.append(_tally([v.values(chosen[v.keys].nonzero()[0]) for v in vectors], op.truth))
    if taken[_SWEEP]:
        chosen = route == _SWEEP
        operands = [v.spans(chosen[v.keys]) for v in vectors]
        if op.minus is not None:  # its spans count minus one: ends open, starts close
            starts, ends = operands[op.minus]
            operands[op.minus] = ends, starts
        left.append(_sweep(operands, op.truth))
    if taken[_ROWS]:
        chosen = route == _ROWS
        rank = chosen.cumsum() - 1
        rows = op.fold([v.render(chosen[v.keys], rank, taken[_ROWS]) for v in vectors])
        left.append(_Rows(chosen.nonzero()[0].astype(np.uint16), rows))
    passed = []
    alone = holders == 1
    if alone.any():
        for v, solo in zip(vectors, op.solo):
            mine = alone[v.keys]
            if solo and mine.any():
                passed.append(v if mine.all() else v.take(mine.nonzero()[0]))
    return passed, left


def _combine(vectors: Sequence[RoaringBitmap], op: _Operator) -> RoaringBitmap:
    """Evaluate, seal what the sweep, tally and probe routes left, and put
    the chunks in key order; word rows stay loose."""
    nbits = vectors[0]._nbits
    passed, left = _evaluate([v._containers for v in vectors], op, _num_chunks(nbits))
    values = [form for form in left if isinstance(form, _Values)]
    if len(values) > 1:  # probed and tallied: one list of values, one seal
        merged = np.concatenate([form.positions() for form in values])
        merged.sort()
        left = [f for f in left if not isinstance(f, _Values)] + [_Values.of(merged)]
    parts = [form.loose() if isinstance(form, _Rows) else form.seal() for form in left]
    return RoaringBitmap(nbits, _assemble(passed + parts))
