"""A from-scratch Word-Aligned Hybrid (WAH) run-length bitmap codec.

The paper compresses bitmaps with zlib (deflate).  WAH is the canonical
*bitmap-specific* compression scheme from the follow-on literature (Wu,
Otoo & Shoshani); we implement it here as an ablation point so the Section 9
experiments can compare a general-purpose codec against a bitmap-aware one.

Format
------
The encoded stream is a sequence of little-endian ``uint32`` words following
an 8-byte little-endian header that records the original payload length in
bytes:

- *literal word*: most-significant bit 0; the low 31 bits are a verbatim
  group of 31 bits from the input (input bit ``k`` of the group is payload
  bit ``k``).
- *fill word*: most-significant bit 1; bit 30 is the fill value; the low
  30 bits count how many consecutive 31-bit groups consist entirely of the
  fill value.

The input bitstream is read little-endian within each byte and padded with
zero bits up to a multiple of 31.

A zero-length fill word (``0x80000000`` / ``0xC0000000``) contributes no
groups; the encoder never emits one, but the one parser here
(:func:`_parse_runs`) accepts and skips it.  A body whose groups fall short
of, or overrun, the 31-bit-padded declared length is rejected with
:class:`~repro.errors.CorruptFileError` in both directions.

Run lists
---------
Everything between the parser and the encoder works on a *run list*
``(values, ends)``: ``values`` are 31-bit group values as ``uint32`` and
``ends`` the cumulative group count after each run, where only a fill
(all-zero or all-one group) may span more than one group.  ``ends is None``
means one value per group.  :func:`_canonical` picks the form from the run
count alone — per-group once a bitmap has at least half as many runs as
groups, so an incompressible bitmap costs 4 bytes a group and its algebra
is plain word-parallel numpy; otherwise runs with equal adjacent fills
merged, so a run-structured bitmap stays O(runs).  The canonical form is
what is stored and cached: parsed payloads and built bitmaps are
canonical.  A kernel result is *loose* — the aligned form its operator
left, one value per group or runs over the merged boundaries, equal
adjacent fills not merged — and every kernel, popcount, set-bit
enumeration and the encoder (which coalesces) read it as it is; alignment
keeps the invariant that only a fill spans more than one group.  This is
what :class:`~repro.bitmaps.compressed.WahBitVector` holds in memory,
canonicalized once when a loose result's resident size is asked for; the
byte payload exists only at its ``to_payload`` / ``from_payload``
boundary.

Payload words
-------------
This module has no public byte API: the payload is written by
``WahBitVector.to_payload`` and read by ``WahBitVector.from_payload``
only.  Payload words are made in one place, :func:`_payload_words`,
from coalesced runs, into one array that holds the length header too.
Runs reach it from a run list through :func:`_encode_runs`
(``to_payload``), and from one value per group through the one scan
that coalesces groups, :func:`_group_runs` — which is how the index
store's writer packs a slot straight from its digit layout
(``WahBitVector._pack``) and how ``from_bitvector`` finds its canonical
form.  Payload words are read in one place, :func:`_parse_runs`: a
payload whose canonical form is one value per group expands straight to
its groups, with one ``np.repeat`` by the words' group counts.
``from_payload`` then holds the runs to the bit length it is given:
:func:`_set_past` rejects a set bit at or past ``nbits``, the bits
``_pack`` masks off.

Compressed-domain algebra
-------------------------
AND/OR/XOR/NOT, k-of-N threshold and popcount run on run lists without
materializing bits.  :func:`_align` brings the operands onto common
segments: when they hold at least half as many runs as there are groups
they are expanded to one value per group (``np.repeat``; a no-op for
per-group operands); otherwise the run boundaries of all operands are
merged in one sorted pass (the array form of Kaser & Lemire's
heap-of-run-readers — the sorted union of boundary positions is exactly
the order in which a heap of readers would surface them) and each operand
is sampled at the merged boundaries.  The operator then applies to aligned
``uint32`` values in one numpy expression.  The kernels take and return
run lists; :class:`~repro.bitmaps.compressed.WahBitVector` is their one
caller.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Sequence

import numpy as np

from repro.bitmaps.bitvector import _count_bits, _ripple_threshold
from repro.errors import CorruptFileError

_GROUP_BITS = 31
_LITERAL_MASK = (1 << _GROUP_BITS) - 1
_FILL_FLAG = 1 << 31
_FILL_VALUE_FLAG = 1 << 30
_MAX_RUN = (1 << 30) - 1
_HEADER = struct.Struct("<Q")

#: A run list ``(values, ends)``; see the module docstring.
Runs = tuple[np.ndarray, np.ndarray | None]


def _expected_groups(orig_len: int) -> int:
    """Number of 31-bit groups a payload of ``orig_len`` bytes decodes to."""
    return (orig_len * 8 + _GROUP_BITS - 1) // _GROUP_BITS


# ----------------------------------------------------------------------
# Bits <-> groups
# ----------------------------------------------------------------------


#: 31 bytes of a bitstream hold exactly 8 groups: a *row*, read as four
#: 64-bit words (the last one a byte short).  Group ``j`` starts at bit
#: ``31 j``, so it lies in word ``w`` shifted by ``31 j - 64 w``:
#: ``(w, j, |shift|, shift >= 0)``.  Groups 2, 4 and 6 straddle two words.
_PLACES = [
    (word, group, np.uint64(abs(shift)), shift >= 0)
    for word in range(4)
    for group in range(8)
    for shift in [_GROUP_BITS * group - 64 * word]
    if -_GROUP_BITS < shift < 64
]


def _groups_from_bytes(data) -> np.ndarray:
    """Chunk a little-endian bitstream into ``uint32`` groups of 31 bits."""
    nrows = -(-len(data) // _GROUP_BITS)
    body = np.frombuffer(data, dtype=np.uint8)
    rows = np.zeros((nrows, 32), dtype=np.uint8)  # a zero byte ends each row
    full = len(body) // _GROUP_BITS
    rows[:full, :_GROUP_BITS] = body[: full * _GROUP_BITS].reshape(full, _GROUP_BITS)
    if full < nrows:
        rows[full, : len(body) % _GROUP_BITS] = body[full * _GROUP_BITS :]
    words = rows.view(np.uint64)
    groups = np.zeros((nrows, 8), dtype=np.uint64)
    for word, group, shift, left in _PLACES:
        column = words[:, word]
        groups[:, group] |= column >> shift if left else column << shift
    groups &= np.uint64(_LITERAL_MASK)
    return groups.astype(np.uint32).reshape(-1)[: _expected_groups(len(data))]


def _bytes_from_groups(groups: np.ndarray) -> np.ndarray:
    """The inverse of :func:`_groups_from_bytes`: ``uint32`` groups of 31
    bits as a little-endian bitstream, 31 bytes per 8 groups (whatever
    follows the last group is zero)."""
    nrows = -(-len(groups) // 8)
    # Not np.zeros: a large zeroed block is fresh pages, faulted in on write.
    padded = np.empty((nrows, 8), dtype=np.uint64)
    padded.reshape(-1)[: len(groups)] = groups
    padded.reshape(-1)[len(groups) :] = 0
    words = np.zeros((nrows, 4), dtype=np.uint64)
    for word, group, shift, left in _PLACES:
        column = padded[:, group]
        words[:, word] |= column << shift if left else column >> shift
    return words.view(np.uint8)[:, :_GROUP_BITS].reshape(-1)


# ----------------------------------------------------------------------
# Run lists: canonical form, parse, encode
# ----------------------------------------------------------------------


def _expand(runs: Runs) -> np.ndarray:
    """One value per group."""
    values, ends = runs
    return values if ends is None else np.repeat(values, np.diff(ends, prepend=0))


def _is_fill(values: np.ndarray) -> np.ndarray:
    return (values == 0) | (values == _LITERAL_MASK)


def _fill_joins(values: np.ndarray) -> np.ndarray:
    """``joins[i]``: runs ``i`` and ``i + 1`` are one fill split in two."""
    return (values[:-1] == values[1:]) & _is_fill(values[:-1])


def _coalesce(runs: Runs) -> tuple[np.ndarray, np.ndarray]:
    """The run form (``ends`` given) with equal adjacent fills merged."""
    values, ends = runs
    joins = _fill_joins(values)
    if not joins.any():
        return values, ends
    keep = np.append(~joins, True)
    return values[keep], ends[keep]


def _group_runs(groups: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """One value per group, coalesced in one scan: ``(values, lengths)``
    of the runs, equal adjacent fills merged, each run's group count in
    ``lengths`` — ``None`` when no fill spans two groups, so that every
    run is its one group and ``values`` are ``groups`` themselves."""
    joins = _fill_joins(groups)
    if not joins.any():
        return groups, None
    starts = np.empty(len(groups), dtype=bool)
    starts[0] = True
    np.logical_not(joins, out=starts[1:])
    first = np.flatnonzero(starts)
    return groups[first], np.diff(first, append=len(groups))


def _group_form(groups: np.ndarray) -> Runs:
    """The canonical run list of one value per group, by the one scan:
    the groups themselves while the runs are at least half as many, the
    coalesced runs otherwise."""
    values, lengths = _group_runs(groups)
    if lengths is None or 2 * len(values) >= len(groups):
        return groups, None
    return values, lengths.cumsum()


def _canonical(runs: Runs, ngroups: int) -> Runs:
    """The one in-memory form of a bitmap; the run count alone decides it."""
    values, ends = runs
    if ends is None:
        return _group_form(values)
    runs = _coalesce(runs)
    if 2 * len(runs[0]) >= ngroups:
        return _expand(runs), None
    return runs


def _parse_runs(blob) -> tuple[int, Runs]:
    """Parse and validate a payload into ``(orig_len, canonical run list)``.

    Zero-length fill words are skipped.  The total group count is checked
    against the declared byte length in both directions: too few groups
    and too many groups each raise :class:`CorruptFileError`.  A payload
    whose canonical form is one value per group expands straight to its
    groups, one ``np.repeat`` by the words' group counts; otherwise equal
    adjacent fills merge, as the encoder would have.  The arrays returned
    never alias ``blob``.
    """
    if len(blob) < _HEADER.size:
        raise CorruptFileError("WAH payload shorter than its header")
    (orig_len,) = _HEADER.unpack_from(blob)
    if (len(blob) - _HEADER.size) % 4:
        raise CorruptFileError("WAH body is not word-aligned")
    words = np.frombuffer(blob, dtype=np.uint32, offset=_HEADER.size)

    values = words & np.uint32(_LITERAL_MASK)
    lengths = np.ones(len(words), dtype=np.uint32)  # groups per word
    fills = np.flatnonzero(words >= np.uint32(_FILL_FLAG))
    fill_words = words[fills]
    lengths[fills] = fill_words & np.uint32(_MAX_RUN)
    values[fills] = np.where(
        fill_words & np.uint32(_FILL_VALUE_FLAG), np.uint32(_LITERAL_MASK), 0
    )
    if not lengths.all():
        values, lengths = values[lengths > 0], lengths[lengths > 0]

    total = int(lengths.sum(dtype=np.int64))
    expected = _expected_groups(orig_len)
    if total < expected:
        raise CorruptFileError("WAH payload decodes to fewer bits than declared")
    if total > expected:
        raise CorruptFileError(
            "WAH payload decodes to more groups than the padded declared "
            "length allows"
        )
    joins = _fill_joins(values)
    if 2 * (len(values) - np.count_nonzero(joins)) >= expected:
        # Canonically one value per group: each word repeated by its
        # group count (nothing to repeat when every word is one group).
        return orig_len, (values if total == len(values) else values.repeat(lengths), None)
    ends = np.cumsum(lengths, dtype=np.int64)
    if joins.any():
        keep = np.append(~joins, True)
        values, ends = values[keep], ends[keep]
    return orig_len, (values, ends)


def _set_past(runs: Runs, nbits: int) -> bool:
    """Whether a bit at or past ``nbits`` is set: in the group holding bit
    ``nbits``, above its low ``nbits % 31`` bits, or in any later group —
    what ``WahBitVector._pack`` masks off.  Only the runs from that group
    on are read; nothing is expanded."""
    values, ends = runs
    full, rest = divmod(nbits, _GROUP_BITS)
    first = full if ends is None else int(np.searchsorted(ends, full, side="right"))
    tail = values[first:]
    return len(tail) > 0 and bool(tail[0] >> np.uint32(rest) or tail[1:].any())


def _payload_words(
    values: np.ndarray, lengths: np.ndarray | None, orig_len: int
) -> np.ndarray:
    """The payload of coalesced runs (``lengths is None``: one group each)
    as ``<u4`` words, the two words of the length header first: one fill
    word per fill run, one literal word per other group.  The one place
    payload words are made."""
    if lengths is not None and len(lengths) and lengths.max() > _MAX_RUN:
        # A fill longer than 2^30 - 1 groups (> 33 Gbit) spans several
        # words: full-length ones first, the remainder last.
        counts = -(-lengths // _MAX_RUN)
        rest = lengths - (counts - 1) * _MAX_RUN
        values = np.repeat(values, counts)
        lengths = np.full(len(values), _MAX_RUN)
        lengths[np.cumsum(counts) - 1] = rest
    out = np.empty(2 + len(values), dtype="<u4")
    _HEADER.pack_into(out, 0, orig_len)
    body = out[2:]
    body[:] = values
    fills = np.flatnonzero(_is_fill(values))
    count = 1 if lengths is None else lengths[fills].astype(np.uint32)
    body[fills] = np.uint32(_FILL_FLAG) | (values[fills] & np.uint32(_FILL_VALUE_FLAG)) | count
    return out


def _encode_runs(runs: Runs, orig_len: int) -> bytes:
    """The canonical payload of a run list: one word per coalesced run."""
    values, ends = runs
    if ends is None:
        values, lengths = _group_runs(values)
    else:
        values, ends = _coalesce(runs)
        lengths = np.diff(ends, prepend=0)
    return _payload_words(values, lengths, orig_len).tobytes()


# ----------------------------------------------------------------------
# Run-level kernels
# ----------------------------------------------------------------------


def _align(
    operands: Sequence[Runs], ngroups: int
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Sample k run lists on common segments: ``(aligned values, ends)``.

    With at least half as many runs as groups the segments are the groups
    themselves.  Otherwise they are the merged, deduplicated run
    boundaries; every merged segment is covered by exactly one run of each
    operand, located with one ``searchsorted`` per operand.
    """
    if 2 * sum(len(values) for values, _ in operands) >= ngroups:
        return [_expand(runs) for runs in operands], None
    merged = np.concatenate([ends for _, ends in operands])
    merged.sort()
    merged = merged[np.append(merged[1:] != merged[:-1], True)]
    return [
        values[np.searchsorted(ends, merged, side="left")]
        for values, ends in operands
    ], merged


def _combine(operands: Sequence[Runs], op: Callable, ngroups: int) -> Runs:
    """Fold ``op`` over k run lists; the result is loose (not canonical)."""
    aligned, ends = _align(operands, ngroups)
    acc = aligned[0]
    for other in aligned[1:]:
        acc = op(acc, other)
    return acc, ends


def _threshold(operands: Sequence[Runs], k: int, ngroups: int) -> Runs:
    """Groups whose bit ``i`` is set in at least ``k`` of ``1 <= k <= N``
    operands; the result is loose (not canonical).

    The aligned values go through the shared bit-sliced counter and
    comparator (:func:`~repro.bitmaps.bitvector._ripple_threshold`); bit 31
    of a group value is set in no operand, so it stays clear.
    """
    aligned, ends = _align(operands, ngroups)
    return _ripple_threshold(aligned, k), ends


def _popcount(runs: Runs) -> int:
    """Set bits: each run's group popcount times its length."""
    values, ends = runs
    if ends is None:
        return int(_count_bits(values))
    return int(np.bitwise_count(values).astype(np.int64) @ np.diff(ends, prepend=0))


def _and_popcount(a: Runs, b: Runs, ngroups: int) -> int:
    """Popcount of ``a AND b``; no result run list is canonicalized."""
    (left, right), ends = _align([a, b], ngroups)
    return _popcount((left & right, ends))


def _ones_runs(valid_bits: int, ngroups: int) -> Runs:
    """Run list with the first ``valid_bits`` bits set over ``ngroups``
    groups, in the run form (coalesced, not necessarily canonical)."""
    full, tail = divmod(valid_bits, _GROUP_BITS)
    values, ends = [], [0]
    for value, end in (
        (_LITERAL_MASK, full),
        ((1 << tail) - 1, full + (tail > 0)),
        (0, ngroups),
    ):
        if min(end, ngroups) > ends[-1]:
            values.append(value)
            ends.append(min(end, ngroups))
    return np.asarray(values, dtype=np.uint32), np.asarray(ends[1:], dtype=np.int64)


def _not(runs: Runs, valid_bits: int, ngroups: int) -> Runs:
    """Complement, keeping every bit from ``valid_bits`` on at zero."""
    values, ends = runs
    inverted = (values ^ np.uint32(_LITERAL_MASK), ends)
    return _combine(
        [inverted, _ones_runs(valid_bits, ngroups)], np.bitwise_and, ngroups
    )
