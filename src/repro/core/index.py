"""The bitmap index: n decomposed components, each equality- or range-encoded.

:class:`BitmapIndex` is the central object of the library.  It is built from
a column of values, a decomposition :class:`~repro.core.decomposition.Base`,
and an :class:`~repro.core.encoding.EncodingScheme`, and implements the
*bitmap source* protocol consumed by the evaluation algorithms
(:mod:`repro.core.evaluation`): ``fetch(component, slot, stats)`` returns a
stored bitmap and records one scan.

The paper assumes attribute values are consecutive integers ``0 .. C-1``;
for the general case it prescribes a lookup table mapping actual values to
ranks (Section 2).  :func:`rank_values` computes that table, and
:class:`~repro.relation.column.Column` keeps it: an index is built over a
column's ranks, and a predicate on actual values is translated to one on
ranks (:meth:`~repro.relation.column.Column.code_bounds`; order-preserving,
so range predicates survive translation) before it reaches the index.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.bitmaps import Bitmap, BitVector, bitmap_class
from repro.core.decomposition import Base, integer_nth_root_ceil
from repro.core.encoding import (
    EncodingScheme,
    build_component,
    sealed,
    stored_bitmap_count,
    with_bit,
)
from repro.errors import InvalidBaseError, ValueOutOfRangeError
from repro.stats import ExecutionStats


@runtime_checkable
class BitmapSource(Protocol):
    """What the evaluation algorithms need from an index-like object.

    Implemented by :class:`BitmapIndex` (in memory), the index store's
    source, the storage schemes of :mod:`repro.experiments.schemes`
    (simulated disk), :class:`CodecView`, and the cache-routed sources of
    :mod:`repro.engine.cache` (the buffer pool among them).  A relation
    hands out its attributes' sources (``Relation.bitmap_source``): an
    index it builds, or its store image's source.  Such a source also
    names ``stored_codec``, the representation its bitmaps are persisted
    in (``None`` for an index: nothing is stored).

    A source's ``bitmap_codec`` attribute is the one way it names the
    representation it serves — a key of
    :data:`repro.bitmaps.BITMAP_CLASSES` — for every bitmap it returns,
    including ``nonnull``.  The evaluation algorithms are generic over
    the :class:`~repro.bitmaps.Bitmap` protocol and synthesize their
    virtual all-zero/all-one bitmaps in whichever representation the
    source declares.  Sources that can serve more than one representation
    (:class:`BitmapIndex`, the index store's) re-represent themselves with
    ``with_codec(name)``: the identity for the codec they already serve,
    otherwise a source converting each bitmap it serves.

    A source's bitmaps never change: maintenance returns a successor index
    and leaves its predecessor as it was, and a store source reads one
    image.  Whatever keeps a fetched bitmap keys it by the source it came
    from (the engine: by the registration record that serves it).
    """

    # Read-only, so a plain attribute and a property both implement them.
    @property
    def nbits(self) -> int: ...
    @property
    def cardinality(self) -> int: ...
    @property
    def base(self) -> Base: ...
    @property
    def encoding(self) -> EncodingScheme: ...
    @property
    def nonnull(self) -> Bitmap | None: ...
    @property
    def bitmap_codec(self) -> str: ...

    def fetch(
        self, component: int, slot: int, stats: ExecutionStats
    ) -> Bitmap:
        """Read stored bitmap ``slot`` of ``component`` (1-based), recording a scan."""
        ...


@dataclass(frozen=True)
class IndexSpec:
    """The design of one attribute's bitmap index, as a query engine serves it.

    ``base`` pins an exact decomposition (it must cover the attribute's
    cardinality).  ``components`` instead asks for the smallest uniform
    ``n``-component base for whatever the cardinality turns out to be —
    the right knob when one registration covers attributes of different
    cardinalities.  With neither, the single-component base ``<C>`` is
    used (the index default).  ``encoding`` ``None`` is range encoding in
    memory and the stored encoding for a store's view.  ``codec`` selects
    this attribute's bitmap representation (``'dense'``/``'wah'``/
    ``'roaring'``); ``None`` defers to the codec a store holds the bitmaps
    in, then the engine's.
    """

    base: Base | None = None
    encoding: EncodingScheme | None = None
    components: int | None = None
    codec: str | None = None

    def resolve_base(self, cardinality: int) -> Base | None:
        if self.base is not None:
            return self.base
        if self.components is not None:
            b = integer_nth_root_ceil(cardinality, self.components)
            return Base.uniform(max(b, 2), cardinality)
        return None


def rank_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``values`` and every value's rank among them — the
    paper's lookup table (Section 2); equal to
    ``np.unique(values, return_inverse=True)`` in values and dtypes.

    An integer column spanning at most ``max(65536, 2 * rows)`` values is
    ranked by counting, not sorting: counting's table is then at most
    twice the column (or 512 KB).  The ranks of values that already are
    ``0 .. C-1`` — the paper's assumption — are the input itself.
    """
    span = None
    if values.dtype.kind in "iu" and values.ndim == 1 and values.size:
        low = values.min()
        span = int(values.max()) - int(low) + 1
    if span is None or span > max(65536, 2 * values.size):
        return np.unique(values, return_inverse=True)
    offsets = values
    if low != 0 or values.dtype != np.intp:
        # Wrapping arithmetic is exact here whatever the dtype: the true
        # offsets fit intp, though ``values - low`` may not fit its own.
        offsets = np.subtract(values, low, dtype=np.intp, casting="unsafe")
    present = np.bincount(offsets, minlength=span) > 0
    dictionary = np.flatnonzero(present).astype(values.dtype) + low
    if len(dictionary) == span:
        return dictionary, offsets
    return dictionary, (np.cumsum(present) - 1)[offsets]


def _checked_base(base: Base | None, cardinality: int) -> Base:
    """``base`` (``<C>`` when ``None``) for an attribute of ``cardinality``
    values; a cardinality below 2, or a base that cannot cover it, raises
    :class:`~repro.errors.InvalidBaseError`."""
    if cardinality < 2:
        raise InvalidBaseError("attribute cardinality must be at least 2")
    if base is None:
        base = Base.single(cardinality)
    if not base.covers(cardinality):
        raise InvalidBaseError(
            f"base {base} (capacity {base.capacity}) cannot represent "
            f"cardinality {cardinality}"
        )
    return base


def _checked_ranks(values, nulls, cardinality: int):
    """``values`` as 1-D int64 ranks, ``nulls`` as a mask of their shape (or
    ``None``), and the ranks to encode: NULL rows as 0, all in ``[0, C)``."""
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 1:
        raise ValueOutOfRangeError("values must be a 1-D array")
    encode_values = values
    if nulls is not None:
        nulls = np.asarray(nulls, dtype=bool)
        if nulls.shape != values.shape:
            raise ValueOutOfRangeError("nulls mask must match values shape")
        encode_values = np.where(nulls, 0, values)
    if encode_values.size and (
        encode_values.min() < 0 or encode_values.max() >= cardinality
    ):
        raise ValueOutOfRangeError(f"values outside [0, {cardinality})")
    return values, nulls, encode_values


class BitmapIndex:
    """An n-component bitmap index over an integer column in ``[0, C)``.

    Parameters
    ----------
    values:
        Integer array of attribute values (ranks), one per record.
    cardinality:
        Attribute cardinality ``C``.  Values must lie in ``[0, C)``.
    base:
        Decomposition base; must cover ``C``.  Defaults to the
        single-component base ``<C>`` (the classical Value-List /
        Bit-Sliced shape, depending on encoding).
    encoding:
        Equality or range encoding, applied to every component.
    nulls:
        Optional boolean mask marking NULL records.  NULL records are
        encoded as digit 0 everywhere but masked out of every query result
        through the ``B_nn`` bitmap, as in the paper's algorithms.
    keep_values:
        Keep the raw value column for verification via :meth:`naive_eval`
        (default on; switch off to save memory in large experiments).
    """

    def __init__(
        self,
        values: np.ndarray,
        cardinality: int,
        base: Base | None = None,
        encoding: EncodingScheme = EncodingScheme.RANGE,
        nulls: np.ndarray | None = None,
        keep_values: bool = True,
    ):
        base = _checked_base(base, cardinality)
        values, nulls, encode_values = _checked_ranks(values, nulls, cardinality)
        self.nonnull: BitVector | None = (
            sealed(BitVector.from_bools(~nulls)) if nulls is not None else None
        )
        self.nbits = len(values)
        self.cardinality = cardinality
        self.base = base
        self.encoding = encoding
        # Ranks in [0, C) are digits in range: checked once, above.
        digit_columns = base._digit_columns(encode_values)
        # components[0] is component 1 (least significant), matching the
        # paper's numbering used throughout evaluation and cost model.
        self.components = [
            build_component(digit_columns[i], base.component(i + 1), encoding)
            for i in range(base.n)
        ]
        self._values = values.copy() if keep_values else None

    # ------------------------------------------------------------------
    # Bitmap source protocol
    # ------------------------------------------------------------------

    #: The index itself serves dense bitmaps; :meth:`with_codec` gives a
    #: view serving another representation.  Nothing is stored.
    bitmap_codec = "dense"
    stored_codec = None

    def fetch(self, component: int, slot: int, stats: ExecutionStats) -> Bitmap:
        """Return stored bitmap ``slot`` of ``component``, recording one scan."""
        bitmap = self.components[component - 1].bitmap(slot)
        stats.record_scan(nbytes=bitmap.nbytes)
        if stats.trace is not None:
            stats.trace.event(
                "index.fetch",
                kind="fetch",
                component=component,
                slot=slot,
                nbytes=bitmap.nbytes,
                source="index",
            )
        return bitmap

    def with_codec(self, codec: str) -> "BitmapIndex | CodecView":
        """This index as a source serving ``codec`` bitmaps: the identity
        for ``"dense"``, otherwise a :class:`CodecView` of it."""
        if codec == self.bitmap_codec:
            return self
        return CodecView(self, codec)

    def stored_slots(self, component: int) -> tuple[int, ...]:
        """Stored digit slots of a component (1-based component number)."""
        return self.components[component - 1].stored_slots()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Cardinality of the indexed relation (bits per bitmap)."""
        return self.nbits

    @property
    def num_bitmaps(self) -> int:
        """Stored bitmaps across all components — the paper's space metric."""
        return sum(c.num_stored for c in self.components)

    @property
    def size_in_bits(self) -> int:
        """Uncompressed size: ``num_bitmaps * N`` bits."""
        return self.num_bitmaps * self.nbits

    def expected_bitmaps(self) -> int:
        """Space predicted by Theorem 5.1 (should equal :attr:`num_bitmaps`)."""
        return sum(
            stored_bitmap_count(self.base.component(i + 1), self.encoding)
            for i in range(self.base.n)
        )

    def bit_matrix(self) -> np.ndarray:
        """The index as the paper's ``N x num_bitmaps`` boolean bit-matrix.

        Columns are ordered component 1 first, slots increasing — the
        layout the Index-level Storage scheme serializes row-major.
        """
        columns = []
        for comp in self.components:
            for slot in comp.stored_slots():
                columns.append(comp.bitmap(slot).to_bools())
        return np.column_stack(columns) if columns else np.zeros((self.nbits, 0), bool)

    # ------------------------------------------------------------------
    # Maintenance (extension)
    # ------------------------------------------------------------------
    #
    # The paper targets read-mostly environments precisely because bitmap
    # maintenance is expensive; these methods implement it anyway — and
    # return how many bitmaps each operation touched, which is the
    # quantity behind that motivation (see the `ablation_updates`
    # experiment).  Each returns ``(successor, touched)`` and leaves this
    # index as it was: the successor shares every untouched bitmap.

    def append(
        self, values: np.ndarray, nulls: np.ndarray | None = None
    ) -> tuple["BitmapIndex", int]:
        """Append new records.

        Every stored bitmap is extended (appends touch all of them — the
        cheap dimension of bitmap maintenance, since it is a sequential
        rewrite).  Values are ranks in ``[0, C)``; growing the
        cardinality is not supported.
        """
        values, nulls, encode_values = _checked_ranks(values, nulls, self.cardinality)
        successor = self._successor()
        digit_columns = self.base._digit_columns(encode_values)
        for i, component in enumerate(successor.components):
            component.append_rows(digit_columns[i])
        if nulls is not None or self.nonnull is not None:
            # The first NULL starts tracking them: existing rows are all valid.
            old = self.nonnull if self.nonnull is not None else BitVector.ones(self.nbits)
            new = ~nulls if nulls is not None else np.ones(len(values), bool)
            successor.nonnull = sealed(BitVector.from_bools(np.concatenate((old.to_bools(), new))))
        if self._values is not None:
            successor._values = np.concatenate((self._values, values))
        successor.nbits += len(values)
        return successor, successor.num_bitmaps

    def update(self, rid: int, value: int) -> tuple["BitmapIndex", int]:
        """Change one record's value.

        This is the expensive dimension: a range-encoded component flips
        the record's bit in every bitmap between the old and new digit,
        up to ``b_i - 1`` of them.
        """
        self._check_rid(rid)
        if not 0 <= value < self.cardinality:
            raise ValueOutOfRangeError(f"value outside [0, {self.cardinality})")
        successor = self._successor()
        touched = 0
        for component, digit in zip(successor.components, self.base.digits(value)):
            touched += component.set_row(rid, digit)
        if self.nonnull is not None and not self.nonnull.get(rid):
            successor.nonnull = with_bit(self.nonnull, rid, True)  # revives a deleted row
            touched += 1
        if self._values is not None:
            successor._values = self._values.copy()
            successor._values[rid] = value
        return successor, touched

    def delete(self, rid: int) -> tuple["BitmapIndex", int]:
        """Logically delete one record via the non-null (existence) bitmap.

        ``touched`` is 1, or 2 on the first delete, which materializes the
        existence bitmap (or 0 for a row already deleted).
        """
        self._check_rid(rid)
        nonnull = self.nonnull if self.nonnull is not None else BitVector.ones(self.nbits)
        successor = self._successor()
        successor.nonnull = with_bit(nonnull, rid, False)
        return successor, (self.nonnull is None) + nonnull.get(rid)

    def _successor(self) -> "BitmapIndex":
        """A copy to edit, sharing each bitmap until it replaces it."""
        successor = copy.copy(self)
        successor.components = [component.edited() for component in self.components]
        return successor

    def _check_rid(self, rid: int) -> None:
        if not 0 <= rid < self.nbits:
            raise ValueOutOfRangeError(
                f"rid {rid} out of range for {self.nbits} records"
            )

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def naive_eval(self, op: str, value: int) -> BitVector:
        """Evaluate ``A op value`` directly on the raw column (ground truth)."""
        if self._values is None:
            raise RuntimeError(
                "index was built with keep_values=False; naive_eval unavailable"
            )
        # Imported here: evaluation.py itself imports this module.
        from repro.core.evaluation import COMPARE

        if op not in COMPARE:
            raise ValueOutOfRangeError(f"unknown operator {op!r}")
        mask = COMPARE[op](self._values, value)
        if self.nonnull is not None:
            mask = mask & self.nonnull.to_bools()
        return BitVector.from_bools(mask)

    def __repr__(self) -> str:
        return (
            f"BitmapIndex(N={self.nbits}, C={self.cardinality}, "
            f"base={self.base}, encoding={self.encoding}, "
            f"bitmaps={self.num_bitmaps})"
        )


class CodecView:
    """A :class:`BitmapSource` serving another source's bitmaps in ``codec``.

    Every bitmap (stored slots and ``nonnull``) is fetched through the
    wrapped source — so a scan is charged at the bytes that source read —
    and recoded into the representation named by ``codec`` under the
    ``{codec}.encode`` span, so the evaluation algorithms run entirely in
    that domain.  It is :meth:`BitmapIndex.with_codec`'s view.  Nothing is
    kept: the engine's :class:`~repro.engine.cache.CachedSource` is the
    one layer that retains served bitmaps.
    """

    def __init__(self, source: BitmapSource, codec: str):
        self._cls = bitmap_class(codec)  # an unknown name raises here
        self._source = source
        self.bitmap_codec = codec

    nbits = property(lambda self: self._source.nbits)
    cardinality = property(lambda self: self._source.cardinality)
    base = property(lambda self: self._source.base)
    encoding = property(lambda self: self._source.encoding)

    @property
    def nonnull(self) -> Bitmap | None:
        nonnull = self._source.nonnull
        return None if nonnull is None else self._cls.from_bitvector(nonnull.to_bitvector())

    def fetch(self, component: int, slot: int, stats: ExecutionStats) -> Bitmap:
        bitmap = self._source.fetch(component, slot, stats)
        with stats.span(
            f"{self.bitmap_codec}.encode", kind="decode", component=component, slot=slot
        ):
            return self._cls.from_bitvector(bitmap.to_bitvector())

    def __repr__(self) -> str:
        return f"CodecView({self._source!r}, codec={self.bitmap_codec!r})"
