"""The bitmap index: n decomposed components, each equality- or range-encoded.

:class:`BitmapIndex` is the central object of the library.  It is built from
a column of values, a decomposition :class:`~repro.core.decomposition.Base`,
and an :class:`~repro.core.encoding.EncodingScheme`, and implements the
*bitmap source* protocol consumed by the evaluation algorithms
(:mod:`repro.core.evaluation`): ``fetch(component, slot, stats)`` returns a
stored bitmap and records one scan.

The paper assumes attribute values are consecutive integers ``0 .. C-1``;
for the general case it prescribes a lookup table mapping actual values to
ranks (Section 2).  :meth:`BitmapIndex.for_column` implements exactly that:
it factorizes an arbitrary value column and keeps the sorted-value
dictionary so predicates on original values can be translated to rank
predicates (order-preserving, so range predicates survive translation).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.bitmaps import Bitmap, BitVector, bitmap_class
from repro.core.decomposition import Base
from repro.core.encoding import (
    EncodingScheme,
    build_component,
    stored_bitmap_count,
)
from repro.errors import InvalidBaseError, ValueOutOfRangeError
from repro.stats import ExecutionStats


@runtime_checkable
class BitmapSource(Protocol):
    """What the evaluation algorithms need from an index-like object.

    Implemented by :class:`BitmapIndex` (in memory), the storage schemes of
    :mod:`repro.experiments.schemes` (simulated disk), and the buffer pool of
    :mod:`repro.storage.buffer`.

    A source's ``bitmap_codec`` attribute is the one way it names the
    representation it serves — a key of
    :data:`repro.bitmaps.BITMAP_CLASSES` — for every bitmap it returns,
    including ``nonnull``.  The evaluation algorithms are generic over
    the :class:`~repro.bitmaps.Bitmap` protocol and synthesize their
    virtual all-zero/all-one bitmaps in whichever representation the
    source declares.  Sources that can serve more than one representation
    (:class:`BitmapIndex`, the index store's) re-represent themselves with
    ``with_codec(name)``, which is the identity for the codec they
    already serve.
    """

    nbits: int
    cardinality: int
    base: Base
    encoding: EncodingScheme
    nonnull: Bitmap | None
    bitmap_codec: str

    def fetch(
        self, component: int, slot: int, stats: ExecutionStats
    ) -> Bitmap:
        """Read stored bitmap ``slot`` of ``component`` (1-based), recording a scan."""
        ...


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
        if cardinality < 2:
            raise InvalidBaseError("attribute cardinality must be at least 2")
        if base is None:
            base = Base.single(cardinality)
        if not base.covers(cardinality):
            raise InvalidBaseError(
                f"base {base} (capacity {base.capacity}) cannot represent "
                f"cardinality {cardinality}"
            )
        values, nulls, encode_values = _checked_ranks(values, nulls, cardinality)
        self.nonnull: BitVector | None = (
            BitVector.from_bools(~nulls) if nulls is not None else None
        )
        self.nbits = len(values)
        self.cardinality = cardinality
        self.base = base
        self.encoding = encoding
        digit_columns = base.digit_arrays(encode_values)
        # components[0] is component 1 (least significant), matching the
        # paper's numbering used throughout evaluation and cost model.
        self.components = [
            build_component(digit_columns[i], base.component(i + 1), encoding)
            for i in range(base.n)
        ]
        self._values = values.copy() if keep_values else None
        self._nulls = nulls.copy() if nulls is not None else None
        # Bumped by every maintenance operation; consumers holding derived
        # artifacts (shared-memory publications, serialized snapshots)
        # compare versions to detect staleness.
        self.version = 0
        # Lazily encoded compressed bitmaps for the compressed execution
        # modes, keyed by (codec, component, slot); invalidated by
        # maintenance.
        self._encoded_bitmaps: dict[tuple[str, int, int], Bitmap] = {}

    # ------------------------------------------------------------------
    # Construction from arbitrary (non-consecutive) values
    # ------------------------------------------------------------------

    @classmethod
    def for_column(
        cls,
        column: np.ndarray,
        base: Base | None = None,
        encoding: EncodingScheme = EncodingScheme.RANGE,
        nulls: np.ndarray | None = None,
    ) -> "BitmapIndex":
        """Build an index over arbitrary orderable values.

        The distinct values are ranked (the paper's lookup-table approach);
        the sorted dictionary is kept on the returned index as
        :attr:`value_dictionary` and used by :meth:`rank_of` to translate
        predicates on original values.
        """
        column = np.asarray(column)
        if nulls is not None:
            nulls = np.asarray(nulls, dtype=bool)
            fill = column[~nulls][0] if (~nulls).any() else column[0]
            effective = np.where(nulls, fill, column)
        else:
            effective = column
        dictionary, ranks = rank_values(effective)
        if len(dictionary) < 2:
            raise InvalidBaseError(
                "column has fewer than 2 distinct values; a bitmap index "
                "needs attribute cardinality >= 2"
            )
        index = cls(
            ranks,
            cardinality=len(dictionary),
            base=base,
            encoding=encoding,
            nulls=nulls,
        )
        index.value_dictionary = dictionary
        return index

    value_dictionary: np.ndarray | None = None

    def rank_of(self, value, side: str = "left") -> int:
        """Translate an original value to a rank for predicate evaluation.

        For a value present in the dictionary this is its rank.  For an
        absent value, ``side='left'`` returns the rank of the smallest
        dictionary value ``>= value`` (suitable for ``>=``/``<``
        predicates) and ``side='right'`` returns that rank minus one is
        handled by the caller via the usual ``searchsorted`` convention.
        """
        if self.value_dictionary is None:
            return int(value)
        return int(np.searchsorted(self.value_dictionary, value, side=side))

    # ------------------------------------------------------------------
    # Bitmap source protocol
    # ------------------------------------------------------------------

    #: The index itself serves dense bitmaps; :meth:`with_codec` gives a
    #: view serving another representation.
    bitmap_codec = "dense"
    compressed = property(lambda self: self.bitmap_codec != "dense")

    def fetch(self, component: int, slot: int, stats: ExecutionStats) -> Bitmap:
        """Return stored bitmap ``slot`` of ``component``, recording one scan."""
        return self._fetch_as(self.bitmap_codec, component, slot, stats)

    def _fetch_as(
        self, codec: str, component: int, slot: int, stats: ExecutionStats
    ) -> Bitmap:
        """One stored bitmap in representation ``codec``, recording one scan.

        A non-dense representation is encoded lazily on first access and
        memoized; the scan is charged at the served payload's size — the
        bytes a codec-aware storage layer would actually move.
        """
        dense = self.components[component - 1].bitmap(slot)
        trace = stats.trace
        bitmap: Bitmap | None = dense
        attrs = {"source": "index"}
        if codec != self.bitmap_codec:
            key = (codec, component, slot)
            bitmap = self._encoded_bitmaps.get(key)
            attrs = {"source": f"index.{codec}", "encoded": bitmap is None}
            if bitmap is None:
                with stats.span(
                    f"{codec}.encode", kind="decode", component=component, slot=slot
                ):
                    bitmap = bitmap_class(codec).from_bitvector(dense)
                self._encoded_bitmaps[key] = bitmap
        stats.record_scan(nbytes=bitmap.nbytes)
        if trace is not None:
            trace.event(
                "index.fetch",
                kind="fetch",
                component=component,
                slot=slot,
                nbytes=bitmap.nbytes,
                **attrs,
            )
        return bitmap

    def with_codec(self, codec: str) -> "BitmapIndex | CompressedBitmapSource":
        """This index as a source serving ``codec`` bitmaps.

        The identity for ``"dense"``; otherwise a view sharing this
        index's storage, whose encoded payloads are memoized on the index
        until maintenance (:meth:`append`, :meth:`update`,
        :meth:`delete`) invalidates them.
        """
        if codec == self.bitmap_codec:
            return self
        return CompressedBitmapSource(self, codec)

    def as_compressed(self, codec: str = "wah") -> "BitmapIndex | CompressedBitmapSource":
        """:meth:`with_codec`, defaulting to WAH."""
        return self.with_codec(codec)

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
    # experiment).

    def append(
        self, values: np.ndarray, nulls: np.ndarray | None = None
    ) -> int:
        """Append new records; returns the number of bitmaps rewritten.

        Every stored bitmap is extended (appends touch all of them — the
        cheap dimension of bitmap maintenance, since it is a sequential
        rewrite).  Values are ranks in ``[0, C)``; growing the value
        dictionary of a :meth:`for_column` index is not supported.
        """
        values, nulls, encode_values = _checked_ranks(values, nulls, self.cardinality)
        self._encoded_bitmaps.clear()
        self.version += 1

        if nulls is not None and self.nonnull is None:
            # Start tracking nulls: existing rows are all valid.
            self.track_nulls()
        digit_columns = self.base.digit_arrays(encode_values)
        for i, component in enumerate(self.components):
            component.append_rows(digit_columns[i])
        if self.nonnull is not None:
            new_valid = ~nulls if nulls is not None else np.ones(len(values), bool)
            self.nonnull = BitVector.from_bools(
                np.concatenate((self.nonnull.to_bools(), new_valid))
            )
            if self._nulls is not None:
                appended = nulls if nulls is not None else np.zeros(len(values), bool)
                self._nulls = np.concatenate((self._nulls, appended))
        if self._values is not None:
            self._values = np.concatenate((self._values, values))
        self.nbits += len(values)
        return self.num_bitmaps

    def update(self, rid: int, value: int) -> int:
        """Change one record's value; returns the number of bitmaps touched.

        This is the expensive dimension: a range-encoded component flips
        the record's bit in every bitmap between the old and new digit,
        up to ``b_i - 1`` of them.
        """
        self._check_rid(rid)
        if not 0 <= value < self.cardinality:
            raise ValueOutOfRangeError(f"value outside [0, {self.cardinality})")
        digits = self.base.digits(value)
        touched = 0
        self._encoded_bitmaps.clear()
        self.version += 1
        for i, component in enumerate(self.components):
            touched += component.set_row(rid, digits[i])
        if self.nonnull is not None and not self.nonnull.get(rid):
            self.nonnull.set(rid, True)  # updating a deleted row revives it
            touched += 1
            if self._nulls is not None:
                self._nulls[rid] = False
        if self._values is not None:
            self._values[rid] = value
        return touched

    def delete(self, rid: int) -> int:
        """Logically delete one record via the non-null (existence) bitmap.

        Returns the number of bitmaps touched (1, or 2 on the first delete
        when the existence bitmap is materialized).
        """
        self._check_rid(rid)
        touched = 0
        self._encoded_bitmaps.clear()
        self.version += 1
        if self.nonnull is None:
            self.track_nulls()
            touched += 1
        if self.nonnull.get(rid):
            self.nonnull.set(rid, False)
            touched += 1
        if self._nulls is not None:
            self._nulls[rid] = True
        return touched

    def track_nulls(self) -> bool:
        """Materialize the existence bitmap ``B_nn`` (all rows valid).

        A no-op when the index already tracks nulls (the first NULL
        append and the first delete call it).  Returns ``True`` when the
        bitmap was materialized by this call.
        """
        if self.nonnull is not None:
            return False
        self.nonnull = BitVector.ones(self.nbits)
        self._nulls = np.zeros(self.nbits, dtype=bool)
        self.version += 1
        return True

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
        if self._nulls is not None:
            mask = mask & ~self._nulls
        return BitVector.from_bools(mask)

    def __repr__(self) -> str:
        return (
            f"BitmapIndex(N={self.nbits}, C={self.cardinality}, "
            f"base={self.base}, encoding={self.encoding}, "
            f"bitmaps={self.num_bitmaps})"
        )


class CompressedBitmapSource:
    """A :class:`BitmapSource` view of a :class:`BitmapIndex` in another codec.

    Serves every bitmap (stored slots and ``nonnull``) in the
    representation named by ``codec``, so the evaluation algorithms run
    entirely in that domain.  Encoded payloads live in the wrapped
    index's memo and survive across queries; the view itself is a thin
    stateless adapter, cheap to construct per query.
    """

    compressed = property(lambda self: self.bitmap_codec != "dense")

    def __init__(self, index: BitmapIndex, codec: str = "wah"):
        bitmap_class(codec)  # an unknown name raises here, not at first fetch
        self._index = index
        self.bitmap_codec = codec

    @property
    def nbits(self) -> int:
        return self._index.nbits

    @property
    def cardinality(self) -> int:
        return self._index.cardinality

    @property
    def base(self) -> Base:
        return self._index.base

    @property
    def encoding(self) -> EncodingScheme:
        return self._index.encoding

    @property
    def nonnull(self) -> Bitmap | None:
        dense = self._index.nonnull
        if dense is None:
            return None
        memo = self._index._encoded_bitmaps
        # Stored slots use 1-based component numbers, so component 0 can
        # never collide with a real slot.
        key = (self.bitmap_codec, 0, 0)
        cached = memo.get(key)
        if cached is None:
            cached = bitmap_class(self.bitmap_codec).from_bitvector(dense)
            memo[key] = cached
        return cached

    def fetch(self, component: int, slot: int, stats: ExecutionStats) -> Bitmap:
        return self._index._fetch_as(self.bitmap_codec, component, slot, stats)

    def stored_slots(self, component: int) -> tuple[int, ...]:
        return self._index.stored_slots(component)

    def __repr__(self) -> str:
        return (
            f"CompressedBitmapSource({self._index!r}, "
            f"codec={self.bitmap_codec!r})"
        )
