"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.bitmaps.bitvector import BitVector
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.core.index import BitmapIndex
from repro.engine import QueryEngine
from repro.errors import EmptyFoundsetError
from repro.query.expression import (
    AGGREGATES,
    And,
    Between,
    Comparison,
    In,
    Not,
    Or,
    Threshold,
    Xor,
)

#: ``--hypothesis-profile=ci`` runs tests that leave ``max_examples`` unset
#: (the model-based oracle) longer than the default profile tier-1 uses.
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@contextlib.contextmanager
def backend_engines(
    relation=None, backends=("inline", "processes"), register=None, **engine_opts
):
    """One :class:`QueryEngine` per backend of ``backends``, in that order.

    Each is built with ``engine_opts`` (the codec, shard count, cache, …:
    how a query runs is the engine's) and serves ``relation``, registered
    with the ``register`` keywords; a shared ``storage=`` store is served
    whole, each engine registering every relation the store holds.  The
    engines close on exit.
    """
    with contextlib.ExitStack() as stack:
        engines = []
        for backend in backends:
            engine = stack.enter_context(QueryEngine(backend=backend, **engine_opts))
            if engine.storage is not None:
                for name in engine.storage.relations():
                    engine.register(engine.storage.relation_view(name))
            if relation is not None:
                engine.register(relation, **(register or {}))
            engines.append(engine)
        yield tuple(engines)


@pytest.fixture
def engines():
    """:func:`backend_engines` as a fixture: ``engines(relation, backends, …)``
    returns the engines, and teardown closes them."""
    with contextlib.ExitStack() as stack:
        yield lambda *args, **kwargs: stack.enter_context(backend_engines(*args, **kwargs))


#: The paper's Figure 1 example column (10 records, values 0..8).
PAPER_EXAMPLE_VALUES = np.array([3, 2, 1, 2, 8, 2, 2, 0, 7, 5])


@pytest.fixture
def paper_values() -> np.ndarray:
    return PAPER_EXAMPLE_VALUES.copy()


@pytest.fixture
def paper_index(paper_values) -> BitmapIndex:
    """The base-<3,3> range-encoded index of the paper's Figure 4(c)."""
    return BitmapIndex(paper_values, cardinality=9, base=Base((3, 3)))


def shaped_vector(nbits: int, shape: str, seed: int) -> BitVector:
    """A seeded vector that is ``"literal"``-heavy (independent random
    bits), ``"fill"``-heavy (runs of 40 to 5,000 equal bits), ``"sparse"``
    (one bit in 30 to 1,000) or ``"patchy"`` (each 65,536-row chunk one of
    those, or wholly empty, or wholly full) — the shapes a compressed class
    may hold differently: WAH literal and fill words; Roaring bitmap, run
    and array containers, and chunks it holds nothing for.  ``"tenth"``
    sets exactly ``nbits // 10`` random bits: the density at which the
    set-bit enumeration switches route."""
    generator = np.random.default_rng(seed)
    if shape == "tenth":
        bools = np.zeros(nbits, dtype=bool)
        bools[generator.choice(nbits, nbits // 10, replace=False)] = True
        return BitVector.from_bools(bools)
    if shape == "patchy":
        chunk = 1 << 16
        pieces = []
        for start in range(0, nbits, chunk):
            size = min(chunk, nbits - start)
            kind = generator.choice(["literal", "fill", "sparse", "empty", "full"])
            if kind in ("empty", "full"):
                pieces.append(np.full(size, kind == "full"))
            else:
                sub_seed = int(generator.integers(2**31))
                pieces.append(shaped_vector(size, kind, sub_seed).to_bools())
        return BitVector.from_bools(np.concatenate(pieces) if pieces else np.zeros(0, bool))
    if shape == "literal":
        density = generator.choice([0.05, 0.5, 0.95])
        return BitVector.from_bools(generator.random(nbits) < density)
    if shape == "sparse":
        density = generator.choice([0.001, 0.01, 0.03])
        return BitVector.from_bools(generator.random(nbits) < density)
    run = int(generator.integers(40, 5000))
    flips = generator.random(nbits // run + 1) < 0.5
    return BitVector.from_bools(np.repeat(flips, run)[:nbits])


def make_index(
    num_rows: int = 300,
    cardinality: int = 60,
    base: Base | None = None,
    encoding: EncodingScheme = EncodingScheme.RANGE,
    seed: int = 0,
    nulls: bool = False,
) -> BitmapIndex:
    """Build a seeded random index for tests."""
    generator = np.random.default_rng(seed)
    values = generator.integers(0, cardinality, num_rows)
    null_mask = generator.random(num_rows) < 0.1 if nulls else None
    return BitmapIndex(
        values, cardinality, base=base, encoding=encoding, nulls=null_mask
    )


def expression_leaves(constants: dict[str, tuple]):
    """Comparison, IN and BETWEEN leaves over ``{attribute: constants}``."""
    ops = st.sampled_from(("<", "<=", "=", "!=", ">=", ">"))
    per_attribute = []
    for attribute, values in constants.items():
        value = st.sampled_from(values)
        per_attribute += [
            st.builds(Comparison, st.just(attribute), ops, value),
            st.builds(
                In, st.just(attribute), st.lists(value, min_size=1, max_size=3).map(tuple)
            ),
            st.builds(Between, st.just(attribute), value, value),
        ]
    return st.one_of(per_attribute)


def expression_trees(constants: dict[str, tuple], depth: int):
    """Expression trees of every node type, at most ``depth`` connectives
    deep."""
    if depth == 0:
        return expression_leaves(constants)
    sub = expression_trees(constants, depth - 1)
    return st.one_of(
        sub,
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Xor, sub, sub),
        st.builds(Not, sub),
        st.builds(
            Threshold,
            st.integers(0, 4),
            st.lists(sub, min_size=1, max_size=3).map(tuple),
        ),
    )


def kleene(expr, relation, known) -> tuple[np.ndarray, np.ndarray]:
    """``(true, false)`` row masks of ``expr`` under three-valued logic.

    ``known[attribute]`` marks the non-NULL rows; a comparison is neither
    true nor false on the others.
    """
    if isinstance(expr, (Comparison, In, Between)):
        hit = expr.mask(relation)
        return hit & known[expr.attribute], ~hit & known[expr.attribute]
    if isinstance(expr, Not):
        true, false = kleene(expr.inner, relation, known)
        return false, true
    if isinstance(expr, Threshold):
        trues, falses = zip(*(kleene(e, relation, known) for e in expr.operands))
        return (
            np.sum(trues, axis=0) >= expr.k,
            np.sum(falses, axis=0) >= len(expr.operands) - expr.k + 1,
        )
    (lt, lf), (rt, rf) = (kleene(e, relation, known) for e in (expr.left, expr.right))
    if isinstance(expr, And):
        return lt & rt, lf | rf
    if isinstance(expr, Xor):
        return (lt & rf) | (lf & rt), (lt & rt) | (lf & rf)
    assert isinstance(expr, Or)
    return lt | rt, lf & rf


def assert_aggregates(answer, values: np.ndarray, fns=AGGREGATES) -> None:
    """Hold ``answer(fn)``, the aggregate ``fn`` of ``values``, to numpy for
    every ``fn``: exact but for AVG, and MIN, MAX or AVG of no rows raise."""
    for fn in fns:
        if not len(values) and fn in ("avg", "min", "max"):
            with pytest.raises(EmptyFoundsetError):
                answer(fn)
            continue
        expected = {"count": len, "sum": np.sum, "avg": np.mean, "min": np.min, "max": np.max}[fn]
        assert answer(fn) == (pytest.approx if fn == "avg" else int)(expected(values)), fn
