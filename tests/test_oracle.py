"""A model-based oracle for :class:`~repro.table.Table`.

One hypothesis state machine drives a table through index creation
(explicit bases or advisor objectives, under every encoding), selection,
aggregation, EXPLAIN and save → load, and holds every answer to a numpy
evaluation of the same expression over the raw columns.  One rule also
serves the table's current designs from an
:class:`~repro.storage.store.IndexStore` at a drawn codec, appends rows
with NULLs to it and compacts it, holding the store engine's answers to
a Kleene-logic oracle over the masked columns.  Tier-1 runs the default
hypothesis profile; ``--hypothesis-profile=ci`` runs more examples.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import repro
from repro.core.advisor import OBJECTIVES
from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.query.expression import (
    AGGREGATES,
    And,
    Between,
    Comparison,
    In,
    Not,
    Or,
    Threshold,
    parse_expression,
)
from repro.relation.relation import Relation
from repro.storage import IndexStore
from repro.table import Table

from conftest import assert_aggregates, expression_trees, kleene

NUM_ROWS = 300
_rng = np.random.default_rng(11)
COLUMNS = {
    "quantity": _rng.integers(0, 50, NUM_ROWS),
    "region": _rng.integers(0, 8, NUM_ROWS),
}
#: Explicit designs per attribute: one component, binary, and base 3.
BASES = {
    name: [Base.single(c), Base.binary(c), Base.uniform(3, c)]
    for name, c in ((name, len(np.unique(values))) for name, values in COLUMNS.items())
}
#: Constants inside, at the ends of and outside each column's domain.
CONSTANTS = {"quantity": (-3, 0, 1, 25, 49, 50, 60), "region": (-1, 0, 3, 7, 8)}
#: Asked after every step.
PROBE = parse_expression("quantity between 10 and 30 or not region >= 3")

ATTRIBUTES = st.sampled_from(sorted(COLUMNS))
ENCODINGS = st.sampled_from(list(EncodingScheme))
TREES = expression_trees(CONSTANTS, 2)
CODECS = st.sampled_from(("dense", "wah", "roaring"))

COMPARE = {
    "<": np.less,
    "<=": np.less_equal,
    "=": np.equal,
    "!=": np.not_equal,
    ">=": np.greater_equal,
    ">": np.greater,
}


def oracle(expr) -> np.ndarray:
    """The row mask of ``expr``, evaluated on the raw columns."""
    if isinstance(expr, Comparison):
        return COMPARE[expr.op](COLUMNS[expr.attribute], expr.value)
    if isinstance(expr, In):
        return np.isin(COLUMNS[expr.attribute], expr.values)
    if isinstance(expr, Between):
        values = COLUMNS[expr.attribute]
        return (expr.low <= values) & (values <= expr.high)
    if isinstance(expr, Not):
        return ~oracle(expr.inner)
    if isinstance(expr, Threshold):
        return sum(oracle(e).astype(int) for e in expr.operands) >= expr.k
    left, right = oracle(expr.left), oracle(expr.right)
    if isinstance(expr, And):
        return left & right
    if isinstance(expr, Or):
        return left | right
    return left ^ right


class TableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.TemporaryDirectory()
        self.table = Table("orders", COLUMNS)
        self.indexed: set[str] = set()

    def teardown(self):
        self.table.engine.close()
        self.directory.cleanup()

    @rule(attribute=ATTRIBUTES, choice=st.integers(0, 2), encoding=ENCODINGS)
    def create_index_with_base(self, attribute, choice, encoding):
        base = BASES[attribute][choice]
        index = self.table.create_index(attribute, base=base, encoding=encoding)
        assert (index.base, index.encoding) == (base, encoding)
        self.indexed.add(attribute)

    @rule(attribute=ATTRIBUTES, objective=st.sampled_from(OBJECTIVES), encoding=ENCODINGS)
    def create_index_by_objective(self, attribute, objective, encoding):
        self.table.create_index(attribute, objective=objective, encoding=encoding)
        self.indexed.add(attribute)

    @rule(expr=TREES)
    def select(self, expr):
        rids = self.table.select(expr, verify=False)
        assert np.array_equal(rids, np.nonzero(oracle(expr))[0])

    @rule(measure=ATTRIBUTES, func=st.sampled_from(AGGREGATES), where=st.none() | TREES)
    def aggregate(self, measure, func, where):
        mask = oracle(where) if where is not None else np.ones(NUM_ROWS, dtype=bool)
        assert_aggregates(
            lambda fn: self.table.aggregate(measure, fn, where=where),
            COLUMNS[measure][mask],
            [func],
        )

    @rule(codec=CODECS, data=st.data())
    def serve_from_a_store(self, codec, data):
        """Build → query, append rows with NULLs → query, compact → query,
        with no ``engine.invalidate``: the files on disk tell."""
        if not self.indexed:
            return
        designs = {name: self.table._designs[name] for name in sorted(self.indexed)}
        root = tempfile.mkdtemp(dir=self.directory.name)
        with IndexStore(root) as store:
            store.build(
                self.table.relation,
                list(designs),
                codec=codec,
                base={name: spec.base for name, spec in designs.items()},
                encoding={name: spec.encoding for name, spec in designs.items()},
            )
        trees = expression_trees({name: CONSTANTS[name] for name in designs}, 2)
        measures = st.sampled_from(list(designs))
        columns = {name: COLUMNS[name] for name in designs}
        known = {name: np.ones(NUM_ROWS, dtype=bool) for name in designs}
        with repro.open_store(root) as engine:
            self.check_store(engine, data.draw(trees), data.draw(measures), columns, known)
            rows = data.draw(st.integers(1, 12))
            seed = np.random.default_rng(data.draw(st.integers(0, 2**16)))
            batch = {name: seed.choice(np.unique(COLUMNS[name]), rows) for name in designs}
            nulls = {name: seed.random(rows) < 0.3 for name in designs}
            engine.storage.append("orders", batch, nulls=nulls)
            columns = {name: np.append(columns[name], batch[name]) for name in designs}
            known = {name: np.append(known[name], ~nulls[name]) for name in designs}
            self.check_store(engine, data.draw(trees), data.draw(measures), columns, known)
            engine.storage.compact("orders")
            self.check_store(engine, data.draw(trees), data.draw(measures), columns, known)

    @staticmethod
    def check_store(engine, expr, measure, columns, known):
        """``query``, ``count`` and every aggregate against Kleene logic."""
        true, _ = kleene(expr, Relation.from_dict("orders", columns), known)
        assert np.array_equal(engine.query(expr).rids, np.nonzero(true)[0])
        assert engine.count(expr).count == int(true.sum())
        assert_aggregates(
            lambda fn: engine.aggregate(expr, measure, fn).value,
            columns[measure][true & known[measure]],
        )

    @rule(expr=TREES)
    def explain(self, expr):
        report = self.table.explain(expr)
        if expr.attributes() <= self.indexed:
            assert f"\n  rows: {int(oracle(expr).sum())}\n" in report
        else:
            assert report == "full scan (missing bitmap indexes)"

    @rule()
    def save_and_load(self):
        path = os.path.join(self.directory.name, "orders.rbt")
        self.table.save(path)
        self.table.engine.close()
        self.table = Table.load(path)

    @invariant()
    def answers_match_the_oracle(self):
        assert f"indexed={sorted(self.indexed)}" in repr(self.table)
        rids = self.table.select(PROBE, verify=False)
        assert np.array_equal(rids, np.nonzero(oracle(PROBE))[0])


TestTableOracle = TableMachine.TestCase
TestTableOracle.settings = settings(stateful_step_count=10, deadline=None)
