"""The benchmark's inputs: the ``facts`` relation, its query stream, its oracle.

The columns, the appended rows and every query constant derive from
``--seed``.  The program under test only ever sees the generated columns
and the query texts.  The oracle is plain numpy
over the generated columns and shares no code with ``repro``'s
evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.decomposition import Base
from repro.core.encoding import EncodingScheme
from repro.relation.relation import Relation
from repro.storage import IndexStore
from repro.workloads.generators import (
    clustered_values,
    uniform_values,
    zipf_values,
)

RELATION = "facts"
GROUP_BY = "g"
OPS = ("point", "range", "atleast", "count", "group_count")

#: column -> (cardinality, base, encoding); 62 + 20 + 49 + 11 = 142 bitmaps.
SCHEMA = {
    "u": (1000, Base((32, 32)), EncodingScheme.RANGE),
    "z": (100, Base((10, 10)), EncodingScheme.EQUALITY),
    "c": (50, Base((50,)), EncodingScheme.RANGE),
    "g": (12, Base((12,)), EncodingScheme.RANGE),
}


def generate_columns(rows: int, seed: int) -> dict[str, np.ndarray]:
    """The four columns of ``facts`` for one seed."""
    return {
        "u": uniform_values(rows, SCHEMA["u"][0], seed=seed * 10 + 1),
        "z": zipf_values(rows, SCHEMA["z"][0], seed=seed * 10 + 2),
        "c": clustered_values(
            rows, SCHEMA["c"][0], run_length=256, seed=seed * 10 + 3
        ),
        "g": uniform_values(rows, SCHEMA["g"][0], seed=seed * 10 + 4),
    }


def build_store(root: str, columns: dict[str, np.ndarray], codec: str) -> dict:
    """Index and persist ``facts`` under ``root``; returns the build summary."""
    relation = Relation.from_dict(RELATION, columns)
    with IndexStore(root) as store:
        return store.build(
            relation,
            codec=codec,
            base={name: spec[1] for name, spec in SCHEMA.items()},
            encoding={name: spec[2] for name, spec in SCHEMA.items()},
        )


def append_batch(
    columns: dict[str, np.ndarray], rows: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Rows to append: resampled from the generated ones, so every value
    is already in the stored dictionaries and no append is refused."""
    picks = rng.integers(0, len(columns["u"]), rows)
    return {name: values[picks] for name, values in columns.items()}


@dataclass(frozen=True)
class Query:
    op: str
    text: str
    consts: tuple[int, ...]


class QueryStream:
    """Endless rounds of the Q5 mix, one query of each op per round, with
    every constant drawn from ``seed``.

    Constants come in blocks of ``STRATA`` rounds: within a block each
    constant takes one value from each of ``STRATA`` equal strata of its
    domain, in shuffled order.  A query's cost class is set by its constants
    (on Roaring, ``u <= v`` costs 2 ms or 60 ms by the digits of ``v`` in
    base <32,32>), so every block holds the same share of each class while no
    query text is ever sent twice on purpose.  ``stream`` separates the
    independent streams of one run (warm-up, each measured phase).
    """

    STRATA = 20

    def __init__(self, seed: int, stream: int):
        self.rng = np.random.default_rng([seed, 5, stream])
        self._block: list[list[Query]] = []

    def _strata(self, low: int, high: int) -> list[int]:
        n, rng = self.STRATA, self.rng
        width = (high - low) / n
        values = np.floor(low + (np.arange(n) + rng.random(n)) * width)
        return [int(v) for v in rng.permutation(values)]

    def next_round(self) -> list[Query]:
        if not self._block:
            cu, cz, cc = SCHEMA["u"][0], SCHEMA["z"][0], SCHEMA["c"][0]
            point = self._strata(0, cz)
            low, width = self._strata(0, cu - 100), self._strata(1, 101)
            t_u, t_z, t_c = self._strata(0, cu), self._strata(0, cz), self._strata(0, cc)
            cnt_u, cnt_c = self._strata(0, cu), self._strata(0, cc)
            grp = self._strata(0, cu)
            for r in range(self.STRATA):
                a, b = low[r], low[r] + width[r]
                self._block.append(
                    [
                        Query("point", f"z = {point[r]}", (point[r],)),
                        Query("range", f"u >= {a} and u <= {b}", (a, b)),
                        Query(
                            "atleast",
                            f"atleast(2, u <= {t_u[r]}, z <= {t_z[r]}, c <= {t_c[r]})",
                            (t_u[r], t_z[r], t_c[r]),
                        ),
                        Query(
                            "count",
                            f"u <= {cnt_u[r]} and c > {cnt_c[r]}",
                            (cnt_u[r], cnt_c[r]),
                        ),
                        Query("group_count", f"u <= {grp[r]}", (grp[r],)),
                    ]
                )
        return self._block.pop()


def run_query(engine, query: Query):
    """Send one query through the engine's public API; returns the answer
    in the oracle's shape (RIDs, a count, or ``(count, groups)``) and the
    query's ``ExecutionStats``."""
    if query.op == "count":
        result = engine.count(query.text)
        return result.count, result.stats
    if query.op == "group_count":
        result = engine.group_count(query.text, GROUP_BY)
        return (result.count, result.groups), result.stats
    result = engine.query(query.text)
    return result.rids, result.stats


def oracle(columns: dict[str, np.ndarray], query: Query):
    """The expected answer, straight from the raw columns."""
    u, z, c, g = (columns[name] for name in "uzcg")
    k = query.consts
    if query.op == "point":
        return np.flatnonzero(z == k[0])
    if query.op == "range":
        return np.flatnonzero((u >= k[0]) & (u <= k[1]))
    if query.op == "atleast":
        votes = (u <= k[0]).astype(np.int8) + (z <= k[1]) + (c <= k[2])
        return np.flatnonzero(votes >= 2)
    if query.op == "count":
        return int(np.count_nonzero((u <= k[0]) & (c > k[1])))
    counts = np.bincount(g[u <= k[0]], minlength=SCHEMA["g"][0])
    return int(counts.sum()), {v: int(n) for v, n in enumerate(counts)}


def answers_match(got, expected) -> bool:
    if isinstance(expected, np.ndarray):
        return np.array_equal(got, expected)
    return got == expected
