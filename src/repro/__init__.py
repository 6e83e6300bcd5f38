"""repro — a reproduction of *Bitmap Index Design and Evaluation*.

Chan & Ioannidis, SIGMOD 1998.

The library implements the paper's full design space of bitmap indexes for
selection queries (attribute-value decomposition × equality/range
encoding), the improved evaluation algorithm ``RangeEval-Opt``, the
analytical space/time cost model, the space-/time-optimal and knee index
characterizations, the space-constrained optimization algorithms, the
storage/compression study (BS/CS/IS schemes), and the buffering analysis —
plus the substrates they need: a packed bitvector engine, bitmap codecs, a
simulated disk, a buffer pool, a miniature column store with the
conventional RID-list baseline, and workload generators.

Quickstart
----------
>>> import numpy as np
>>> from repro import BitmapIndex, Base, Predicate, evaluate
>>> values = np.array([3, 2, 1, 2, 8, 2, 2, 0, 7, 5])  # paper Figure 1
>>> index = BitmapIndex(values, cardinality=9, base=Base((3, 3)))
>>> result = evaluate(index, Predicate("<=", 4))
>>> sorted(result.iter_indices())
[0, 1, 2, 3, 5, 6, 7]
"""

from repro.bitmaps import BitVector
from repro.core import (
    Base,
    BitmapIndex,
    EncodingScheme,
    Predicate,
    equality_eval,
    evaluate,
    range_eval,
    range_eval_opt,
)
from repro.core.advisor import IndexDesign, recommend
from repro.engine import (
    AggregateResult,
    CircuitBreaker,
    QueryEngine,
    RetryPolicy,
    SharedBitmapCache,
)
from repro.core.aggregation import BitSlicedAggregator
from repro.core.multi import AttributeSpec, TableDesign, allocate_budget
from repro.errors import QueryTimeoutError, ReproError
from repro.faults import Deadline, FaultPlan, FaultSpec
from repro.query.expression import Threshold, Xor, parse_expression
from repro.query.options import QueryOptions
from repro.stats import ExecutionStats
from repro.storage import IndexStore
from repro.table import Table
from repro.trace import ExplainReport, QueryTrace, explain

__version__ = "1.0.0"


def open_store(path: str, **engine_opts) -> QueryEngine:
    """Open a persistent index store and serve queries from it.

    The one-call persistence entry point: opens (or creates) the
    :class:`~repro.storage.store.IndexStore` at ``path``, constructs a
    :class:`QueryEngine` served from it (extra keyword
    arguments go to the engine), and registers every stored relation —
    so a prior session's ``engine.storage.build(relation)`` is queryable
    with nothing but the directory:

    >>> engine = open_store("/data/indexes")     # doctest: +SKIP
    >>> engine.query("region = 'east'", "sales")  # doctest: +SKIP

    Bitmaps load lazily from the mmapped files; only the dictionaries
    are parsed up front.  The store is reachable as ``engine.storage``
    for maintenance (``build`` / ``append`` / ``compact`` / ``scrub``).
    """
    store = IndexStore(path)
    engine = QueryEngine(storage=store, **engine_opts)
    for relation in store.relations():
        engine.register(store.relation_view(relation))
    return engine

__all__ = [
    "AggregateResult",
    "AttributeSpec",
    "Base",
    "BitSlicedAggregator",
    "BitVector",
    "BitmapIndex",
    "CircuitBreaker",
    "Deadline",
    "EncodingScheme",
    "ExecutionStats",
    "ExplainReport",
    "FaultPlan",
    "FaultSpec",
    "IndexDesign",
    "IndexStore",
    "Predicate",
    "QueryEngine",
    "QueryOptions",
    "QueryTimeoutError",
    "QueryTrace",
    "ReproError",
    "RetryPolicy",
    "SharedBitmapCache",
    "Table",
    "TableDesign",
    "Threshold",
    "Xor",
    "allocate_budget",
    "equality_eval",
    "evaluate",
    "explain",
    "open_store",
    "parse_expression",
    "range_eval",
    "range_eval_opt",
    "recommend",
    "__version__",
]
