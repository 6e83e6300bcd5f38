"""The concurrent serving layer: batch query engine, shared cache, metrics.

See :mod:`repro.engine.engine` for the architecture overview and
``docs/tutorial.md`` ("Serving queries concurrently") for a walkthrough.
"""

from repro.engine.cache import SharedBitmapCache
from repro.engine.engine import AggregateResult, IndexSpec, QueryEngine
from repro.engine.metrics import EngineMetrics, LatencyReservoir, percentile
from repro.engine.registry import IndexRegistry, Registration
from repro.engine.resilience import CircuitBreaker, RetryPolicy
from repro.engine.sharding import (
    BACKENDS,
    ShardExport,
    merge_shard_rids,
    shard_bounds,
    sweep_orphan_segments,
)
from repro.query.options import QueryOptions
from repro.trace import ExplainReport, QueryTrace, explain

__all__ = [
    "AggregateResult",
    "BACKENDS",
    "CircuitBreaker",
    "EngineMetrics",
    "ExplainReport",
    "IndexRegistry",
    "IndexSpec",
    "LatencyReservoir",
    "QueryEngine",
    "QueryOptions",
    "QueryTrace",
    "Registration",
    "RetryPolicy",
    "ShardExport",
    "SharedBitmapCache",
    "explain",
    "merge_shard_rids",
    "percentile",
    "shard_bounds",
    "sweep_orphan_segments",
]
