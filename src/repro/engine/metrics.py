"""Engine-level metrics: per-query stats merged under a lock.

Worker threads finish queries in arbitrary order; each reports its
latency and :class:`~repro.stats.ExecutionStats` to one
:class:`EngineMetrics`, which merges them under a lock so the aggregate is
always self-consistent.  ``snapshot()`` computes the serving-side numbers
an operator watches: query count, p50/p95/p99 latency, and the summed
bitmap-level counters (scans, ops, bytes read, buffer hits) — globally and
broken down per relation, per query mode, per bitmap codec and per backend.
``snapshot_text()`` renders
the same numbers in the Prometheus text exposition format for scraping.

Latencies are held in a bounded :class:`LatencyReservoir` (Algorithm R
uniform sampling), not an ever-growing list: a long-lived serving engine
records millions of queries, and the old unbounded list was a slow memory
leak.  Count, sum, and max stay exact; percentiles come from the sample,
which is the complete history until ``reservoir_size`` queries have been
seen (the default 2048 keeps every small-scale workload bit-identical to
the exact computation).
"""

from __future__ import annotations

import random
import threading

from repro.stats import ExecutionStats


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rank = max(0, min(len(sorted_values) - 1, round(fraction * len(sorted_values)) - 1))
    return sorted_values[rank]


class LatencyReservoir:
    """Bounded uniform sample of a latency stream (Vitter's Algorithm R).

    Count, total, and max are exact regardless of how many values stream
    through; the sample (and therefore any percentile) is exact while
    ``count <= capacity`` and an unbiased uniform subsample afterwards.
    Not thread-safe — :class:`EngineMetrics` serializes access.
    """

    __slots__ = ("capacity", "_sample", "count", "total", "max", "_rng")

    def __init__(self, capacity: int = 2048, seed: int = 0x5EED):
        if capacity < 1:
            raise ValueError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._sample: list[float] = []
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        # Seeded so snapshots are reproducible run-to-run.
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        if len(self._sample) < self.capacity:
            self._sample.append(value)
            return
        j = self._rng.randrange(self.count)
        if j < self.capacity:
            self._sample[j] = value

    def clear(self) -> None:
        self._sample.clear()
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def sorted_sample(self) -> list[float]:
        return sorted(self._sample)

    def __len__(self) -> int:
        return len(self._sample)

    def percentiles(self, fractions: tuple[float, ...]) -> list[float]:
        """Percentile estimates for the given fractions (0 when empty)."""
        ordered = self.sorted_sample()
        if not ordered:
            return [0.0 for _ in fractions]
        return [percentile(ordered, f) for f in fractions]


#: The labels a query is broken down by (``snapshot()["by_<label>"]``)
#: and the counters each breakdown and the global totals publish.
BREAKDOWNS = ("relation", "mode", "codec", "backend")
_PUBLISHED = {
    "scans": "Bitmap scans (the paper's I/O cost metric).",
    "ops": "Bitmap boolean operations (the paper's CPU cost metric).",
    "bytes_read": "Bytes read by all access paths.",
    "buffer_hits": "Bitmap fetches served by a buffer or cache.",
}


class _GroupAggregate:
    """Per-label aggregate (one relation, or one query mode)."""

    __slots__ = ("queries", "latency_total", "stats")

    def __init__(self):
        self.queries = 0
        self.latency_total = 0.0
        self.stats = ExecutionStats()

    def record(self, latency_seconds: float, stats: ExecutionStats) -> None:
        self.queries += 1
        self.latency_total += latency_seconds
        self.stats.merge(stats)

    def as_dict(self) -> dict:
        totals = self.stats.as_dict()
        return {
            "queries": self.queries,
            "latency_ms_mean": (
                1e3 * self.latency_total / self.queries if self.queries else 0.0
            ),
            **{name: totals[name] for name in _PUBLISHED},
        }


def _prom_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def prom_family(name: str, help_text: str, samples, kind: str = "counter") -> list[str]:
    """One metric family in the Prometheus text exposition format.

    The HELP and TYPE lines, then one sample line per ``(labels, value)``
    pair; ``labels`` is a dict (empty for the unlabeled sample).
    """
    lines = [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
    for labels, value in samples:
        rendered = ",".join(
            f'{key}="{_prom_label(text)}"' for key, text in labels.items()
        )
        lines.append(f"{name}{{{rendered}}} {value}" if labels else f"{name} {value}")
    return lines


class EngineMetrics:
    """Lock-protected aggregation of per-query latencies and stats."""

    def __init__(self, reservoir_size: int = 2048):
        self._lock = threading.Lock()
        self._latencies = LatencyReservoir(reservoir_size)
        self._stats = ExecutionStats()
        self._by: dict[str, dict[str, _GroupAggregate]] = {
            label: {} for label in BREAKDOWNS
        }
        self.queries = 0
        self.failures = 0
        self.timeouts = 0
        self._retries: dict[str, int] = {}
        self._degradations: dict[tuple[str, str, str], int] = {}
        self._corruptions: dict[str, int] = {}

    def record(
        self,
        latency_seconds: float,
        stats: ExecutionStats,
        relation: str | None = None,
        mode: str | None = None,
        codec: str | None = None,
        backend: str | None = None,
    ) -> None:
        """Fold one completed query into the aggregate.

        ``relation``, ``mode``, ``codec``, and ``backend`` label the
        query for the per-relation / per-mode / per-codec / per-backend
        breakdowns; omitted labels simply skip the
        corresponding breakdown.
        """
        with self._lock:
            self.queries += 1
            self._latencies.add(latency_seconds)
            self._stats.merge(stats)
            for label, value in zip(BREAKDOWNS, (relation, mode, codec, backend)):
                if value is not None:
                    groups = self._by[label]
                    group = groups.get(value)
                    if group is None:
                        group = groups[value] = _GroupAggregate()
                    group.record(latency_seconds, stats)

    def record_failure(self) -> None:
        """Count a query that raised instead of completing."""
        with self._lock:
            self.failures += 1

    def record_timeout(self) -> None:
        """Count a query that exceeded its deadline."""
        with self._lock:
            self.timeouts += 1

    def record_retry(self, reason: str) -> None:
        """Count one recovery retry, labeled by its trigger.

        Reasons are short slugs — ``"pool-broken"``, ``"shm-attach"``,
        ``"shard-corrupt"``, ``"injected"``, … — one label per failure
        class the resilience layer recovers from.
        """
        with self._lock:
            self._retries[reason] = self._retries.get(reason, 0) + 1

    def record_degradation(self, source: str, target: str, reason: str) -> None:
        """Count one backend downgrade (e.g. processes -> threads)."""
        with self._lock:
            key = (source, target, reason)
            self._degradations[key] = self._degradations.get(key, 0) + 1

    def record_corruption(self, site: str) -> None:
        """Count one detected-corruption event, labeled by where
        (``"disk"``, ``"shm"``)."""
        with self._lock:
            self._corruptions[site] = self._corruptions.get(site, 0) + 1

    def reset(self) -> None:
        """Zero every counter (for benchmarking phases)."""
        with self._lock:
            self._latencies.clear()
            self._stats = ExecutionStats()
            for groups in self._by.values():
                groups.clear()
            self.queries = 0
            self.failures = 0
            self.timeouts = 0
            self._retries.clear()
            self._degradations.clear()
            self._corruptions.clear()

    @property
    def stats(self) -> ExecutionStats:
        """An independent copy of the merged execution stats."""
        with self._lock:
            return self._stats.copy()

    def snapshot(self) -> dict:
        """Aggregate metrics as a plain dict (stable keys, JSON-friendly)."""
        with self._lock:
            p50, p95, p99 = self._latencies.percentiles((0.50, 0.95, 0.99))
            latency = {
                "mean": 1e3 * self._latencies.mean,
                "p50": 1e3 * p50,
                "p95": 1e3 * p95,
                "p99": 1e3 * p99,
                "max": 1e3 * self._latencies.max,
            }
            out = {
                "queries": self.queries,
                "failures": self.failures,
                "latency_ms": latency,
                "resilience": {
                    "timeouts": self.timeouts,
                    "retries": dict(sorted(self._retries.items())),
                    "degradations": [
                        {
                            "source": src,
                            "target": dst,
                            "reason": reason,
                            "count": count,
                        }
                        for (src, dst, reason), count in sorted(
                            self._degradations.items()
                        )
                    ],
                    "corruptions": dict(sorted(self._corruptions.items())),
                },
                "stats": self._stats.copy().as_dict(),
                **{
                    f"by_{label}": {
                        name: group.as_dict() for name, group in sorted(groups.items())
                    }
                    for label, groups in self._by.items()
                },
            }
        return out

    def snapshot_text(self) -> str:
        """The aggregate in the Prometheus text exposition format.

        Global totals are unlabeled families (``repro_queries_total``, …);
        the per-relation and per-mode breakdowns are separate
        families with a ``relation=`` / ``mode=`` label so no
        family mixes labeled and unlabeled samples.
        """
        snap = self.snapshot()
        resilience = snap["resilience"]
        families = [
            ("queries", "Queries completed by the engine.", [({}, snap["queries"])]),
            ("query_failures", "Queries that raised.", [({}, snap["failures"])]),
            (
                "timeouts",
                "Queries that exceeded their deadline.",
                [({}, resilience["timeouts"])],
            ),
            (
                "retries",
                "Recovery retries by trigger.",
                [({"reason": r}, n) for r, n in resilience["retries"].items()],
            ),
            (
                "degradations",
                "Backend downgrades by route.",
                [
                    ({k: e[k] for k in ("source", "target", "reason")}, e["count"])
                    for e in resilience["degradations"]
                ],
            ),
            (
                "corruptions",
                "Corruptions detected by site.",
                [({"site": s}, n) for s, n in resilience["corruptions"].items()],
            ),
        ]
        lines: list[str] = []
        for name, help_text, samples in families:
            lines += prom_family(f"repro_{name}_total", help_text, samples)
        lines += prom_family(
            "repro_query_latency_ms",
            "Query latency percentiles (milliseconds).",
            [
                ({"quantile": key}, f"{snap['latency_ms'][key]:.6f}")
                for key in ("p50", "p95", "p99", "mean", "max")
            ],
            kind="gauge",
        )
        for name, help_text in _PUBLISHED.items():
            lines += prom_family(
                f"repro_{name}_total", help_text, [({}, snap["stats"][name])]
            )
        for label in BREAKDOWNS:
            for metric in ("queries", *_PUBLISHED):
                lines += prom_family(
                    f"repro_{label}_{metric}_total",
                    f"Per-{label} {metric}.",
                    [
                        ({label: name}, group[metric])
                        for name, group in snap[f"by_{label}"].items()
                    ],
                )
        return "\n".join(lines) + "\n"
