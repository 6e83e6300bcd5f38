"""Chaos suite: every fault class recovers or degrades, never lies.

The acceptance contract of the resilience layer, exercised end to end
with the deterministic :class:`~repro.faults.FaultPlan` harness: for
each fault class — worker crash, shm attach failure, shm corruption,
injected worker error, disk damage, deadline expiry — a query under
injection either returns RIDs **bit-identical** to the no-fault run or
raises the documented typed error.  Never a wrong answer, never a
leaked shared-memory segment, never a wedged pool.  Every recovery
shows up in the metrics (retries, degradations, corruptions, timeouts).

Process-pool scenarios are parametrized over seeds to pin determinism:
the same plan against the same call sequence fires at the same places.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.engine import QueryEngine, QueryOptions, RetryPolicy
from repro.engine.resilience import CircuitBreaker
from repro.engine.sharding import _SHM_PREFIX, sweep_orphan_segments
from repro.errors import QueryTimeoutError, StoreBusyError
from repro.faults import FaultPlan, FaultSpec
from repro.relation.relation import Relation
from repro.storage import IndexStore
from repro.storage import store as store_module

NUM_ROWS = 5_003
QUERIES = (
    "quantity < 10",
    "quantity >= 40 or region = 3",
    "quantity between 12 and 30 and not region = 1",
)

#: Zero-sleep policy: chaos tests retry instantly but keep the schedule.
FAST_RETRY = RetryPolicy(max_retries=2, base_delay_seconds=0.0)

#: The fixed seed matrix; CI shards it one seed per job via CHAOS_SEEDS
#: (comma-separated). Plans are deterministic, so each seed pins one
#: injection schedule rather than sampling a random one.
SEEDS = tuple(
    int(s) for s in os.environ.get("CHAOS_SEEDS", "0,7,1998").split(",")
)


def make_relation() -> Relation:
    rng = np.random.default_rng(11)
    return Relation.from_dict(
        "orders",
        {
            "quantity": rng.integers(0, 50, NUM_ROWS),
            "region": rng.integers(0, 8, NUM_ROWS),
        },
    )


def make_engine(relation: Relation, **kwargs) -> QueryEngine:
    kwargs.setdefault("backend", "processes")
    kwargs.setdefault("max_workers", 2)
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("retry", FAST_RETRY)
    engine = QueryEngine(**kwargs)
    engine.register(relation)
    return engine


@pytest.fixture(scope="module")
def relation() -> Relation:
    return make_relation()


@pytest.fixture(scope="module")
def baselines(relation) -> dict:
    """No-fault RIDs per query — the ground truth recovery must match."""
    with make_engine(relation) as engine:
        return {q: engine.query(q).rids for q in QUERIES}


def leaked_segments() -> list[str]:
    return [
        name
        for name in os.listdir("/dev/shm")
        if name.startswith(_SHM_PREFIX + "-")
    ]


@pytest.fixture(autouse=True)
def no_segment_leaks():
    before = set(leaked_segments())
    yield
    after = set(leaked_segments())
    assert after <= before, f"leaked shm segments: {sorted(after - before)}"


# ----------------------------------------------------------------------
# Recoverable faults: RIDs must be bit-identical to the no-fault run
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
class TestRecoverableFaults:
    def assert_recovers(self, relation, baselines, plan, retry_reason):
        with make_engine(relation, fault_plan=plan) as engine:
            for query in QUERIES:
                result = engine.query(query)
                assert np.array_equal(result.rids, baselines[query]), query
            resilience = engine.snapshot()["resilience"]
        assert resilience["retries"].get(retry_reason, 0) >= 1, resilience
        assert resilience["degradations"] == []
        assert plan.injections, "the fault never fired"
        return resilience

    def test_worker_crash_recovers(self, relation, baselines, seed):
        plan = FaultPlan([FaultSpec("worker.execute", "crash", nth=1)], seed=seed)
        self.assert_recovers(relation, baselines, plan, "pool-broken")

    def test_worker_error_recovers(self, relation, baselines, seed):
        plan = FaultPlan([FaultSpec("worker.execute", "error", nth=2)], seed=seed)
        self.assert_recovers(relation, baselines, plan, "injected")

    def test_shm_attach_failure_recovers(self, relation, baselines, seed):
        plan = FaultPlan([FaultSpec("shm.attach", "error", nth=1)], seed=seed)
        self.assert_recovers(relation, baselines, plan, "shm-attach")

    def test_shm_corruption_rebuilds_from_source(self, relation, baselines, seed):
        plan = FaultPlan([FaultSpec("shm.attach", "corrupt", nth=1)], seed=seed)
        resilience = self.assert_recovers(
            relation, baselines, plan, "shard-corrupt"
        )
        assert resilience["corruptions"] == {"shm": 1}

    def test_crash_mid_workload_preserves_later_queries(
        self, relation, baselines, seed
    ):
        # The pool breaks on the second dispatch; queries before, during,
        # and after all return the truth.
        plan = FaultPlan([FaultSpec("worker.execute", "crash", nth=3)], seed=seed)
        with make_engine(relation, fault_plan=plan) as engine:
            for _ in range(2):
                for query in QUERIES:
                    assert np.array_equal(
                        engine.query(query).rids, baselines[query]
                    )


# ----------------------------------------------------------------------
# Persistent faults: bounded retries, then graceful degradation
# ----------------------------------------------------------------------


class TestDegradation:
    def test_persistent_crash_degrades_to_threads(self, relation, baselines):
        plan = FaultPlan([FaultSpec("worker.execute", "crash", count=-1)])
        with make_engine(relation, fault_plan=plan) as engine:
            result = engine.query(QUERIES[0], options=QueryOptions(trace=True))
            assert np.array_equal(result.rids, baselines[QUERIES[0]])
            snap = engine.snapshot()
        degradations = snap["resilience"]["degradations"]
        assert degradations == [
            {
                "source": "processes",
                "target": "threads",
                "reason": "retries-exhausted",
                "count": 1,
            }
        ]
        # Bounded: exactly max_retries retries were attempted.
        assert snap["resilience"]["retries"] == {
            "pool-broken": FAST_RETRY.max_retries
        }

    def test_breaker_opens_and_skips_the_pool(self, relation, baselines):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, reset_after_seconds=60.0, clock=lambda: clock[0]
        )
        plan = FaultPlan([FaultSpec("worker.execute", "crash", count=-1)])
        with make_engine(
            relation, fault_plan=plan, breaker=breaker
        ) as engine:
            # Two failing episodes open the relation's circuit ...
            for _ in range(2):
                assert np.array_equal(
                    engine.query(QUERIES[0]).rids, baselines[QUERIES[0]]
                )
            assert breaker.state("relation:orders") == "open"
            # ... so the next query never touches the pool: it degrades
            # with reason breaker-open and schedules no retries.
            before = engine.snapshot()["resilience"]["retries"]["pool-broken"]
            assert np.array_equal(
                engine.query(QUERIES[1]).rids, baselines[QUERIES[1]]
            )
            snap = engine.snapshot()["resilience"]
            assert snap["retries"]["pool-broken"] == before
            assert any(
                d["reason"] == "breaker-open" for d in snap["degradations"]
            )
            # After the reset window the circuit half-opens and allows a
            # trial dispatch through again.
            clock[0] += 61.0
            assert breaker.state("relation:orders") == "half-open"
            assert np.array_equal(
                engine.query(QUERIES[0]).rids, baselines[QUERIES[0]]
            )
            assert (
                engine.snapshot()["resilience"]["retries"]["pool-broken"]
                > before
            )

    def test_trace_records_retries(self, relation, baselines):
        plan = FaultPlan([FaultSpec("worker.execute", "error", nth=1)])
        with make_engine(relation, fault_plan=plan) as engine:
            result = engine.query(QUERIES[0], options=QueryOptions(trace=True))
        assert np.array_equal(result.rids, baselines[QUERIES[0]])
        faults = [
            span
            for span in result.trace.as_dict()["spans"]
            if span["kind"] == "fault"
        ]
        assert faults and faults[0]["name"] == "dispatch.retry"
        assert faults[0]["attrs"]["reason"] == "injected"


# ----------------------------------------------------------------------
# Deadlines: typed error, partial trace, never a hang
# ----------------------------------------------------------------------


#: Every engine entry point runs the one pipeline, so each must honour a
#: deadline the same way: ``(engine, options) -> result``.
ENTRY_POINTS = {
    "query": lambda engine, options: engine.query(QUERIES[0], options=options),
    "count": lambda engine, options: engine.count(QUERIES[0], options=options),
    "group_count": lambda engine, options: engine.group_count(
        QUERIES[0], "region", options=options
    ),
}


class TestDeadlines:
    @pytest.mark.parametrize("backend", ["inline", "threads", "processes"])
    def test_expired_budget_is_a_typed_error(self, relation, backend):
        for run in ENTRY_POINTS.values():
            with make_engine(relation, backend=backend) as engine:
                with pytest.raises(QueryTimeoutError):
                    run(engine, QueryOptions(deadline_ms=0.0))
                assert engine.snapshot()["resilience"]["timeouts"] == 1

    def test_generous_budget_does_not_interfere(self, relation, baselines):
        with make_engine(relation) as engine:
            result = engine.query(
                QUERIES[0], options=QueryOptions(deadline_ms=60_000.0)
            )
            assert np.array_equal(result.rids, baselines[QUERIES[0]])
            assert engine.snapshot()["resilience"]["timeouts"] == 0

    def test_partial_trace_attached_on_timeout(self, relation):
        for backend in ("inline", "threads", "processes"):
            for entry, run in ENTRY_POINTS.items():
                with make_engine(relation, backend=backend) as engine:
                    with pytest.raises(QueryTimeoutError) as excinfo:
                        run(engine, QueryOptions(deadline_ms=0.0, trace=True))
                trace = excinfo.value.trace
                assert trace is not None
                events = [span["name"] for span in trace.as_dict()["spans"]]
                assert "deadline.exceeded" in events
                assert events[-1] == "deadline.exceeded", (backend, entry)

    def test_timeout_not_retried(self, relation):
        # A deadline miss must fail fast, not burn the retry schedule.
        with make_engine(relation) as engine:
            with pytest.raises(QueryTimeoutError):
                engine.query(
                    QUERIES[0], options=QueryOptions(deadline_ms=0.0)
                )
            assert engine.snapshot()["resilience"]["retries"] == {}


# ----------------------------------------------------------------------
# Cache seam and orphan sweep
# ----------------------------------------------------------------------


class TestCacheSeam:
    def test_forced_miss_refetches_without_changing_results(
        self, relation, baselines
    ):
        plan = FaultPlan([FaultSpec("cache.get", "miss", count=-1)])
        with make_engine(
            relation, backend="threads", fault_plan=plan
        ) as engine:
            first = engine.query(QUERIES[0])
            second = engine.query(QUERIES[0])
            assert np.array_equal(first.rids, baselines[QUERIES[0]])
            assert np.array_equal(second.rids, baselines[QUERIES[0]])
            # Every lookup was forced to miss: the repeat query re-scans
            # instead of hitting the cache.
            assert second.stats.buffer_hits == 0
            assert second.stats.scans == first.stats.scans
        assert plan.injections


class TestOrphanSweep:
    def test_dead_publisher_segments_reclaimed(self, tmp_path):
        shm_dir = tmp_path / "shm"
        shm_dir.mkdir()
        dead_pid = 2**22 + 1  # beyond pid_max: guaranteed dead
        orphan = shm_dir / f"{_SHM_PREFIX}-{dead_pid}-deadbeef"
        orphan.write_bytes(b"stale")
        live = shm_dir / f"{_SHM_PREFIX}-{os.getpid()}-cafecafe"
        live.write_bytes(b"mine")
        unrelated = shm_dir / "psm_something"
        unrelated.write_bytes(b"other")
        reclaimed = sweep_orphan_segments(str(shm_dir))
        assert reclaimed == [orphan.name]
        assert not orphan.exists()
        assert live.exists()  # own segments are never touched
        assert unrelated.exists()  # foreign names are never touched

    def test_malformed_names_skipped(self, tmp_path):
        shm_dir = tmp_path / "shm"
        shm_dir.mkdir()
        weird = shm_dir / f"{_SHM_PREFIX}-notapid-x"
        weird.write_bytes(b"?")
        assert sweep_orphan_segments(str(shm_dir)) == []
        assert weird.exists()

    def test_missing_dir_is_noop(self, tmp_path):
        assert sweep_orphan_segments(str(tmp_path / "absent")) == []

    def test_engine_close_unlinks_all_publications(self, relation):
        engine = make_engine(relation)
        engine.query(QUERIES[0])
        engine.close()
        assert leaked_segments() == []


# ----------------------------------------------------------------------
# The store's write lock: a dead holder frees it, a live one times out typed
# ----------------------------------------------------------------------


def hold_write_lock(root: str, held, release, die: bool) -> None:
    """Take relation ``r``'s write lock in a child process, say so, then
    die holding it (``die``) or hold it until ``release`` is set."""
    with IndexStore(root)._writing("r"):
        held.set()
        if die:
            os._exit(0)
        release.wait(timeout=60)


class TestWriterLock:
    @pytest.fixture
    def root(self, tmp_path) -> str:
        root = str(tmp_path / "indexes")
        with IndexStore(root) as store:
            store.build(Relation.from_dict("r", {"x": np.arange(16) % 4}))
            store.append("r", {"x": np.array([1, 2])})
        return root

    @staticmethod
    def holder(root: str, die: bool):
        context = multiprocessing.get_context("fork")
        held, release = context.Event(), context.Event()
        child = context.Process(target=hold_write_lock, args=(root, held, release, die))
        child.start()
        assert held.wait(timeout=60)
        return child, release

    def test_a_writer_killed_holding_the_lock_frees_it(self, root):
        child, _ = self.holder(root, die=True)
        child.join(timeout=60)
        with IndexStore(root) as store:
            started = time.monotonic()
            assert store.append("r", {"x": np.array([3])}) == 19
            assert time.monotonic() - started < store_module._LOCK_WAIT_SECONDS / 10
            assert store.delta_rows("r") == 3

    def test_a_live_holder_past_the_ceiling_is_a_typed_error(self, root, monkeypatch):
        monkeypatch.setattr(store_module, "_LOCK_WAIT_SECONDS", 0.2)
        paths = [os.path.join(root, name) for name in ("r.rbix", "r.rbix.delta")]

        def contents() -> list[bytes]:
            return [open(path, "rb").read() for path in paths]

        before = contents()
        child, release = self.holder(root, die=False)
        try:
            with IndexStore(root) as store:
                with pytest.raises(StoreBusyError):
                    store.append("r", {"x": np.array([3])})
                assert contents() == before
        finally:
            release.set()
            child.join(timeout=60)
        assert child.exitcode == 0
