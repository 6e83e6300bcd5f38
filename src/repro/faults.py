"""Deterministic fault injection and cooperative deadlines.

A serving system's failure handling is only trustworthy if every failure
class can be reproduced on demand.  This module is the harness: a
:class:`FaultPlan` holds a list of :class:`FaultSpec` injectors, each
armed at one named *seam* of the query path and firing on the Nth call
through that seam.  Determinism is the design constraint — given the
same plan and the same call sequence, the same faults fire at the same
places, so a chaos test can assert bit-identical recovery against the
no-fault run.

Seams and the fault kinds they accept:

================  ====================================================
seam              kinds
================  ====================================================
``disk.read``     ``error`` (read raises), ``torn`` (short read),
                  ``corrupt`` (one byte flipped before verification)
``disk.write``    ``error`` (write fails after the temp file is
                  written, before the atomic rename — a simulated
                  mid-write crash)
``shm.attach``    ``error`` (worker raises
                  :class:`~repro.errors.ShmAttachError`), ``corrupt``
                  (one published payload byte flipped, caught by the
                  image's own checksums when the worker attaches)
``worker.execute``  ``crash`` (worker process exits hard, breaking the
                  pool), ``error`` (worker raises
                  :class:`~repro.errors.InjectedFaultError`)
``cache.get``     ``miss`` (lookup is forced to miss and refetch)
================  ====================================================

Injection *sites* consult the plan by calling :meth:`FaultPlan.check`
with their seam name and a call identifier (a file path, a shard label,
a cache key); a returned spec means "fire this fault now".  Sites that
never see a plan pay one ``is None`` test — the no-fault hot path is
untouched.  Every ``disk.read`` site is one call of :func:`read_fault`.

:class:`Deadline` is the cooperative-cancellation companion: a
wall-clock budget created from ``QueryOptions(deadline_ms=...)`` and
threaded through :class:`~repro.stats.ExecutionStats` so the evaluator,
storage, and shard seams can abort a query that has outlived its budget
with a typed :class:`~repro.errors.QueryTimeoutError` instead of
serving late (or hanging a pool).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.errors import EngineConfigError, InjectedFaultError, QueryTimeoutError

#: Seam name -> the fault kinds an injector there may request.
SEAM_KINDS: dict[str, tuple[str, ...]] = {
    "disk.read": ("error", "torn", "corrupt"),
    "disk.write": ("error",),
    "shm.attach": ("error", "corrupt"),
    "worker.execute": ("crash", "error"),
    "cache.get": ("miss",),
}

#: The seams a plan can arm (fixed; sites are compiled in).
SEAMS = tuple(SEAM_KINDS)


@dataclass(frozen=True)
class FaultSpec:
    """One armed injector: fire ``kind`` at ``seam`` on the Nth call.

    ``nth`` is 1-based over the calls through the seam that satisfy
    ``match`` (a substring filter on the call identifier; ``None``
    matches every call).  ``count`` is how many consecutive matching
    calls fire from ``nth`` on; ``-1`` fires forever — the knob for
    "this fault does not go away" scenarios that must end in
    degradation rather than a successful retry.
    """

    seam: str
    kind: str
    nth: int = 1
    count: int = 1
    match: str | None = None

    def __post_init__(self):
        kinds = SEAM_KINDS.get(self.seam)
        if kinds is None:
            known = ", ".join(SEAMS)
            raise EngineConfigError(
                f"unknown fault seam {self.seam!r}; expected one of: {known}"
            )
        if self.kind not in kinds:
            raise EngineConfigError(
                f"seam {self.seam!r} does not support kind {self.kind!r}; "
                f"it accepts: {', '.join(kinds)}"
            )
        if self.nth < 1:
            raise EngineConfigError(f"nth must be >= 1, got {self.nth}")
        if self.count < -1 or self.count == 0:
            raise EngineConfigError(
                f"count must be >= 1 or -1 (forever), got {self.count}"
            )


@dataclass(frozen=True)
class Injection:
    """A record of one fault that actually fired (for assertions/metrics)."""

    seam: str
    kind: str
    ident: str


class FaultPlan:
    """A seeded, deterministic set of armed fault injectors.

    Each spec keeps its own call counter (calls through its seam whose
    identifier satisfies its ``match`` filter), so firing is a pure
    function of the call sequence — no randomness decides *whether* a
    fault fires.  The ``seed`` only parameterizes *payload details* of a
    fired fault (which byte to flip), keeping those deterministic too.

    Thread-safe: sites on worker threads may consult the plan
    concurrently.  A plan does **not** cross process boundaries — the
    engine evaluates worker-affecting seams at dispatch time in the
    parent and ships plain directives to the workers, so counters stay
    in one place and retries observe the fired state.
    """

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...], seed: int = 0):
        self.specs = tuple(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise EngineConfigError(
                    f"FaultPlan takes FaultSpec instances, got {spec!r}"
                )
        self.seed = seed
        self._lock = threading.Lock()
        self._calls = [0] * len(self.specs)
        self._rng = random.Random(seed)
        self.injections: list[Injection] = []

    def check(self, seam: str, ident: str = "") -> FaultSpec | None:
        """Count one call through ``seam``; the spec to fire, or ``None``.

        At most one spec fires per call (the first armed one in plan
        order); every matching spec's counter advances regardless, so
        two injectors at one seam see the same call stream.
        """
        fired = None
        with self._lock:
            for i, spec in enumerate(self.specs):
                if spec.seam != seam:
                    continue
                if spec.match is not None and spec.match not in ident:
                    continue
                self._calls[i] += 1
                calls = self._calls[i]
                in_window = calls >= spec.nth and (
                    spec.count == -1 or calls < spec.nth + spec.count
                )
                if fired is None and in_window:
                    fired = spec
            if fired is not None:
                self.injections.append(Injection(seam, fired.kind, ident))
        return fired

    def byte_offset(self, length: int) -> int:
        """A deterministic (seeded) byte offset into a payload of ``length``."""
        if length <= 0:
            return 0
        with self._lock:
            return self._rng.randrange(length)

    def snapshot(self) -> dict:
        """Fired injections and per-seam call counts (JSON-friendly)."""
        with self._lock:
            by_seam: dict[str, int] = {}
            for injection in self.injections:
                by_seam[injection.seam] = by_seam.get(injection.seam, 0) + 1
            return {
                "seed": self.seed,
                "fired": len(self.injections),
                "by_seam": by_seam,
                "injections": [
                    {"seam": i.seam, "kind": i.kind, "ident": i.ident}
                    for i in self.injections
                ],
            }

    def reset(self) -> None:
        """Re-arm every spec and clear the fired log (same seed)."""
        with self._lock:
            self._calls = [0] * len(self.specs)
            self._rng = random.Random(self.seed)
            self.injections.clear()

    def __repr__(self) -> str:
        return (
            f"FaultPlan(specs={len(self.specs)}, seed={self.seed}, "
            f"fired={len(self.injections)})"
        )


def read_fault(plan: FaultPlan | None, ident: str, data):
    """The ``disk.read`` seam: ``data`` as a possibly faulted read returns it.

    A clean read returns ``data`` itself, so a site can tell one by
    identity.  ``error`` raises :class:`~repro.errors.InjectedFaultError`,
    ``torn`` returns the first half, ``corrupt`` a copy with one seeded
    byte flipped (an empty read has none to flip); catching the damage is
    the caller's integrity check's job.
    """
    if plan is None:
        return data
    spec = plan.check("disk.read", ident=ident)
    if spec is None:
        return data
    if spec.kind == "error":
        raise InjectedFaultError(f"injected read error on {ident}")
    if spec.kind == "torn":
        return bytes(data[: len(data) // 2])
    if not len(data):
        return data
    mutated = bytearray(data)
    mutated[plan.byte_offset(len(mutated))] ^= 0xFF
    return bytes(mutated)


@dataclass
class Deadline:
    """A cooperative wall-clock budget for one query (or one batch).

    Created from ``QueryOptions(deadline_ms=...)`` and threaded through
    the :class:`~repro.stats.ExecutionStats` object every layer already
    receives; seams call :meth:`check` and a typed
    :class:`~repro.errors.QueryTimeoutError` aborts the evaluation as
    soon as the budget is gone.  Uses ``time.monotonic()``, which on this
    platform is system-wide, so a remaining budget shipped to a worker
    process stays meaningful.
    """

    deadline_ms: float
    expires_at: float = field(default=0.0)

    def __post_init__(self):
        if self.deadline_ms < 0:
            raise EngineConfigError(
                f"deadline_ms must be >= 0, got {self.deadline_ms}"
            )
        if not self.expires_at:
            self.expires_at = time.monotonic() + self.deadline_ms / 1e3

    @property
    def remaining_seconds(self) -> float:
        """Seconds left before expiry (negative once overdue)."""
        return self.expires_at - time.monotonic()

    @property
    def remaining_ms(self) -> float:
        return 1e3 * self.remaining_seconds

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, where: str = "query") -> None:
        """Raise :class:`QueryTimeoutError` if the budget is exhausted."""
        if time.monotonic() >= self.expires_at:
            raise QueryTimeoutError(
                f"deadline of {self.deadline_ms:g} ms exceeded at {where}"
            )
