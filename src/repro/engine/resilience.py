"""Retry and circuit-breaker policies for the serving engine.

The process backend has real failure modes — workers die, shared-memory
publications can be torn, the pool itself can break.  Recovery must be
*bounded* (a stuck backend may not consume unbounded wall-clock) and
*observable* (every retry and degradation lands in the metrics).  This
module holds the two policy objects the engine consults:

- :class:`RetryPolicy` — how many times to retry a failed dispatch and
  how long to wait between attempts: exponential backoff scaled by a
  fixed, seeded schedule of jitter factors.  Every recovery episode of
  every engine with the same ``seed`` sleeps the same schedule, so tests
  stay deterministic; the jitter does not spread concurrent engines'
  retries apart (give each engine its own ``seed`` for that).
- :class:`CircuitBreaker` — per-key (the engine keys by relation)
  failure accounting.  After ``failure_threshold`` consecutive failures
  the circuit *opens*: the engine stops sending that relation's queries
  to the failing backend and serves from the degradation ladder instead,
  sparing the pool a rebuild storm.  After ``reset_after_seconds`` the
  circuit goes *half-open* and one trial dispatch is allowed through; a
  success closes it, a failure re-opens it.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import EngineConfigError

#: Circuit states (values chosen for readable snapshots).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff on a fixed, seeded jitter schedule.

    Attempt ``k`` (0-based) sleeps
    ``min(base_delay_seconds * multiplier**k, max_delay_seconds)``
    scaled by a jitter factor drawn uniformly from
    ``[1 - jitter, 1 + jitter]`` by ``random.Random(seed)``, reseeded for
    each episode: every episode, of every policy with the same ``seed``,
    sleeps the same schedule.  ``max_retries=0`` disables retries — the
    first failure goes straight to degradation.
    """

    max_retries: int = 2
    base_delay_seconds: float = 0.05
    multiplier: float = 2.0
    max_delay_seconds: float = 1.0
    jitter: float = 0.5
    seed: int = 0x5EED

    def __post_init__(self):
        if self.max_retries < 0:
            raise EngineConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay_seconds < 0 or self.max_delay_seconds < 0:
            raise EngineConfigError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise EngineConfigError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise EngineConfigError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delays(self) -> Iterator[float]:
        """The backoff schedule for one recovery episode: the same one on
        every call, as the generator is reseeded with ``seed`` each time."""
        rng = random.Random(self.seed)
        for attempt in range(self.max_retries):
            base = min(
                self.base_delay_seconds * self.multiplier**attempt,
                self.max_delay_seconds,
            )
            factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield max(0.0, base * factor)


class CircuitBreaker:
    """Per-key consecutive-failure breaker with half-open recovery.

    Thread-safe.  Keys are opaque strings (the engine uses relation
    names).  An unknown key is a closed circuit — relations start
    healthy.  ``clock`` is injectable so tests can drive the reset
    window without sleeping.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise EngineConfigError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_after_seconds < 0:
            raise EngineConfigError(
                f"reset_after_seconds must be >= 0, got {reset_after_seconds}"
            )
        self.failure_threshold = failure_threshold
        self.reset_after_seconds = reset_after_seconds
        self._clock = clock
        self._lock = threading.Lock()
        # key -> [state, consecutive_failures, opened_at]
        self._states: dict[str, list] = {}

    def allow(self, key: str) -> bool:
        """May a dispatch for ``key`` proceed on the protected backend?

        Open circuits whose reset window has elapsed transition to
        half-open and let one trial through; the next
        :meth:`record_success` / :meth:`record_failure` decides whether
        the circuit closes or re-opens.
        """
        with self._lock:
            entry = self._states.get(key)
            if entry is None or entry[0] != OPEN:
                return True
            if self._clock() - entry[2] >= self.reset_after_seconds:
                entry[0] = HALF_OPEN
                return True
            return False

    def record_success(self, key: str) -> None:
        with self._lock:
            entry = self._states.get(key)
            if entry is not None:
                entry[0] = CLOSED
                entry[1] = 0

    def record_failure(self, key: str) -> None:
        with self._lock:
            entry = self._states.get(key)
            if entry is None:
                entry = self._states[key] = [CLOSED, 0, 0.0]
            entry[1] += 1
            if entry[0] == HALF_OPEN or entry[1] >= self.failure_threshold:
                entry[0] = OPEN
                entry[2] = self._clock()

    def state(self, key: str) -> str:
        with self._lock:
            entry = self._states.get(key)
            if entry is None:
                return CLOSED
            if (
                entry[0] == OPEN
                and self._clock() - entry[2] >= self.reset_after_seconds
            ):
                return HALF_OPEN
            return entry[0]

    def reset(self) -> None:
        """Close every circuit and forget the failure history."""
        with self._lock:
            self._states.clear()

    def snapshot(self) -> dict:
        """Per-key breaker state for the engine's metrics snapshot."""
        with self._lock:
            now = self._clock()
            out = {}
            for key, (state, failures, opened_at) in sorted(self._states.items()):
                if state == OPEN and now - opened_at >= self.reset_after_seconds:
                    state = HALF_OPEN
                out[key] = {
                    "state": state,
                    "consecutive_failures": failures,
                    "seconds_open": (now - opened_at) if state != CLOSED else 0.0,
                }
            return out

    def __repr__(self) -> str:
        with self._lock:
            open_keys = [k for k, v in self._states.items() if v[0] == OPEN]
        return (
            f"CircuitBreaker(threshold={self.failure_threshold}, "
            f"reset_after={self.reset_after_seconds}s, open={open_keys})"
        )
