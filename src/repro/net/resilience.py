"""Deterministic session-resilience primitives for the live transport layer.

The endpoints of :mod:`repro.net` speak over the hostile link of
:mod:`repro.net.faults`, but until this module they were fair-weather: no
operation had a deadline, a cut session stayed dead, and teardown drained
forever against a stalled peer.  This module supplies the recovery
vocabulary — and keeps every recovery decision **seeded and replayable**, in
the repo's bit-identical idiom: a given seed replays an identical retry
schedule, and a session's recovery history is a :class:`ResilienceTrace`
whose JSON form is byte-identical across runs of the same seed (no wall
clock ever enters the trace).

* :class:`Clock` — the injectable time source.  :class:`RealClock` is the
  event loop's monotonic time; :class:`VirtualClock` is manually advanced,
  so timeout and drain tests run flake-free without a single real sleep.
* :class:`Deadline` / :class:`TimeoutConfig` — absolute budgets derived from
  a clock, and the per-operation timeout knobs (connect, per-request,
  idle-read, drain) the endpoints consume.
* :class:`RetryPolicy` — bounded attempts with exponential backoff whose
  jitter draws from a seeded :class:`~random.Random`: the delay schedule is
  a pure function of the seed.
* :class:`CircuitBreaker` — trips open after consecutive failures, refuses
  fast while open, half-opens after a cooldown measured on the injected
  clock.
* :class:`ResilienceTrace` — the ordered, typed record of every recovery
  decision (retry, reconnect, resync, timeout, rotation resume, breaker
  trip, drain cancel) that the chaos-soak gate diffs across seeded reruns.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from random import Random

from ..core.errors import ReproError


class ResilienceError(ReproError):
    """A resilience-policy violation (bad configuration, exhausted budget)."""


class DeadlineExceeded(ResilienceError, TimeoutError):
    """An operation overran its deadline (also catchable as TimeoutError)."""

    def __init__(self, operation: str, timeout: float):
        super().__init__(f"{operation} exceeded its {timeout:g}s deadline")
        self.operation = operation
        self.timeout = timeout


class CircuitOpen(ResilienceError):
    """The circuit breaker is open: the operation was refused, not attempted."""


class RetriesExhausted(ResilienceError):
    """Every attempt a retry policy allowed has failed."""

    def __init__(self, operation: str, attempts: int, last: BaseException):
        super().__init__(
            f"{operation} failed after {attempts} attempt(s): "
            f"{type(last).__name__}: {last}"
        )
        self.operation = operation
        self.attempts = attempts
        self.last = last


# ---------------------------------------------------------------------------
# clocks
# ---------------------------------------------------------------------------


class RealClock:
    """Event-loop monotonic time; the production clock."""

    def now(self) -> float:
        return asyncio.get_event_loop().time()

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(max(0.0, delay))

    async def wait_for(self, awaitable, timeout: "float | None"):
        """``asyncio.wait_for`` with ``None`` meaning *no deadline*."""
        if timeout is None:
            return await awaitable
        return await asyncio.wait_for(awaitable, timeout)


class VirtualClock:
    """A manually advanced clock: timeouts without real time.

    ``sleep``/``wait_for`` suspend on futures that only resolve when the test
    calls :meth:`advance` (or :meth:`run`, which auto-advances to the next
    scheduled wake-up).  Tests of idle reaping, drain deadlines and retry
    backoff therefore run in microseconds and can never flake on scheduler
    jitter — the satellite requirement "virtual clock, no sleeps".
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._sequence = itertools.count()
        #: heap of (due time, tiebreak, future)
        self._sleepers: list[tuple[float, int, asyncio.Future]] = []

    def now(self) -> float:
        return self._now

    async def sleep(self, delay: float) -> None:
        if delay <= 0:
            await asyncio.sleep(0)
            return
        future = asyncio.get_event_loop().create_future()
        heapq.heappush(self._sleepers,
                       (self._now + delay, next(self._sequence), future))
        await future

    async def wait_for(self, awaitable, timeout: "float | None"):
        if timeout is None:
            return await awaitable
        task = asyncio.ensure_future(awaitable)
        timer = asyncio.ensure_future(self.sleep(timeout))
        try:
            done, _ = await asyncio.wait(
                {task, timer}, return_when=asyncio.FIRST_COMPLETED)
        except asyncio.CancelledError:
            for pending in (task, timer):
                pending.cancel()
            await asyncio.gather(task, timer, return_exceptions=True)
            raise
        if task in done:
            timer.cancel()
            await asyncio.gather(timer, return_exceptions=True)
            return task.result()
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        raise asyncio.TimeoutError(
            f"virtual wait_for overran its {timeout:g}s timeout")

    async def _settle(self, rounds: int = 10) -> None:
        # Let already-runnable coroutines reach their next await.
        for _ in range(rounds):
            await asyncio.sleep(0)

    async def advance(self, delta: float) -> None:
        """Move time forward, waking every sleeper whose due time passed."""
        await self._settle()
        target = self._now + max(0.0, delta)
        while self._sleepers and self._sleepers[0][0] <= target:
            due, _, future = heapq.heappop(self._sleepers)
            self._now = max(self._now, due)
            if not future.done():
                future.set_result(None)
            await self._settle()
        self._now = target
        await self._settle()

    async def run(self, awaitable, *, limit: int = 10_000):
        """Drive ``awaitable`` to completion, auto-advancing to each wake-up.

        Raises :class:`ResilienceError` when the task is blocked with nothing
        scheduled on the clock (a genuine hang a timeout should have bounded)
        or after ``limit`` advances (a runaway retry loop).
        """
        task = asyncio.ensure_future(awaitable)
        for _ in range(limit):
            await self._settle()
            if task.done():
                return task.result()
            if not self._sleepers:
                await self._settle(50)
                if task.done():
                    return task.result()
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
                raise ResilienceError(
                    "virtual clock has nothing scheduled but the task is "
                    "still pending — an unbounded wait a deadline should cover"
                )
            await self.advance(self._sleepers[0][0] - self._now)
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        raise ResilienceError(f"virtual clock exceeded {limit} advances")


#: Anything with now()/sleep()/wait_for() — RealClock, VirtualClock.
Clock = RealClock


# ---------------------------------------------------------------------------
# deadlines and timeout configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Deadline:
    """An absolute time budget measured on an injected clock."""

    clock: "RealClock | VirtualClock"
    at: "float | None"
    operation: str = "operation"

    @classmethod
    def after(cls, clock, timeout: "float | None", *,
              operation: str = "operation") -> "Deadline":
        """A deadline ``timeout`` seconds from now (``None`` = unbounded)."""
        at = None if timeout is None else clock.now() + timeout
        return cls(clock=clock, at=at, operation=operation)

    def remaining(self) -> "float | None":
        """Seconds left (clamped at 0); ``None`` when unbounded."""
        if self.at is None:
            return None
        return max(0.0, self.at - self.clock.now())

    @property
    def expired(self) -> bool:
        return self.at is not None and self.clock.now() >= self.at

    async def wait_for(self, awaitable):
        """Run ``awaitable`` under whatever budget remains."""
        remaining = self.remaining()
        try:
            return await self.clock.wait_for(awaitable, remaining)
        except (asyncio.TimeoutError, TimeoutError) as exc:
            raise DeadlineExceeded(
                self.operation,
                remaining if remaining is not None else math.inf,
            ) from exc


@dataclass(frozen=True)
class TimeoutConfig:
    """Per-operation timeout knobs of a resilient endpoint (seconds).

    ``None`` disables the bound.  Only ``drain`` carries a default: an
    unbounded teardown drain is how a slow-loris peer hangs a test suite,
    so :meth:`ObfuscatedClient.close` and ``ObfuscatedServer.stop`` are
    bounded out of the box while connect/request/idle stay opt-in
    (pre-resilience sessions keep their exact behavior).
    """

    #: dial budget of connect_tcp / reconnect attempts.
    connect: "float | None" = None
    #: budget of one request() round trip (send + await reply).
    request: "float | None" = None
    #: longest silence tolerated while awaiting inbound bytes.
    idle_read: "float | None" = None
    #: teardown budget for draining in-flight data / sessions.
    drain: "float | None" = 5.0


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with seeded exponential backoff.

    The delay before retry *n* (1-based) is
    ``min(max_delay, base_delay * multiplier**(n-1))`` scaled by a jitter
    factor drawn uniformly from ``[1 - jitter, 1]`` out of ``Random(seed)``.
    Draws happen in a fixed order, one per retry, so :meth:`delays` is a pure
    function of the policy — the same seed replays the identical schedule,
    which is what lets the chaos-soak gate diff recovery traces bit-for-bit.
    """

    #: total tries including the first (1 = no retries).
    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    #: fraction of each delay randomized away (0 = fully deterministic).
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ResilienceError(f"attempts must be >= 1 ({self.attempts})")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ResilienceError("delays cannot be negative")
        if self.multiplier < 1.0:
            raise ResilienceError(f"multiplier must be >= 1 ({self.multiplier})")
        if not 0.0 <= self.jitter <= 1.0:
            raise ResilienceError(f"jitter must be within [0, 1] ({self.jitter})")

    def reseed(self, seed: int) -> "RetryPolicy":
        return replace(self, seed=seed)

    def delays(self) -> tuple[float, ...]:
        """The full backoff schedule (one delay per retry, attempts-1 long)."""
        rng = Random(self.seed)
        schedule = []
        for retry in range(self.attempts - 1):
            delay = min(self.max_delay,
                        self.base_delay * self.multiplier ** retry)
            if self.jitter:
                delay *= 1.0 - self.jitter * rng.random()
            schedule.append(round(delay, 9))
        return tuple(schedule)


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


class CircuitBreaker:
    """Trips open after consecutive failures; recovers via half-open probes.

    States follow the classic machine: **closed** (operations flow, failures
    count), **open** (operations are refused with :class:`CircuitOpen` until
    ``reset_timeout`` elapses on the injected clock), **half-open** (one
    probe allowed; success closes, failure re-opens).  All transitions are
    recorded on an attached :class:`ResilienceTrace` so breaker trips are
    diagnosable events, never silent refusals.
    """

    def __init__(self, *, failure_threshold: int = 3,
                 reset_timeout: float = 1.0,
                 clock: "RealClock | VirtualClock | None" = None,
                 trace: "ResilienceTrace | None" = None):
        if failure_threshold < 1:
            raise ResilienceError(
                f"failure_threshold must be >= 1 ({failure_threshold})")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock if clock is not None else RealClock()
        self.trace = trace
        self.state = "closed"
        self.failures = 0
        self.trips = 0
        self._opened_at: float | None = None

    def _record(self, event: str, **details) -> None:
        if self.trace is not None:
            self.trace.record(event, **details)

    def allow(self) -> bool:
        """May an operation proceed right now?  (Half-opens after cooldown.)"""
        if self.state == "open":
            if (self._opened_at is not None
                    and self.clock.now() - self._opened_at >= self.reset_timeout):
                self.state = "half_open"
                self._record("breaker_half_open")
                return True
            return False
        return True

    def check(self, operation: str = "operation") -> None:
        """Raise :class:`CircuitOpen` unless the operation may proceed."""
        if not self.allow():
            raise CircuitOpen(
                f"{operation} refused: circuit breaker is open after "
                f"{self.failures} consecutive failure(s)"
            )

    def record_success(self) -> None:
        if self.state != "closed":
            self._record("breaker_close")
        self.state = "closed"
        self.failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == "half_open" or self.failures >= self.failure_threshold:
            if self.state != "open":
                self.trips += 1
                self._record("breaker_trip", failures=self.failures)
            self.state = "open"
            self._opened_at = self.clock.now()


# ---------------------------------------------------------------------------
# recovery traces
# ---------------------------------------------------------------------------


@dataclass
class ResilienceTrace:
    """The ordered, typed history of one endpoint's recovery decisions.

    Events are ``(kind, details)`` pairs carrying only *logical* data —
    attempt numbers, chosen backoff delays, key ids, typed error names —
    never wall-clock readings, so :meth:`to_json` of two runs under the same
    seed is byte-identical.  This is the artifact the chaos-soak benchmark's
    determinism guard compares.
    """

    events: list[dict] = field(default_factory=list)

    def record(self, kind: str, **details) -> dict:
        event = {"kind": kind, **details}
        self.events.append(event)
        return event

    def kinds(self) -> tuple[str, ...]:
        return tuple(event["kind"] for event in self.events)

    def count(self, kind: str) -> int:
        return sum(1 for event in self.events if event["kind"] == kind)

    def to_json(self) -> str:
        return json.dumps(self.events, sort_keys=True, separators=(",", ":"))


async def retry_operation(operation, policy: RetryPolicy, *,
                          clock: "RealClock | VirtualClock | None" = None,
                          breaker: "CircuitBreaker | None" = None,
                          trace: "ResilienceTrace | None" = None,
                          retryable: tuple = (ConnectionError, OSError,
                                              asyncio.TimeoutError, TimeoutError),
                          label: str = "operation",
                          on_retry=None):
    """Run ``operation()`` under a retry policy, breaker and trace.

    ``operation`` is a zero-argument coroutine function called once per
    attempt.  Retryable failures consume one backoff delay from the policy's
    seeded schedule (slept on the injected clock) and are recorded on the
    trace; ``on_retry(attempt, error)`` — when given — runs before each
    re-attempt (the endpoints hook their re-dial there).  A breaker that is
    open refuses immediately with :class:`CircuitOpen` (never counted as an
    attempt); exhausting the schedule raises :class:`RetriesExhausted`
    carrying the last failure.
    """
    clock = clock if clock is not None else RealClock()
    delays = policy.delays()
    last: BaseException | None = None
    for attempt in range(1, policy.attempts + 1):
        if breaker is not None:
            breaker.check(label)
        try:
            result = await operation()
        except retryable as exc:
            last = exc
            if breaker is not None:
                breaker.record_failure()
            if attempt > len(delays):
                break
            delay = delays[attempt - 1]
            if trace is not None:
                trace.record("retry", op=label, attempt=attempt,
                             delay=delay, error=type(exc).__name__)
            await clock.sleep(delay)
            if on_retry is not None:
                await on_retry(attempt, exc)
        else:
            if breaker is not None:
                breaker.record_success()
            return result
    raise RetriesExhausted(label, policy.attempts, last)


__all__ = [
    "CircuitBreaker",
    "CircuitOpen",
    "Clock",
    "Deadline",
    "DeadlineExceeded",
    "RealClock",
    "ResilienceError",
    "ResilienceTrace",
    "RetriesExhausted",
    "RetryPolicy",
    "TimeoutConfig",
    "VirtualClock",
    "retry_operation",
]
