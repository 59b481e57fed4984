"""Resource governance: per-session budgets, overload detection, load shedding.

PR 6 made the transport survive hostile *bytes* and PR 7 hostile *timing*;
this module handles hostile *volume*.  Without it a single peer can grow the
server's buffers without bound — declare a huge record and drip bytes toward
it, pack thousands of messages into one chunk, or simply outpace its consumer
— and take every other session down with it.  Two mechanisms restore the
graceful degradation the resilience study measures:

* a :class:`ResourceBudget` caps what one session may cost: buffered stream
  bytes, pending decoded messages, declared record/field sizes (validated
  *before* any buffering toward them) and decode work per feed.  The limits
  are enforced inside :class:`~repro.wire.streaming.StreamingDecoder`,
  :class:`~repro.net.framing.RecordDecoder` and the session pumps; every
  violation raises a typed :class:`BudgetExceeded` naming the resource, so
  an overload diagnosis is always attributable to a counter.

* a :class:`LoadGovernor` watches the *aggregate* — buffered bytes summed
  over all registered sessions, plus the session count — against low/high
  watermarks and moves the server through ``healthy → degraded → shedding``.
  Degraded servers pause reading on their heaviest sessions (real
  backpressure: the pump stops pulling, the transport's flow control pushes
  back to the sender) instead of buffering; shedding servers refuse new
  admissions with a typed busy/retry-after control record
  (:func:`~repro.net.framing.encode_busy`) that a resilient
  :class:`~repro.net.session.ObfuscatedClient` converts into
  :class:`ServerBusy` — a retryable condition its PR 7
  :class:`~repro.net.resilience.RetryPolicy` backs off on.

Everything is deterministic: the governor holds no clock and no randomness —
state transitions are a pure function of the accounting sequence — so an
overload soak replays byte-identically under the virtual clock, which is
exactly what ``benchmarks/test_bench_overload_soak.py`` pins.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, fields

from ..core.errors import BudgetExceeded, ReproError

__all__ = [
    "BudgetExceeded",
    "GovernanceError",
    "LoadGovernor",
    "ResourceBudget",
    "ServerBusy",
    "SessionLoad",
]

#: Governor states, in order of increasing distress.
GOVERNOR_STATES = ("healthy", "degraded", "shedding")


class GovernanceError(ReproError):
    """A budget or governor configuration is malformed."""


class ServerBusy(ConnectionError):
    """The peer shed this admission with a busy/retry-after control record.

    Subclasses :class:`ConnectionError`, so a client with a
    :class:`~repro.net.resilience.RetryPolicy` treats the shed exactly like
    a transport death: back off on the seeded schedule, reconnect, re-drive.
    ``retry_after`` carries the server's advisory hint from the wire.
    """

    def __init__(self, retry_after: float = 0.0, message: str | None = None):
        if message is None:
            message = (f"server overloaded: admission shed "
                       f"(retry after {retry_after:g}s)")
        super().__init__(message)
        self.retry_after = retry_after


# ---------------------------------------------------------------------------
# per-session budgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResourceBudget:
    """What one session is allowed to cost, as hard typed limits.

    ``None`` disables the corresponding limit.  The budget object is passed
    to decoders and pumps by reference (duck-typed attributes, so the wire
    layer never imports the net layer); it is immutable, JSON round-trippable
    and fingerprintable like a :class:`~repro.net.faults.FaultPlan` — budget
    profiles are replayable experiment inputs, not tuning folklore.
    """

    #: max bytes buffered per stream (decoder backlog + queued messages).
    max_stream_bytes: int | None = 1 << 20
    #: max decoded-but-undelivered messages parked in a session pump.
    max_pending_messages: int | None = 1024
    #: max *declared* record/field size — validated against the declaration
    #: itself, before a single byte is buffered toward it.
    max_declared_bytes: int | None = 1 << 24
    #: max messages decoded from one fed chunk (work bound per feed).
    max_steps_per_feed: int | None = 4096

    def __post_init__(self) -> None:
        for name in ("max_stream_bytes", "max_pending_messages",
                     "max_declared_bytes", "max_steps_per_feed"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise GovernanceError(f"{name} must be >= 1 or None ({value})")

    # -- canned profiles -------------------------------------------------------

    @classmethod
    def standard(cls) -> "ResourceBudget":
        """The default production profile (generous but bounded)."""
        return cls()

    @classmethod
    def strict(cls) -> "ResourceBudget":
        """A tight profile for small-message protocols and hostile edges."""
        return cls(max_stream_bytes=1 << 16, max_pending_messages=64,
                   max_declared_bytes=1 << 13, max_steps_per_feed=256)

    @classmethod
    def unbounded(cls) -> "ResourceBudget":
        """No limits — the pre-governance behaviour, kept as a control."""
        return cls(max_stream_bytes=None, max_pending_messages=None,
                   max_declared_bytes=None, max_steps_per_feed=None)

    def describe(self) -> str:
        parts = []
        for entry in fields(self):
            value = getattr(self, entry.name)
            short = entry.name.replace("max_", "").replace("_bytes", "")
            parts.append(f"{short}={'∞' if value is None else value}")
        return " ".join(parts)

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ResourceBudget":
        known = {entry.name for entry in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise GovernanceError(
                f"unknown budget field(s): {', '.join(sorted(unknown))}"
            )
        try:
            return cls(**payload)
        except TypeError as exc:
            raise GovernanceError(f"malformed budget: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ResourceBudget":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise GovernanceError(f"budget is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise GovernanceError("budget JSON must be an object")
        return cls.from_dict(payload)

    @property
    def fingerprint(self) -> str:
        """Stable short identifier of the profile (canonical-JSON digest)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# server-level overload control
# ---------------------------------------------------------------------------


class SessionLoad:
    """One session's load handle under a :class:`LoadGovernor`.

    The session's pump reports its buffered bytes through :meth:`update`
    after every accounting change, and awaits :meth:`readable` before each
    transport read — when the governor pauses this session, the pump simply
    stops pulling and the transport's own flow control does the rest.
    """

    __slots__ = ("session", "order", "buffered", "paused", "_governor",
                 "_readable")

    def __init__(self, session: str, order: int, governor: "LoadGovernor"):
        self.session = session
        #: registration sequence number (the deterministic pause tie-break).
        self.order = order
        self.buffered = 0
        self.paused = False
        self._governor = governor
        self._readable = asyncio.Event()
        self._readable.set()

    def update(self, buffered: int) -> None:
        """Report this session's current buffered bytes to the governor."""
        if buffered != self.buffered:
            self.buffered = buffered
            self._governor.reassess()

    async def readable(self) -> None:
        """Wait until the governor allows this session to read again."""
        await self._readable.wait()

    def _pause(self) -> None:
        self.paused = True
        self._readable.clear()

    def _resume(self) -> None:
        self.paused = False
        self._readable.set()


class LoadGovernor:
    """Watermark-driven overload state machine over a server's sessions.

    Tracks the aggregate buffered bytes and the session count of every
    registered :class:`SessionLoad` against low/high watermarks:

    * ``healthy`` — below every low watermark; all sessions read freely.
    * ``degraded`` — a low watermark is crossed; the governor pauses reading
      on the *heaviest* sessions (largest buffers first, registration order
      as the tie-break) until the unpaused aggregate fits back under
      ``low_bytes`` — backpressure lands on the sessions causing the load.
    * ``shedding`` — a high watermark is crossed; new admissions are refused
      with a typed busy record (:meth:`should_shed` /
      ``ObfuscatedServer``) while existing sessions keep draining.

    The governor holds no clock and draws no randomness: its state is a pure
    function of the accounting-call sequence, so overload behaviour replays
    deterministically.  ``retry_after`` is the advisory hint carried by shed
    responses.  Transitions, pauses and sheds are counted and, when a
    ``trace`` is attached, recorded as typed events.
    """

    def __init__(self, *, low_bytes: int = 256 << 10,
                 high_bytes: int = 1 << 20,
                 low_sessions: int | None = None,
                 high_sessions: int | None = None,
                 retry_after: float = 0.25,
                 trace=None):
        if not 0 < low_bytes <= high_bytes:
            raise GovernanceError(
                f"need 0 < low_bytes <= high_bytes "
                f"({low_bytes} / {high_bytes})"
            )
        if (low_sessions is not None and high_sessions is not None
                and low_sessions > high_sessions):
            raise GovernanceError(
                f"need low_sessions <= high_sessions "
                f"({low_sessions} / {high_sessions})"
            )
        for name, value in (("low_sessions", low_sessions),
                            ("high_sessions", high_sessions)):
            if value is not None and value < 1:
                raise GovernanceError(f"{name} must be >= 1 ({value})")
        if retry_after < 0:
            raise GovernanceError(f"retry_after cannot be negative ({retry_after})")
        self.low_bytes = low_bytes
        self.high_bytes = high_bytes
        self.low_sessions = low_sessions
        self.high_sessions = high_sessions
        #: advisory backoff hint carried by shed busy records.
        self.retry_after = retry_after
        #: optional ResilienceTrace receiving typed overload events.
        self.trace = trace
        self.state = "healthy"
        self._loads: list[SessionLoad] = []
        self._orders = itertools.count(1)
        #: admissions refused while shedding.
        self.sheds = 0
        #: pause / resume edges applied to session reads.
        self.pauses = 0
        self.resumes = 0
        #: state changes across the governor's lifetime.
        self.transitions = 0
        self.peak_aggregate = 0
        self.peak_sessions = 0

    # -- registration ----------------------------------------------------------

    @property
    def aggregate(self) -> int:
        """Buffered bytes summed over every registered session."""
        return sum(load.buffered for load in self._loads)

    @property
    def session_count(self) -> int:
        return len(self._loads)

    def register(self, session: str) -> SessionLoad:
        """Admit one session into the accounting; returns its load handle."""
        load = SessionLoad(session, next(self._orders), self)
        self._loads.append(load)
        self.reassess()
        return load

    def unregister(self, load: SessionLoad) -> None:
        """Drop a completed session from the accounting (always resumes it)."""
        if load.paused:
            load._resume()
        try:
            self._loads.remove(load)
        except ValueError:  # pragma: no cover - double unregister is benign
            return
        self.reassess()

    # -- the state machine -----------------------------------------------------

    def should_shed(self) -> bool:
        """True when a new admission must be refused right now."""
        return self.state == "shedding"

    def note_shed(self, session: str) -> None:
        """Account one refused admission (typed trace event included)."""
        self.sheds += 1
        if self.trace is not None:
            self.trace.record("shed", session=session, state=self.state,
                              aggregate=self.aggregate,
                              sessions=self.session_count)

    def reassess(self) -> None:
        """Recompute the state and the pause set from current accounting."""
        aggregate = self.aggregate
        sessions = len(self._loads)
        self.peak_aggregate = max(self.peak_aggregate, aggregate)
        self.peak_sessions = max(self.peak_sessions, sessions)
        state = "healthy"
        if (aggregate >= self.high_bytes
                or (self.high_sessions is not None
                    and sessions >= self.high_sessions)):
            state = "shedding"
        elif (aggregate >= self.low_bytes
                or (self.low_sessions is not None
                    and sessions >= self.low_sessions)):
            state = "degraded"
        if state != self.state:
            self.transitions += 1
            if self.trace is not None:
                self.trace.record("overload", state=state,
                                  aggregate=aggregate, sessions=sessions)
            self.state = state
        self._rebalance(aggregate)

    def _rebalance(self, aggregate: int) -> None:
        """Pause the heaviest sessions until the rest fits under ``low_bytes``.

        Healthy governors resume everyone.  Under pressure the sessions are
        ranked by buffered bytes (registration order breaks ties — fully
        deterministic) and the heaviest are paused until the unpaused
        aggregate fits back under the low watermark; pausing stops their
        pumps from reading, which stops their buffers from growing and lets
        the transport's flow control push back on the actual offenders.
        """
        if self.state == "healthy":
            for load in self._loads:
                if load.paused:
                    load._resume()
                    self.resumes += 1
            return
        remaining = aggregate
        ranked = sorted(self._loads, key=lambda l: (-l.buffered, l.order))
        for load in ranked:
            if remaining > self.low_bytes and load.buffered > 0:
                if not load.paused:
                    load._pause()
                    self.pauses += 1
                remaining -= load.buffered
            elif load.paused:
                load._resume()
                self.resumes += 1

    def counters(self) -> dict:
        """JSON-friendly accounting snapshot (diagnosis / bench reporting)."""
        return {
            "state": self.state,
            "aggregate": self.aggregate,
            "sessions": self.session_count,
            "peak_aggregate": self.peak_aggregate,
            "peak_sessions": self.peak_sessions,
            "sheds": self.sheds,
            "pauses": self.pauses,
            "resumes": self.resumes,
            "transitions": self.transitions,
        }
