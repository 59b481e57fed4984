"""Live transport layer: obfuscated protocol traffic over real byte streams.

Everything below the experiments so far ran on in-memory byte lists; this
package is the missing transport: framed streams, concurrent asyncio
sessions, an obfuscation gateway and capture objects that feed live traffic
straight into the PRE resilience study.

* :mod:`repro.net.framing` — native back-to-back framing (incremental
  streaming decoder) vs. length-prefixed records for stream-greedy graphs;
* :mod:`repro.net.session` — :class:`ObfuscatedServer` /
  :class:`ObfuscatedClient` speaking any registry protocol over TCP or the
  in-process duplex transport, driving the protocols' responder hooks;
* :mod:`repro.net.proxy` — :class:`ObfuscatedProxy`, the transparent
  plain↔obfuscated gateway;
* :mod:`repro.net.rotation` — :class:`SessionKey` / :class:`PlanBook`, the
  pre-shared obfuscation plans that endpoints rotate through mid-session;
* :mod:`repro.net.faults` — :class:`FaultPlan` / :class:`FaultInjector` /
  :class:`FaultyWriter`, the seeded hostile link (loss, reordering,
  duplication, corruption, truncation, slow-loris, connection cut,
  indefinite stall) under any session, and :class:`ChaosSchedule`, the
  seeded per-reconnect composition of connection-level faults;
* :mod:`repro.net.resilience` — the deterministic session-resilience layer:
  injectable clocks (:class:`RealClock` / :class:`VirtualClock`),
  :class:`Deadline` / :class:`TimeoutConfig`, seeded-backoff
  :class:`RetryPolicy`, :class:`CircuitBreaker` and the seed-replayable
  :class:`ResilienceTrace` of every recovery decision;
* :mod:`repro.net.governance` — resource governance:
  :class:`ResourceBudget` per-session memory/work limits (typed
  :class:`BudgetExceeded` violations) and the watermark-driven
  :class:`LoadGovernor` (``healthy → degraded → shedding`` overload states,
  heaviest-session read pausing, typed :class:`ServerBusy` admission sheds);
* :mod:`repro.net.capture` — :class:`Capture` records of the wire traffic
  (JSONL-portable, accepted by ``run_resilience`` and ``infer_formats``).

The incremental wire decoding itself lives in :mod:`repro.wire.streaming`.
"""

from ..wire.streaming import (
    DecodedMessage,
    StreamingDecoder,
    decode_stream,
    is_self_framing,
)
from .capture import Capture, CaptureError, CaptureRecord
from .faults import (
    ChaosSchedule,
    FaultCounters,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultyWriter,
    faulty_memory_pipe,
)
from .resilience import (
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    RealClock,
    ResilienceError,
    ResilienceTrace,
    RetriesExhausted,
    RetryPolicy,
    TimeoutConfig,
    VirtualClock,
    retry_operation,
)
from .framing import (
    BusyEvent,
    CorruptRecord,
    RecordDecoder,
    RotationEvent,
    encode_busy,
    encode_record,
    encode_rotation,
    resolve_framing,
)
from .governance import (
    BudgetExceeded,
    GovernanceError,
    LoadGovernor,
    ResourceBudget,
    ServerBusy,
)
from .proxy import ObfuscatedProxy, ProxyStats
from .rotation import PlanBook, SessionKey, derive_session_key
from .session import (
    MemoryWriter,
    MeteredReader,
    ObfuscatedClient,
    ObfuscatedServer,
    SessionStats,
    connect_memory,
    memory_pipe,
)

__all__ = [
    "BudgetExceeded",
    "BusyEvent",
    "Capture",
    "CaptureError",
    "CaptureRecord",
    "ChaosSchedule",
    "CircuitBreaker",
    "CircuitOpen",
    "CorruptRecord",
    "Deadline",
    "DeadlineExceeded",
    "DecodedMessage",
    "FaultCounters",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultyWriter",
    "GovernanceError",
    "LoadGovernor",
    "MemoryWriter",
    "MeteredReader",
    "ObfuscatedClient",
    "ObfuscatedProxy",
    "ObfuscatedServer",
    "PlanBook",
    "ProxyStats",
    "RealClock",
    "RecordDecoder",
    "ResilienceError",
    "ResilienceTrace",
    "ResourceBudget",
    "RetriesExhausted",
    "RetryPolicy",
    "RotationEvent",
    "ServerBusy",
    "SessionKey",
    "SessionStats",
    "StreamingDecoder",
    "TimeoutConfig",
    "VirtualClock",
    "connect_memory",
    "decode_stream",
    "derive_session_key",
    "encode_busy",
    "encode_record",
    "encode_rotation",
    "faulty_memory_pipe",
    "is_self_framing",
    "memory_pipe",
    "resolve_framing",
    "retry_operation",
]
