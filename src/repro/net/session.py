"""Asyncio obfuscated sessions: servers and clients speaking registry protocols.

This is the live counterpart of the in-memory experiment harness: an
:class:`ObfuscatedServer` accepts byte streams (real TCP sockets or the
in-process duplex transport), frames them with the incremental wire decoder,
drives the protocol's core-application *responder* hook for every decoded
request and streams the serialized responses back — concurrently across
hundreds of sessions, since every session is a coroutine over shared,
plan-compiled codecs.

Framing follows :mod:`repro.net.framing`: self-framing graphs ride natively
back-to-back; stream-greedy graphs (HTTP's END-bounded body) are wrapped in
length-prefixed records.  Both endpoints resolve the mode from the graph, so
they always agree.

Endpoints optionally record the traffic they *serialize* into a shared
:class:`~repro.net.capture.Capture` — wire bytes plus the serializer's
ground-truth field spans and the logical message — which is what turns a live
run into a fully labelled PRE trace.  ``capture_received=True`` additionally
records inbound messages raw-only (the sniffer view) for endpoints whose peer
is out of process.

Endpoints holding a :class:`~repro.net.rotation.PlanBook` support
**mid-session key rotation**: the client announces a registered key id with a
rotation control record (:func:`~repro.net.framing.encode_rotation`) at a
quiescent message boundary, then both sides swap serializers and decoders to
the new dialect — requests and responses after the boundary ride the new
plan, and every capture record is tagged with the plan fingerprint in force
when it crossed the transport.  Rotation-capable sessions always use record
framing (the control record needs the envelope); the plan itself never
touches the wire.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from dataclasses import dataclass
from random import Random

from ..codegen.cache import module_poll
from ..codegen.loader import SpecializedCodec
from ..core.errors import BudgetExceeded, StreamError
from ..core.graph import FormatGraph
from ..core.message import Message
from ..protocols import registry
from ..wire.plan import plan_for
from ..wire.serializer import Serializer
from ..wire.streaming import DecodedMessage
from .capture import Capture
from .faults import FaultPlan, FaultyWriter
from .framing import (
    BusyEvent,
    CorruptRecord,
    RotationEvent,
    encode_busy,
    encode_rotation,
    frame_payload,
    make_decoder,
    resolve_framing,
)
from .governance import LoadGovernor, ResourceBudget, ServerBusy, SessionLoad
from .resilience import (
    Deadline,
    DeadlineExceeded,
    RealClock,
    ResilienceTrace,
    RetryPolicy,
    TimeoutConfig,
    retry_operation,
)
from .rotation import PlanBook, SessionKey

#: Read granularity of the session pumps.
CHUNK_SIZE = 1 << 16

#: Failures a resilient client treats as retryable on a request: transport
#: deaths (cut, reset, refused dial), deadline overruns (stall diagnosed by
#: idle-read/request timeouts) and mid-record stream deaths.
RETRYABLE = (ConnectionError, OSError, asyncio.TimeoutError, TimeoutError,
             StreamError)

#: The session-driver hook signature (canonical definition lives on the
#: registry, next to ``ProtocolSetup.responder``).
Responder = registry.Responder


# ---------------------------------------------------------------------------
# the in-process duplex transport
# ---------------------------------------------------------------------------


class MeteredReader(asyncio.StreamReader):
    """A stream reader that meters what its consumer has actually read.

    ``consumed`` counts the bytes delivered to the reading side; a
    flow-limited :class:`MemoryWriter` blocks in ``drain()`` until the peer
    catches up, which is how the memory transport gets real end-to-end
    backpressure.  EOF and exceptions wake every waiter, so a dying reader
    can never deadlock a draining writer.
    """

    def __init__(self):
        super().__init__()
        self.consumed = 0
        self._consumption_waiters: list[asyncio.Future] = []

    def _note_consumed(self, data) -> None:
        if data:
            self.consumed += len(data)
        self._wake()

    def _wake(self) -> None:
        waiters, self._consumption_waiters = self._consumption_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def wait_consumption(self) -> None:
        """Resolve at the next consumption step (or EOF / stream death)."""
        waiter = asyncio.get_running_loop().create_future()
        self._consumption_waiters.append(waiter)
        await waiter

    async def read(self, n: int = -1) -> bytes:
        data = await super().read(n)
        self._note_consumed(data)
        return data

    async def readexactly(self, n: int) -> bytes:
        data = await super().readexactly(n)
        self._note_consumed(data)
        return data

    def feed_eof(self) -> None:
        super().feed_eof()
        self._wake()

    def set_exception(self, exc) -> None:
        super().set_exception(exc)
        self._wake()


class MemoryWriter:
    """Write end of an in-process duplex stream (asyncio-writer shaped).

    Feeds a peer :class:`asyncio.StreamReader` directly, so sessions run over
    it exactly as over a socket — same ``write``/``drain``/``close`` surface —
    without file descriptors.  This is what lets the benchmark drive hundreds
    of concurrent sessions without touching ulimits.

    With a ``limit`` (and a :class:`MeteredReader` peer), ``drain()`` blocks
    while more than ``limit`` written-but-unconsumed bytes are in flight —
    the transport-level flow control a slow consumer uses to throttle a fast
    producer.  ``peak_in_flight`` records the high-water mark as evidence
    that the bound held.
    """

    def __init__(self, peer: asyncio.StreamReader, *, limit: int | None = None):
        self._peer = peer
        self._closed = False
        self._eof_sent = False
        #: flow-control window: max written-but-unconsumed bytes (None = off).
        self.limit = limit
        self._sent = 0
        #: drain() waits taken because the window was full.
        self.drain_waits = 0
        #: high-water mark of written-but-unconsumed bytes.
        self.peak_in_flight = 0

    def write(self, data: bytes) -> None:
        if self._closed or self._eof_sent:
            # Mirror asyncio's StreamWriter, which raises cleanly instead of
            # tripping StreamReader's feed-after-eof assertion.
            raise ConnectionResetError("memory stream is closed")
        if data:
            self._peer.feed_data(data)
            self._sent += len(data)
            in_flight = self._sent - getattr(self._peer, "consumed", 0)
            if in_flight > self.peak_in_flight:
                self.peak_in_flight = in_flight

    def write_eof(self) -> None:
        if not self._eof_sent:
            self._eof_sent = True
            self._peer.feed_eof()

    async def drain(self) -> None:
        # Yield to the event loop so readers scheduled by feed_data run.
        await asyncio.sleep(0)
        if self.limit is None or not hasattr(self._peer, "wait_consumption"):
            return
        peer = self._peer
        while (not self._closed and not self._eof_sent
               and peer.exception() is None
               and self._sent - peer.consumed > self.limit):
            self.drain_waits += 1
            await peer.wait_consumption()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.write_eof()

    def reset(self) -> None:
        """Abort the stream: the peer's pending reads raise a reset.

        The memory-transport counterpart of a TCP RST — used by the fault
        layer's connection-cut model, where the peer must observe an abrupt
        transport death rather than a clean end of stream.
        """
        if not self._closed:
            self._closed = True
            self._eof_sent = True
            self._peer.set_exception(
                ConnectionResetError("connection reset by peer (fault cut)")
            )

    def is_closing(self) -> bool:
        return self._closed

    async def wait_closed(self) -> None:
        return None

    def get_extra_info(self, name: str, default=None):
        if name == "peername":
            return ("memory", 0)
        return default


def memory_pipe(limit: int | None = None) -> tuple[
    tuple[asyncio.StreamReader, MemoryWriter],
    tuple[asyncio.StreamReader, MemoryWriter],
]:
    """Two connected ``(reader, writer)`` endpoints over in-process buffers.

    ``limit`` bounds each direction's written-but-unconsumed bytes: writers
    block in ``drain()`` until the peer reads, modelling a TCP window.
    """
    side_a = MeteredReader()
    side_b = MeteredReader()
    return ((side_a, MemoryWriter(side_b, limit=limit)),
            (side_b, MemoryWriter(side_a, limit=limit)))


def half_close(writer) -> None:
    """Signal EOF on any writer, tolerating transports without half-close.

    A no-op on a writer that is already closing: teardown paths routinely
    race (client close vs. fault-layer cut vs. server close), and the second
    half-close must not raise.
    """
    try:
        if hasattr(writer, "is_closing") and writer.is_closing():
            return
        if hasattr(writer, "can_write_eof") and not writer.can_write_eof():
            writer.close()
        else:
            writer.write_eof()
    except (OSError, RuntimeError):
        # Torn-down transports are an expected teardown race, not an error.
        pass


# ---------------------------------------------------------------------------
# shared endpoint plumbing
# ---------------------------------------------------------------------------


class _MessagePump:
    """Pulls chunks off a stream reader through an incremental decoder.

    The governance hooks all live here, at the single point where bytes
    become buffered state: a ``budget`` bounds the decoded-but-undelivered
    queue (``pending_messages``), ``stats`` tracks the session's
    ``peak_buffered`` high-water mark, and a ``load`` handle reports the
    buffered bytes to the server's :class:`~repro.net.governance.LoadGovernor`
    and *stops reading* while the governor pauses this session — backpressure
    by not pulling, which the transport's flow control propagates upstream.
    """

    def __init__(self, reader: asyncio.StreamReader, decoder, *,
                 budget: ResourceBudget | None = None,
                 stats: "SessionStats | None" = None,
                 load: SessionLoad | None = None):
        self._reader = reader
        self._decoder = decoder
        # A deque: bursty feeds can park hundreds of decoded messages here,
        # and a list's pop(0) would shift them all on every delivery.
        self._pending: deque[DecodedMessage] = deque()
        self._eof = False
        self._max_pending = getattr(budget, "max_pending_messages", None)
        self._stats = stats
        self._load = load
        self._pending_bytes = 0

    def buffered_bytes(self) -> int:
        """Bytes this session holds: decoder backlog + undelivered queue."""
        return self._decoder.buffered + self._pending_bytes

    def _account(self) -> None:
        buffered = self.buffered_bytes()
        if self._stats is not None and buffered > self._stats.peak_buffered:
            self._stats.peak_buffered = buffered
        if self._load is not None:
            self._load.update(buffered)

    def _ingest(self, produced) -> None:
        for item in produced:
            self._pending.append(item)
            self._pending_bytes += len(getattr(item, "raw", b""))
        self._account()
        if (self._max_pending is not None
                and len(self._pending) > self._max_pending):
            raise BudgetExceeded(
                "pending_messages", limit=self._max_pending,
                actual=len(self._pending),
            )

    async def next(self) -> DecodedMessage | None:
        """The next framed message, or ``None`` at a clean end of stream."""
        while True:
            if self._pending:
                item = self._pending.popleft()
                self._pending_bytes -= len(getattr(item, "raw", b""))
                self._account()
                return item
            if self._eof:
                return None
            if self._load is not None:
                await self._load.readable()
            chunk = await self._reader.read(CHUNK_SIZE)
            if not chunk:
                self._ingest(self._decoder.feed_eof())
                self._eof = True
                continue
            self._ingest(self._decoder.feed(chunk))


class _Endpoint:
    """Graphs, framings, codecs and capture policy shared by one endpoint."""

    def __init__(self, protocol: "str | registry.ProtocolSetup", *,
                 request_graph: FormatGraph | None = None,
                 response_graph: FormatGraph | None = None,
                 framing: str = "auto",
                 seed: int = 0,
                 capture: Capture | None = None,
                 record_spans: bool | None = None,
                 capture_received: bool = False,
                 plan_book: PlanBook | None = None,
                 specialize: bool = False):
        self.setup = (registry.get(protocol) if isinstance(protocol, str)
                      else protocol)
        self.plan_book = plan_book
        initial = plan_book.initial if plan_book is not None else None
        if plan_book is not None:
            # Rotation control records ride the record-framing envelope;
            # native back-to-back framing has nowhere to carry them.
            if framing == "native":
                raise StreamError(
                    "rotation-capable sessions require record framing "
                    "(native streams cannot carry rotation control records)"
                )
            framing = "record"
        # Defaults come from the plan book's initial key when one is held,
        # else from the setup's shared reference graphs, so every endpoint of
        # a protocol executes against the same cached CodecPlans instead of
        # compiling fresh ones per client.
        if request_graph is not None:
            self.request_graph = request_graph
        elif initial is not None:
            self.request_graph = initial.request_graph
        else:
            self.request_graph = self.setup.reference_graph("request")
        if response_graph is not None:
            self.response_graph = response_graph
        elif initial is not None:
            self.response_graph = initial.response_graph
        elif self.setup.response_graph_factory is not None:
            self.response_graph = self.setup.reference_graph("response")
        else:
            # Protocols modelling a single direction (MQTT) reply over the
            # same packet graph — a broker speaks the same format back.
            self.response_graph = self.request_graph
        #: plan fingerprints in force at session start (capture tagging).
        self.request_fingerprint = (
            initial.request_fingerprint
            if initial is not None and request_graph is None
            else getattr(self.request_graph, "plan_fingerprint", None)
        )
        self.response_fingerprint = (
            initial.response_fingerprint
            if initial is not None and response_graph is None
            else getattr(self.response_graph, "plan_fingerprint", None)
        )
        self.request_plan = plan_for(self.request_graph)
        self.response_plan = plan_for(self.response_graph)
        self.request_framing = resolve_framing(self.request_graph, framing)
        self.response_framing = resolve_framing(self.response_graph, framing)
        #: run this endpoint's codecs on the specialized compiled tier:
        #: serializers use the straight-line emitted modules, and (under
        #: record framing) whole-record parsing does too.  Byte- and
        #: error-identical to the interpreted runtime, several times faster.
        self.specialize = specialize
        self.seed = seed
        self.capture = capture
        self.capture_received = capture_received
        self.record_spans = (capture is not None if record_spans is None
                             else record_spans)
        if self.capture is not None and self.capture.protocol is None:
            self.capture.protocol = self.setup.key

    def serializer(self, graph: FormatGraph):
        """A fresh serializer of ``graph`` (either direction, or a rotated-to
        key's graph), seeded deterministically."""
        if self.specialize:
            return self._specialized_codec(graph)
        return Serializer(graph, rng=Random(self.seed))

    def parser_factory(self, framing: str):
        """The decoder's parser factory for one direction's resolved framing.

        Specialized endpoints decode whole record payloads through the
        compiled tier; native framing parses incrementally and stays on the
        interpreted streaming decoder, so it gets no factory.
        """
        if not self.specialize or framing != "record":
            return None
        return self._specialized_codec

    def _specialized_codec(self, graph: FormatGraph) -> SpecializedCodec:
        """The graph's shared compiled module behind one codec: it serializes
        (spans through the interpreted tier, same RNG) and parses.  A missed
        module compiles in the background worker, and the codec serves on
        the interpreted tier until it lands, so a cold dialect never stalls
        the event loop."""
        return SpecializedCodec.tiering(graph, module_poll(graph), seed=self.seed)

    def encode(self, serializer: Serializer, message: Message):
        """Serialize one message, returning ``(payload, spans-or-None)``."""
        if self.record_spans:
            return serializer.serialize_with_spans(message)
        return serializer.serialize(message), None

    def capture_sent(self, session: str, direction: str, payload: bytes,
                     spans, message: Message,
                     plan_fingerprint: str | None = None) -> None:
        if self.capture is not None:
            self.capture.record(session=session, direction=direction,
                                data=payload, spans=spans, logical=message,
                                plan_fingerprint=plan_fingerprint)

    def capture_inbound(self, session: str, direction: str,
                        decoded: DecodedMessage,
                        plan_fingerprint: str | None = None) -> None:
        if self.capture is not None and self.capture_received:
            self.capture.record(session=session, direction=direction,
                                data=decoded.raw,
                                plan_fingerprint=plan_fingerprint)


@dataclass
class SessionStats:
    """Per-session message and byte accounting."""

    session: str
    received: int = 0
    sent: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    rotations: int = 0
    #: corrupt records skipped by framing resync (resync-enabled sessions).
    resyncs: int = 0
    #: request attempts re-driven by the retry policy after a failure.
    retries: int = 0
    #: successful re-dials of a resilient client after a transport death.
    reconnects: int = 0
    #: deadline overruns diagnosed (connect/request/idle-read timeouts).
    timeouts: int = 0
    #: teardown waits abandoned at the drain deadline (close / server stop).
    drain_cancels: int = 0
    #: high-water mark of bytes buffered by this session's pump (decoder
    #: backlog plus decoded-but-undelivered messages).
    peak_buffered: int = 0
    #: typed resource-budget violations that killed this session's stream.
    budget_violations: int = 0
    #: admissions shed by an overloaded server (server side) / busy refusals
    #: received from one (client side).
    sheds: int = 0
    error: str | None = None


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------


class ObfuscatedServer:
    """Serves a registry protocol over (possibly obfuscated) byte streams.

    Every accepted connection is one *session*: inbound messages are framed
    with the request-direction decoder, handed to the ``responder`` hook
    (default: the protocol's registered core-application responder) and each
    non-``None`` reply is serialized over the response direction.  A server
    with ``responder=None`` is a pure sink — it decodes and, when a capture
    is attached, records.

    The response serializer and the responder RNG are shared across sessions
    (messages serialize atomically between awaits), so a single-session run
    is byte-deterministic given ``seed``.
    """

    def __init__(self, protocol: "str | registry.ProtocolSetup", *,
                 request_graph: FormatGraph | None = None,
                 response_graph: FormatGraph | None = None,
                 responder: "Responder | None | object" = registry.DEFAULT,
                 framing: str = "auto",
                 seed: int = 0,
                 capture: Capture | None = None,
                 record_spans: bool | None = None,
                 capture_received: bool = False,
                 plan_book: PlanBook | None = None,
                 resync: bool = False,
                 timeouts: TimeoutConfig | None = None,
                 max_sessions: int | None = None,
                 budget: ResourceBudget | None = None,
                 governor: LoadGovernor | None = None,
                 clock=None,
                 specialize: bool = False):
        self._endpoint = _Endpoint(
            protocol, request_graph=request_graph, response_graph=response_graph,
            framing=framing, seed=seed, capture=capture,
            record_spans=record_spans, capture_received=capture_received,
            plan_book=plan_book, specialize=specialize,
        )
        if responder is registry.DEFAULT:
            responder = self._endpoint.setup.responder
        self.responder: Responder | None = responder
        #: recover from corrupt record payloads at the next record boundary
        #: (requires record framing; see make_decoder).
        self.resync = resync
        #: per-operation deadlines; ``idle_read`` reaps silent sessions.
        self.timeouts = timeouts if timeouts is not None else TimeoutConfig()
        if max_sessions is not None and max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1 ({max_sessions})")
        #: concurrent-session admission bound (None = unbounded).
        self.max_sessions = max_sessions
        #: per-session resource limits threaded into decoders and pumps.
        self.budget = budget
        #: server-level overload state machine (None = no admission control).
        self.governor = governor
        self._clock = clock if clock is not None else RealClock()
        #: typed recovery decisions (reaps, drain cancels) of this server.
        self.trace = ResilienceTrace()
        if governor is not None and governor.trace is None:
            governor.trace = self.trace
        self._responder_rng = Random(seed + 0x5EED)
        self._response_serializer = self._endpoint.serializer(
            self._endpoint.response_graph)
        self._session_ids = itertools.count(1)
        self.completed: list[SessionStats] = []
        self._tcp_server: asyncio.AbstractServer | None = None
        self._active: set[asyncio.Task] = set()
        self._semaphore: asyncio.Semaphore | None = None
        self._accepting = True

    @property
    def endpoint(self) -> _Endpoint:
        return self._endpoint

    # -- session driving -------------------------------------------------------

    async def serve_session(self, reader: asyncio.StreamReader, writer, *,
                            session_id: str | None = None,
                            fault_plan: FaultPlan | None = None) -> SessionStats:
        """Drive one session to completion (client EOF) and return its stats.

        Sessions of a plan-book-holding server are rotation-capable: every
        rotation control record decoded in the request stream swaps this
        session's request decoder (inside the decoder, at the exact record
        boundary) and its response serializer (here, in stream order — a
        reply is serialized under the key in force when its request was
        decoded).  Rotation state is session-local; such sessions therefore
        use a per-session response serializer instead of the shared one.

        ``fault_plan`` injects transport faults into this session's *response*
        byte stream (the server→client direction); with ``resync=True`` on the
        server, corrupt request records are skipped at record boundaries and
        counted in ``stats.resyncs`` instead of killing the session.

        A server with ``timeouts.idle_read`` set **reaps** sessions that stay
        silent past the deadline (typed ``DeadlineExceeded`` stats entry, not
        an exception); ``max_sessions`` bounds concurrent admission through a
        semaphore, and ``stop(drain=True)`` cancellation lands here as a
        typed ``DrainCancelled`` stats entry.
        """
        if not self._accepting:
            raise ConnectionError("server is stopping; new sessions refused")
        endpoint = self._endpoint
        book = endpoint.plan_book
        session = (session_id if session_id is not None
                   else f"session-{next(self._session_ids)}")
        if self.governor is not None and self.governor.should_shed():
            return await self._shed_session(session, writer)
        if fault_plan is not None:
            writer = FaultyWriter(writer, fault_plan)
        if self.max_sessions is not None:
            if self._semaphore is None:
                self._semaphore = asyncio.Semaphore(self.max_sessions)
            await self._semaphore.acquire()
        task = asyncio.current_task()
        if task is not None:
            self._active.add(task)
        stats = SessionStats(session)
        load = None
        # From here on the session holds an admission slot: set-up failures
        # (e.g. resync asked of native framing) take the same exit as any
        # other failure, releasing the slot and recording the session.
        try:
            key_resolver = None
            if book is not None:
                key_resolver = lambda key_id: book.get(key_id).request_graph  # noqa: E731
            decoder = make_decoder(endpoint.request_graph, endpoint.request_framing,
                                   plan=endpoint.request_plan,
                                   key_resolver=key_resolver,
                                   resync=self.resync,
                                   budget=self.budget,
                                   parser_factory=endpoint.parser_factory(
                                       endpoint.request_framing))
            if self.governor is not None:
                load = self.governor.register(session)
            pump = _MessagePump(reader, decoder, budget=self.budget,
                                stats=stats, load=load)
            response_serializer = (self._response_serializer if book is None
                                   else endpoint.serializer(endpoint.response_graph))
            request_fingerprint = endpoint.request_fingerprint
            response_fingerprint = endpoint.response_fingerprint
            idle = self.timeouts.idle_read
            while True:
                if idle is None:
                    decoded = await pump.next()
                else:
                    try:
                        decoded = await self._clock.wait_for(pump.next(), idle)
                    except (asyncio.TimeoutError, TimeoutError):
                        # Idle reap: a diagnosed end, not a failure — the
                        # session went silent past the deadline (stalled link
                        # or vanished peer) and its slot is reclaimed.
                        stats.timeouts += 1
                        stats.error = (f"DeadlineExceeded: idle-read reaped "
                                       f"after {idle:g}s of silence")
                        self.trace.record("timeout", op="idle_reap",
                                          session=session)
                        break
                if decoded is None:
                    break
                if isinstance(decoded, RotationEvent):
                    key = book.get(decoded.key_id)
                    response_serializer = endpoint.serializer(key.response_graph)
                    request_fingerprint = key.request_fingerprint
                    response_fingerprint = key.response_fingerprint
                    stats.rotations += 1
                    continue
                if isinstance(decoded, CorruptRecord):
                    # A damaged request record was skipped at the framing
                    # layer; the session survives, the damage is counted.
                    stats.resyncs += 1
                    continue
                stats.received += 1
                stats.bytes_received += len(decoded.raw)
                endpoint.capture_inbound(session, "request", decoded,
                                         plan_fingerprint=request_fingerprint)
                if self.responder is None:
                    continue
                reply = self.responder(decoded.message, self._responder_rng)
                if reply is None:
                    continue
                payload, spans = endpoint.encode(response_serializer, reply)
                endpoint.capture_sent(session, "response", payload, spans, reply,
                                      plan_fingerprint=response_fingerprint)
                writer.write(frame_payload(payload, endpoint.response_framing))
                await writer.drain()
                stats.sent += 1
                stats.bytes_sent += len(payload)
        except asyncio.CancelledError:
            # Straggler cancelled at the drain deadline (or torn down by a
            # reconnecting peer): a typed entry, never a silent disappearance.
            stats.drain_cancels += 1
            stats.error = "DrainCancelled: session cancelled at stop/teardown"
            raise
        except BudgetExceeded as exc:
            # A peer outgrew its budget: typed, attributed, terminal for
            # this session only — the server stays up.
            stats.budget_violations += 1
            stats.error = f"BudgetExceeded: {exc}"
            self.trace.record("budget", resource=exc.resource, session=session)
            raise
        except Exception as exc:
            stats.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            if load is not None:
                self.governor.unregister(load)
            self.completed.append(stats)
            if task is not None:
                self._active.discard(task)
            if self._semaphore is not None:
                self._semaphore.release()
            try:
                writer.close()
            except Exception:  # pragma: no cover - transport already gone
                pass
        return stats

    async def _shed_session(self, session: str, writer) -> SessionStats:
        """Refuse one admission while shedding: typed busy reply, clean close.

        Record-framed sessions get a busy/retry-after control record before
        the close, which a resilient client converts into a retryable
        :class:`~repro.net.governance.ServerBusy`; native-framed sessions
        have no envelope for control traffic, so the refusal is just the
        close (still a retryable transport death on the client).
        """
        governor = self.governor
        stats = SessionStats(session, sheds=1)
        stats.error = (
            f"ServerBusy: admission shed in {governor.state} state "
            f"(aggregate={governor.aggregate}, "
            f"sessions={governor.session_count})"
        )
        governor.note_shed(session)
        if self._endpoint.response_framing == "record":
            try:
                writer.write(encode_busy(governor.retry_after))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        try:
            writer.close()
        except Exception:  # pragma: no cover - transport already gone
            pass
        self.completed.append(stats)
        return stats

    # -- TCP front-end ---------------------------------------------------------

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0
                        ) -> tuple[str, int]:
        """Listen on ``host:port`` (0 = ephemeral); returns the bound address."""

        async def handle(reader, writer):
            try:
                await self.serve_session(reader, writer)
            except asyncio.CancelledError:
                # A drain-deadline cancellation already produced its typed
                # stats entry; swallowing it here keeps asyncio's stream
                # machinery from logging the cancelled connection task.
                pass
            except Exception:
                # Session errors are recorded in stats; keep the server up.
                pass

        self._tcp_server = await asyncio.start_server(handle, host, port)
        sockname = self._tcp_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def stop(self, *, drain: bool = False,
                   deadline: "float | None" = None) -> None:
        """Stop accepting; optionally drain in-flight sessions first.

        With ``drain=True`` the server stops admitting new sessions, awaits
        the in-flight ones until ``deadline`` (default: ``timeouts.drain``)
        elapses on the server's clock, then **cancels the stragglers** — each
        lands in ``completed`` with a typed ``DrainCancelled`` stats entry
        and a ``drain_cancel`` trace event, so a graceful shutdown is fully
        accounted: nothing hangs, nothing disappears.
        """
        self._accepting = False
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        if not drain:
            return
        budget = deadline if deadline is not None else self.timeouts.drain
        pending = {task for task in self._active if not task.done()}
        if not pending:
            return
        try:
            await self._clock.wait_for(
                asyncio.gather(*(asyncio.shield(task) for task in pending),
                               return_exceptions=True),
                budget,
            )
        except (asyncio.TimeoutError, TimeoutError):
            for task in pending:
                if not task.done():
                    task.cancel()
                    self.trace.record("drain_cancel", op="server_stop")
            await asyncio.gather(*pending, return_exceptions=True)


# ---------------------------------------------------------------------------
# the client
# ---------------------------------------------------------------------------


class ObfuscatedClient:
    """One protocol session against an :class:`ObfuscatedServer`.

    Connect with :meth:`connect_tcp`, :meth:`connect_memory` (spawns the
    server session as a background task over the in-process transport) or
    :meth:`attach` (any reader/writer pair).  :meth:`request` sends one
    logical message and awaits one reply; :meth:`send` is fire-and-forget
    for one-way flows (sink servers, protocols whose responder stays quiet).
    """

    _ids = itertools.count(1)

    def __init__(self, protocol: "str | registry.ProtocolSetup", *,
                 request_graph: FormatGraph | None = None,
                 response_graph: FormatGraph | None = None,
                 framing: str = "auto",
                 seed: int = 0,
                 capture: Capture | None = None,
                 record_spans: bool | None = None,
                 capture_received: bool = False,
                 session_id: str | None = None,
                 plan_book: PlanBook | None = None,
                 resync: bool = False,
                 timeouts: TimeoutConfig | None = None,
                 retry: RetryPolicy | None = None,
                 budget: ResourceBudget | None = None,
                 clock=None,
                 specialize: bool = False):
        self.resync = resync
        #: per-session resource limits on the response stream (None = off).
        self.budget = budget
        self._endpoint = _Endpoint(
            protocol, request_graph=request_graph, response_graph=response_graph,
            framing=framing, seed=seed, capture=capture,
            record_spans=record_spans, capture_received=capture_received,
            plan_book=plan_book, specialize=specialize,
        )
        self.session_id = (session_id if session_id is not None
                           else f"client-{next(self._ids)}")
        #: per-operation deadlines (connect / request / idle-read / drain).
        self.timeouts = timeouts if timeouts is not None else TimeoutConfig()
        #: default retry policy of request()/dials (None = fail fast).
        self.retry = retry
        self._clock = clock if clock is not None else RealClock()
        #: ordered, seed-replayable record of every recovery decision.
        self.trace = ResilienceTrace()
        self._request_serializer = self._endpoint.serializer(
            self._endpoint.request_graph)
        self._request_fingerprint = self._endpoint.request_fingerprint
        self._response_fingerprint = self._endpoint.response_fingerprint
        self._reader: asyncio.StreamReader | None = None
        self._writer = None
        self._pump: _MessagePump | None = None
        self._server_task: asyncio.Task | None = None
        #: async () -> (reader, writer): how to re-dial this session's peer.
        self._reconnect_factory = None
        #: key id announced on the wire (reconnects resume on this key).
        self._announced_key: str | None = None
        self.stats = SessionStats(self.session_id)

    @property
    def endpoint(self) -> _Endpoint:
        return self._endpoint

    # -- connecting ------------------------------------------------------------

    def attach(self, reader: asyncio.StreamReader, writer, *,
               fault_plan: FaultPlan | None = None) -> "ObfuscatedClient":
        """Attach an already-open duplex stream.

        ``fault_plan`` injects transport faults into the *request* byte
        stream (everything this client writes crosses the hostile link).
        """
        endpoint = self._endpoint
        if fault_plan is not None:
            writer = FaultyWriter(writer, fault_plan)
        self._reader, self._writer = reader, writer
        decoder = make_decoder(endpoint.response_graph,
                               endpoint.response_framing,
                               plan=endpoint.response_plan,
                               resync=self.resync,
                               budget=self.budget,
                               parser_factory=endpoint.parser_factory(
                                   endpoint.response_framing))
        self._pump = _MessagePump(reader, decoder, budget=self.budget,
                                  stats=self.stats)
        return self

    async def connect_tcp(self, host: str, port: int) -> "ObfuscatedClient":
        """Dial ``host:port`` under the connect deadline and retry policy."""

        async def factory():
            return await asyncio.open_connection(host, port)

        self._reconnect_factory = factory
        reader, writer = await self._dial()
        return self.attach(reader, writer)

    def connect_memory(self, server: ObfuscatedServer, *,
                       pipe_limit: int | None = None) -> "ObfuscatedClient":
        """Open an in-process session; the server side runs as a task."""
        return connect_memory(self, server, pipe_limit=pipe_limit)

    def set_reconnect(self, factory) -> "ObfuscatedClient":
        """Install how this session re-dials its peer.

        ``factory`` is an async zero-argument callable returning a fresh
        ``(reader, writer)`` pair (it may wrap the writer in a
        :class:`~repro.net.faults.FaultyWriter` itself — the chaos harness
        threads per-attempt fault plans through exactly this hook).
        ``connect_tcp`` and :func:`connect_memory` install theirs
        automatically.
        """
        self._reconnect_factory = factory
        return self

    async def _dial(self):
        """One (possibly retried) dial through the reconnect factory."""
        if self._reconnect_factory is None:
            raise ConnectionError(
                "client has no reconnect factory; connect with connect_tcp/"
                "connect_memory or install one with set_reconnect()"
            )

        async def once():
            deadline = Deadline.after(self._clock, self.timeouts.connect,
                                      operation="connect")
            try:
                return await deadline.wait_for(self._reconnect_factory())
            except DeadlineExceeded:
                self.stats.timeouts += 1
                self.trace.record("timeout", op="connect")
                raise

        if self.retry is None:
            return await once()

        async def note_retry(attempt, exc):
            self.stats.retries += 1

        return await retry_operation(
            once, self.retry, clock=self._clock, trace=self.trace,
            label="connect", on_retry=note_retry,
        )

    async def reconnect(self) -> "ObfuscatedClient":
        """Re-dial the peer, re-attach, and resume the session's dialect.

        Tears down the dead transport, dials a fresh one through the
        reconnect factory (connect deadline and seeded retry/backoff apply),
        and — when a rotation was announced on the old connection — **replays
        the rotation state**: the client re-announces the last announced key
        id with a control record and re-attaches its codecs to that dialect,
        so the resumed session continues exactly where the cut left it.  Only
        the key id crosses the wire; the server resolves it from its own
        :class:`~repro.net.rotation.PlanBook`, the PR 5 model.
        """
        await self._teardown_transport()
        reader, writer = await self._dial()
        self.attach(reader, writer)
        self.stats.reconnects += 1
        self.trace.record("reconnect", reconnects=self.stats.reconnects)
        if self._announced_key is not None:
            key = self._endpoint.plan_book.get(self._announced_key)
            self._writer.write(encode_rotation(key.key_id))
            await self._writer.drain()
            decoder = self._pump._decoder
            decoder.rotate_to(key.response_graph, key_id=key.key_id)
            # The request serializer and fingerprints already track the
            # announced key; only the fresh transport needed re-announcing.
            self.trace.record("resume", key_id=key.key_id)
        return self

    async def _teardown_transport(self) -> None:
        """Release a dead transport (and its server task) before re-dialing."""
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
        old_task, self._server_task = self._server_task, None
        if old_task is not None and not old_task.done():
            # A healthy peer completes once it sees our EOF; a peer wedged on
            # a stalled link is cancelled at the drain deadline (it records
            # its own typed stats entry).
            try:
                await self._clock.wait_for(asyncio.shield(old_task),
                                           self.timeouts.drain)
            except (asyncio.TimeoutError, TimeoutError):
                old_task.cancel()
            except Exception:
                pass
        if old_task is not None:
            await asyncio.gather(old_task, return_exceptions=True)
        self._reader = self._writer = self._pump = None

    # -- talking ---------------------------------------------------------------

    async def send(self, message: Message) -> bytes:
        """Serialize and send one request; returns its wire payload."""
        if self._writer is None:
            raise ConnectionError("client is not connected")
        endpoint = self._endpoint
        payload, spans = endpoint.encode(self._request_serializer, message)
        endpoint.capture_sent(self.session_id, "request", payload, spans, message,
                              plan_fingerprint=self._request_fingerprint)
        self._writer.write(frame_payload(payload, endpoint.request_framing))
        await self._writer.drain()
        self.stats.sent += 1
        self.stats.bytes_sent += len(payload)
        return payload

    async def receive(self, *, timeout=...) -> DecodedMessage | None:
        """Await the next framed response (``None`` at end of stream).

        On a resync-enabled client, corrupt response records are skipped
        (counted in ``stats.resyncs`` and traced) and the wait continues.
        ``timeout`` overrides ``timeouts.idle_read`` (``None`` = unbounded);
        a silent peer past the deadline raises :class:`DeadlineExceeded`
        with a ``timeout`` stats/trace entry — the stall diagnosis.
        """
        if self._pump is None:
            raise ConnectionError("client is not connected")
        idle = self.timeouts.idle_read if timeout is ... else timeout
        while True:
            try:
                if idle is None:
                    decoded = await self._pump.next()
                else:
                    try:
                        decoded = await self._clock.wait_for(self._pump.next(),
                                                             idle)
                    except (asyncio.TimeoutError, TimeoutError) as exc:
                        self.stats.timeouts += 1
                        self.trace.record("timeout", op="idle_read")
                        raise DeadlineExceeded("idle_read", idle) from exc
            except BudgetExceeded as exc:
                self.stats.budget_violations += 1
                self.trace.record("budget", resource=exc.resource)
                raise
            if isinstance(decoded, CorruptRecord):
                self.stats.resyncs += 1
                self.trace.record("resync", start=decoded.start,
                                  end=decoded.end)
                continue
            if isinstance(decoded, BusyEvent):
                # The server shed this admission: convert the typed refusal
                # into a retryable failure the retry policy backs off on.
                self.stats.sheds += 1
                self.trace.record("busy", retry_after=decoded.retry_after)
                raise ServerBusy(decoded.retry_after)
            break
        if decoded is not None:
            self.stats.received += 1
            self.stats.bytes_received += len(decoded.raw)
            self._endpoint.capture_inbound(self.session_id, "response", decoded,
                                           plan_fingerprint=self._response_fingerprint)
        return decoded

    async def request(self, message: Message, *,
                      retry: "RetryPolicy | None" = None,
                      timeout=...) -> Message:
        """Send one request and await its reply (logical message).

        ``timeout`` bounds the whole round trip (default:
        ``timeouts.request``; ``None`` = unbounded).  With a ``retry``
        policy (default: the client's), a retryable failure — transport
        death, deadline overrun, mid-record stream death — **reconnects**
        through the reconnect factory after the policy's seeded backoff
        delay and re-drives the request, resuming any announced rotation
        key; the schedule is a pure function of the policy's seed, so a
        session's recovery trace replays bit-identically.
        """
        policy = retry if retry is not None else self.retry
        if policy is None:
            return await self._request_once(message, timeout)

        async def once():
            return await self._request_once(message, timeout)

        async def reconnect_and_count(attempt, exc):
            self.stats.retries += 1
            await self.reconnect()

        return await retry_operation(
            once, policy, clock=self._clock, trace=self.trace,
            retryable=RETRYABLE, label="request",
            on_retry=reconnect_and_count,
        )

    async def _request_once(self, message: Message, timeout=...) -> Message:
        """One unretried round trip under the request deadline."""
        budget = self.timeouts.request if timeout is ... else timeout

        async def round_trip():
            await self.send(message)
            decoded = await self.receive()
            if decoded is None:
                raise ConnectionError(
                    f"session {self.session_id}: server closed before replying"
                )
            return decoded.message

        if budget is None:
            return await round_trip()
        deadline = Deadline.after(self._clock, budget, operation="request")
        try:
            return await deadline.wait_for(round_trip())
        except DeadlineExceeded as exc:
            if exc.operation == "request":
                self.stats.timeouts += 1
                self.trace.record("timeout", op="request")
            raise

    async def rotate(self, key_id: str, *,
                     require_quiescence: bool = True) -> SessionKey:
        """Switch the session to the plan registered under ``key_id``.

        Announces the rotation to the server with a control record, then
        swaps this side's request serializer and response decoder to the new
        dialect.  Rotation must happen at a quiescent message boundary: the
        server serializes replies to pre-rotation requests under the old key,
        so an unanswered request at rotation time would have its reply decoded
        with the wrong graph.  The default guard refuses while any sent
        request is still unanswered (and the response decoder independently
        refuses while old-dialect bytes sit in its buffer); pass
        ``require_quiescence=False`` for deliberately one-way flows (sink
        servers, responders that stay quiet), where no reply is in flight by
        construction.  Only the key id crosses the wire — the server must
        hold the same key in its own plan book.
        """
        endpoint = self._endpoint
        if endpoint.plan_book is None:
            raise StreamError(
                "client holds no plan book; construct it with plan_book= to "
                "rotate mid-session"
            )
        if self._writer is None or self._pump is None:
            raise ConnectionError("client is not connected")
        if require_quiescence and self.stats.sent != self.stats.received:
            pending = self.stats.sent - self.stats.received
            raise StreamError(
                f"cannot rotate with {pending} unanswered request(s): their "
                f"replies are serialized under the old key; await them first, "
                f"or pass require_quiescence=False for one-way flows"
            )
        key = endpoint.plan_book.get(key_id)
        decoder = self._pump._decoder
        if not hasattr(decoder, "rotate_to"):  # pragma: no cover - framing forced
            raise StreamError("response decoder does not support rotation")
        self._writer.write(encode_rotation(key.key_id))
        await self._writer.drain()
        decoder.rotate_to(key.response_graph, key_id=key.key_id)
        self._request_serializer = endpoint.serializer(key.request_graph)
        self._request_fingerprint = key.request_fingerprint
        self._response_fingerprint = key.response_fingerprint
        self._announced_key = key.key_id
        self.stats.rotations += 1
        self.trace.record("rotate", key_id=key.key_id)
        return key

    # -- teardown --------------------------------------------------------------

    async def close(self, *, wait_server: bool = True, drain=...) -> None:
        """Half-close the write side, drain the stream, release the transport.

        The drain is bounded by ``drain`` (default: ``timeouts.drain``, 5 s;
        ``None`` = unbounded): against a stalled or slow-loris peer the wait
        is abandoned at the deadline with a ``drain_cancel`` stats/trace
        entry and the transport is torn down anyway — teardown can no longer
        hang a test suite.  Closing an already-closed or already-cut client
        is a no-op; teardown races are expected, not errors.
        """
        budget = self.timeouts.drain if drain is ... else drain
        deadline = Deadline.after(self._clock, budget, operation="drain")
        if self._writer is not None:
            half_close(self._writer)
        if self._pump is not None:
            pump = self._pump
            try:

                async def drain_pump():
                    while await pump.next() is not None:
                        pass

                await deadline.wait_for(drain_pump())
            except DeadlineExceeded:
                self.stats.drain_cancels += 1
                self.trace.record("drain_cancel", op="close")
            except (ConnectionError, StreamError):
                # A cut or mid-record-dead stream has nothing left to drain.
                pass
        if self._server_task is not None and wait_server:
            try:
                await deadline.wait_for(asyncio.shield(self._server_task))
            except DeadlineExceeded:
                self.stats.drain_cancels += 1
                self.trace.record("drain_cancel", op="close_wait_server")
                self._server_task.cancel()
            except Exception:
                pass
            await asyncio.gather(self._server_task, return_exceptions=True)
        if self._writer is not None:
            try:
                self._writer.close()
                await deadline.wait_for(self._writer.wait_closed())
            except Exception:  # pragma: no cover
                pass
        self._reader = self._writer = self._pump = self._server_task = None


def connect_memory(client: ObfuscatedClient, server: ObfuscatedServer, *,
                   request_faults: FaultPlan | None = None,
                   response_faults: FaultPlan | None = None,
                   pipe_limit: int | None = None
                   ) -> ObfuscatedClient:
    """Wire ``client`` to ``server`` over the in-process duplex transport.

    The server session is spawned as a background task; ``client.close()``
    awaits it, so the returned stats land in ``server.completed`` before the
    client's ``close()`` resolves.  Must run inside an event loop.

    ``request_faults`` / ``response_faults`` put a seeded hostile link under
    the respective direction of the duplex stream (see
    :mod:`repro.net.faults`).

    A reconnect factory is installed as a side effect: ``client.reconnect()``
    (or a retrying ``request()``) spawns a fresh server session over a fresh
    clean pipe — faults are per-connection, so a re-dial models the healed
    link.  Pass per-attempt fault plans through ``client.set_reconnect()``
    to keep the hostile path hostile across reconnects.

    ``pipe_limit`` flow-controls both directions of the duplex pipe (and of
    every reconnect pipe): writers block in ``drain()`` while more than that
    many unconsumed bytes are in flight, like a TCP window.
    """
    (client_reader, client_writer), (server_reader, server_writer) = \
        memory_pipe(pipe_limit)
    client.attach(client_reader, client_writer, fault_plan=request_faults)
    client._server_task = asyncio.ensure_future(
        server.serve_session(server_reader, server_writer,
                             session_id=client.session_id,
                             fault_plan=response_faults)
    )

    async def factory():
        (reader, writer), (up_reader, up_writer) = memory_pipe(pipe_limit)
        client._server_task = asyncio.ensure_future(
            server.serve_session(up_reader, up_writer,
                                 session_id=client.session_id)
        )
        return reader, writer

    client._reconnect_factory = factory
    return client

