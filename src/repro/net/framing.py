"""Message framing policies of the live transport layer.

Two framings move protocol messages across a byte stream:

* **native** — messages ride back-to-back with no envelope; the receiver
  frames them with the incremental :class:`~repro.wire.streaming.StreamingDecoder`.
  Requires the format graph to be *self-framing*
  (:func:`~repro.wire.streaming.is_self_framing`): its parse must never
  consult the end of the stream.
* **record** — each message is wrapped in a 4-byte big-endian length-prefixed
  record (the TLS-record / websocket-frame construction).  Works for every
  graph, including stream-greedy ones like HTTP with its END-bounded body.

``"auto"`` picks native when the graph allows it and record otherwise, which
is what the session layer defaults to.  The capture layer always records the
*payload* bytes — the protocol message exactly as the PRE substrate expects
it — never the record envelope.

Record framing additionally carries **rotation control records**: an
all-ones length prefix (``0xFFFFFFFF``, invalid as a payload length) followed
by a short key identifier.  A rotation record tells the receiver "every
record after this boundary is serialized under the plan registered as
``key_id``" — the plan itself is never on the wire; both endpoints must hold
it in their :class:`~repro.net.rotation.PlanBook` (the shared secret of the
paper's threat model).  Native framing has no envelope to carry control
records, so rotation-capable sessions always use record framing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.errors import BudgetExceeded, ParseError, StreamError
from ..core.graph import FormatGraph
from ..wire.incremental import IncrementalDecoder
from ..wire.plan import CodecPlan, plan_for
from ..wire.streaming import DecodedMessage, StreamingDecoder, is_self_framing

#: Width of the record-framing length prefix (bytes, big-endian).
RECORD_HEADER = 4

#: Upper bound on one record's payload; guards against desynchronized or
#: hostile peers allocating unbounded buffers.
MAX_RECORD_SIZE = 1 << 24

#: Length-prefix value marking a rotation control record.  Far above
#: MAX_RECORD_SIZE, so it can never be a legitimate payload length.
ROTATION_SENTINEL = (1 << (8 * RECORD_HEADER)) - 1

#: Width of the key-identifier length field of a rotation control record.
ROTATION_KEY_HEADER = 2

#: Length-prefix value marking a busy/retry-after control record — the typed
#: refusal an overloaded server sheds new admissions with.  Also far above
#: any legal payload length (record-size limits must stay below it).
BUSY_SENTINEL = ROTATION_SENTINEL - 1

#: Width of the retry-after field of a busy control record (milliseconds,
#: big-endian, saturating).
BUSY_RETRY_HEADER = 2

FRAMINGS = ("auto", "native", "record")


def resolve_framing(graph: FormatGraph, mode: str = "auto") -> str:
    """Resolve a framing mode for ``graph`` (``"native"`` or ``"record"``)."""
    if mode not in FRAMINGS:
        raise ValueError(f"unknown framing {mode!r}; expected one of {FRAMINGS}")
    if mode == "auto":
        return "native" if is_self_framing(graph) else "record"
    if mode == "native" and not is_self_framing(graph):
        raise StreamError(
            f"graph {graph.name!r} is not self-framing (greedy nodes consult "
            f"the stream end); use record framing"
        )
    return mode


def encode_record(payload: bytes, *, max_size: int = MAX_RECORD_SIZE) -> bytes:
    """Wrap ``payload`` in a length-prefixed record."""
    if len(payload) >= max_size:
        raise StreamError(
            f"record payload of {len(payload)} bytes exceeds the "
            f"{max_size}-byte limit"
        )
    return len(payload).to_bytes(RECORD_HEADER, "big") + payload


@dataclass(frozen=True)
class CorruptRecord:
    """A framed record whose payload would not parse, skipped under resync.

    Only emitted by a :class:`RecordDecoder` constructed with ``resync=True``:
    the record envelope was intact (plausible length prefix, all payload bytes
    arrived), but the payload failed strict parsing — the signature of
    in-flight byte corruption rather than desynchronization.  The decoder
    reports the damaged record in stream order and *resynchronizes at the
    next record boundary*, which the length prefix locates exactly.  Header
    damage (an implausible length) stays a hard :class:`StreamError`: once
    the prefix itself lies, there is no trustworthy next boundary.
    """

    #: the undecodable payload bytes, as delivered.
    raw: bytes
    #: payload-offset extent of the skipped record.
    start: int
    end: int
    #: the strict parse failure that condemned the payload.
    error: StreamError


@dataclass(frozen=True)
class RotationEvent:
    """A plan switch observed in a record stream, at its exact boundary.

    Emitted by :class:`RecordDecoder` in stream order between the decoded
    messages, so a consumer replying to a batch of messages serializes each
    reply under the key that was in force when *that* message was decoded.
    """

    key_id: str


def encode_rotation(key_id: str) -> bytes:
    """Wire bytes of a rotation control record announcing ``key_id``."""
    encoded = key_id.encode("utf-8")
    if not encoded or len(encoded) >= 1 << (8 * ROTATION_KEY_HEADER):
        raise StreamError(
            f"rotation key id must encode to 1..{(1 << (8 * ROTATION_KEY_HEADER)) - 1} "
            f"bytes, got {len(encoded)}"
        )
    return (
        ROTATION_SENTINEL.to_bytes(RECORD_HEADER, "big")
        + len(encoded).to_bytes(ROTATION_KEY_HEADER, "big")
        + encoded
    )


@dataclass(frozen=True)
class BusyEvent:
    """An overloaded peer shed this admission, advising when to retry.

    Emitted by :class:`RecordDecoder` when a busy control record
    (:func:`encode_busy`) arrives.  The session layer converts it into a
    retryable :class:`~repro.net.governance.ServerBusy`, which a client's
    :class:`~repro.net.resilience.RetryPolicy` backs off on.
    """

    #: server's advisory backoff hint, in seconds.
    retry_after: float


def encode_busy(retry_after: float = 0.0) -> bytes:
    """Wire bytes of a busy control record advising ``retry_after`` seconds."""
    if retry_after < 0:
        raise StreamError(f"retry_after cannot be negative ({retry_after})")
    millis = min(round(retry_after * 1000), (1 << (8 * BUSY_RETRY_HEADER)) - 1)
    return (
        BUSY_SENTINEL.to_bytes(RECORD_HEADER, "big")
        + millis.to_bytes(BUSY_RETRY_HEADER, "big")
    )


class RecordDecoder(IncrementalDecoder):
    """Incremental decoder of length-prefixed records carrying wire messages.

    The record-framing counterpart of
    :class:`~repro.wire.streaming.StreamingDecoder`, with the same
    ``feed()`` / ``feed_eof()`` surface: each completed record's payload is
    parsed as one whole message (strict), and the reported stream offsets
    are *payload* offsets so captures and decoders agree on extents.

    With a ``key_resolver`` the decoder additionally understands rotation
    control records (:func:`encode_rotation`): the resolver maps the announced
    key id to the new format graph, the decoder swaps its parser at that exact
    record boundary, and a :class:`RotationEvent` is emitted in stream order
    so the consumer can rotate its own sending side in step.  Without a
    resolver a rotation record is a hard :class:`StreamError` — an endpoint
    that does not hold the plan book cannot follow the key change.

    With ``resync=True`` an undecodable record *payload* is reported as a
    :class:`CorruptRecord` event instead of failing the stream, and decoding
    resumes at the next record boundary — the recovery the length-prefixed
    envelope makes possible.  Header-level damage (an implausible length
    prefix) remains terminal either way.

    ``budget`` (duck-typed, usually a
    :class:`~repro.net.governance.ResourceBudget`) supplies the limits:
    ``max_declared_bytes`` bounds one record's *declared* payload size
    (default :data:`MAX_RECORD_SIZE`, kept as :attr:`max_record_size`); the
    declaration is validated the moment the 4 header bytes arrive — before a
    single payload byte is buffered toward it — and a violation raises a
    typed :class:`~repro.core.errors.BudgetExceeded`.  ``max_stream_bytes``
    and ``max_steps_per_feed`` apply as in every
    :class:`~repro.wire.incremental.IncrementalDecoder`.
    """

    def __init__(self, graph: FormatGraph, *, plan: CodecPlan | None = None,
                 key_resolver: "Callable[[str], FormatGraph] | None" = None,
                 resync: bool = False, budget=None, parser_factory=None):
        max_record_size = getattr(budget, "max_declared_bytes", None)
        if max_record_size is None:
            max_record_size = MAX_RECORD_SIZE
        if not 0 < max_record_size < BUSY_SENTINEL:
            raise StreamError(
                f"max_declared_bytes must be in 1..{BUSY_SENTINEL - 1} "
                f"({max_record_size}): the control-record sentinels live above"
            )
        super().__init__(budget)
        self.graph = graph
        #: graph -> parser-like (``parse(payload, strict=True)``); lets a
        #: session swap in the specialized compiled codec tier, including
        #: across rotations (the factory is re-invoked per rotated-to graph).
        self._parser_factory = parser_factory
        self._parser = self._make_parser(graph, plan)
        self._key_resolver = key_resolver
        self.resync = resync
        self.max_record_size = max_record_size
        #: rotation control records followed (plan switches in this stream).
        self.rotations = 0
        #: key id of the plan currently in force (None until the first rotation).
        self.current_key: str | None = None
        self._payload_offset = 0

    def _make_parser(self, graph: FormatGraph, plan: "CodecPlan | None" = None):
        if self._parser_factory is not None:
            return self._parser_factory(graph)
        from ..wire.parser import Parser  # local: keeps module import light

        return Parser(graph, plan=plan if plan is not None else plan_for(graph))

    @property
    def needs_more(self) -> bool:
        return len(self._buffer) > 0

    def feed_eof(self) -> "list[DecodedMessage | RotationEvent | CorruptRecord | BusyEvent]":
        completed = super().feed_eof()
        if self._buffer:
            raise self._fail(StreamError(
                f"stream ended inside a record ({len(self._buffer)} byte(s) "
                f"buffered)", message_index=self._decoded,
            ))
        return completed

    def rotate_to(self, graph: FormatGraph, *, plan: CodecPlan | None = None,
                  key_id: str | None = None) -> None:
        """Switch to decoding ``graph`` from the next record on.

        Used by an endpoint rotating its *receiving* direction locally (the
        client after announcing a rotation): refuses to switch while bytes of
        the old dialect are still buffered — rotate at a quiescent message
        boundary.  Inbound rotation control records switch the parser
        directly instead, because bytes buffered *behind* the control record
        already belong to the new dialect.
        """
        if self._buffer:
            raise StreamError(
                f"cannot rotate the decoder with {len(self._buffer)} byte(s) "
                f"of the previous dialect still buffered; drain in-flight "
                f"records first"
            )
        self.graph = graph
        self._parser = self._make_parser(graph, plan)
        self.current_key = key_id

    def _drain(self) -> "list[DecodedMessage | RotationEvent | CorruptRecord | BusyEvent]":
        completed: "list[DecodedMessage | RotationEvent | CorruptRecord | BusyEvent]" = []
        while True:
            if len(self._buffer) < RECORD_HEADER:
                break
            size = int.from_bytes(self._buffer[:RECORD_HEADER], "big")
            if size == ROTATION_SENTINEL:
                header = RECORD_HEADER + ROTATION_KEY_HEADER
                if len(self._buffer) < header:
                    break
                key_size = int.from_bytes(
                    self._buffer[RECORD_HEADER:header], "big"
                )
                if len(self._buffer) < header + key_size:
                    break
                key_id = bytes(self._buffer[header:header + key_size]).decode(
                    "utf-8", errors="replace"
                )
                del self._buffer[:header + key_size]
                if self._key_resolver is None:
                    raise self._fail(StreamError(
                        f"peer announced a rotation to key {key_id!r} but this "
                        f"endpoint holds no plan book",
                        message_index=self._decoded,
                    ))
                try:
                    graph = self._key_resolver(key_id)
                except KeyError as exc:
                    raise self._fail(StreamError(
                        f"peer rotated to unknown key {key_id!r}",
                        message_index=self._decoded,
                    )) from exc
                # Swap directly: any bytes buffered behind the control record
                # were serialized under the new dialect by stream order.
                self.graph = graph
                self._parser = self._make_parser(graph)
                self.current_key = key_id
                self.rotations += 1
                completed.append(RotationEvent(key_id))
                continue
            if size == BUSY_SENTINEL:
                header = RECORD_HEADER + BUSY_RETRY_HEADER
                if len(self._buffer) < header:
                    break
                millis = int.from_bytes(self._buffer[RECORD_HEADER:header], "big")
                del self._buffer[:header]
                completed.append(BusyEvent(retry_after=millis / 1000.0))
                continue
            if size >= self.max_record_size:
                # The declaration alone condemns the record: fail before a
                # single payload byte is buffered toward it.
                raise self._fail(BudgetExceeded(
                    "record_bytes", limit=self.max_record_size, actual=size,
                    message=(
                        f"record of {size} bytes exceeds the "
                        f"{self.max_record_size}-byte limit "
                        f"(stream desynchronized?)"
                    ),
                    message_index=self._decoded,
                ))
            if len(self._buffer) < RECORD_HEADER + size:
                break
            self._count_step()
            payload = bytes(self._buffer[RECORD_HEADER : RECORD_HEADER + size])
            del self._buffer[: RECORD_HEADER + size]
            try:
                message = self._parser.parse(payload, strict=True)
            except ParseError as exc:
                wrapped = StreamError(
                    f"undecodable record payload: {exc}",
                    message_index=self._decoded,
                )
                wrapped.offset, wrapped.node = exc.offset, exc.node
                if self.resync:
                    # The envelope still frames the stream: report the damaged
                    # record and resynchronize at the next record boundary.
                    start = self._payload_offset
                    self._payload_offset += size
                    completed.append(CorruptRecord(
                        raw=payload, start=start, end=self._payload_offset,
                        error=wrapped,
                    ))
                    continue
                raise self._fail(wrapped) from exc
            start = self._payload_offset
            self._payload_offset += size
            completed.append(DecodedMessage(
                message=message, raw=payload, start=start, end=self._payload_offset,
            ))
            self._decoded += 1
        return completed


def make_decoder(graph: FormatGraph, framing: str, *,
                 plan: CodecPlan | None = None,
                 key_resolver: "Callable[[str], FormatGraph] | None" = None,
                 resync: bool = False, budget=None, parser_factory=None):
    """Instantiate the incremental decoder matching a resolved framing.

    ``key_resolver`` enables rotation control records; only record framing
    carries them (native framing has no envelope for control traffic).
    ``resync`` asks for corrupt-payload recovery at record boundaries — a
    record-framing capability; a native stream has no boundary to resume at,
    so requesting resync there is an error rather than a silent downgrade.
    ``budget`` (a :class:`~repro.net.governance.ResourceBudget` or any
    duck-typed equivalent) threads per-session limits into either decoder.
    ``parser_factory`` (graph → object with ``parse(payload, strict=True)``)
    swaps whole-record parsing to an alternative codec tier — the specialized
    compiled modules in practice.  Record framing only: native framing parses
    incrementally and keeps the interpreted streaming decoder.
    """
    if framing == "native":
        if key_resolver is not None:
            raise StreamError(
                "native framing cannot carry rotation control records; "
                "use record framing for rotation-capable sessions"
            )
        if resync:
            raise StreamError(
                "native framing cannot resynchronize after corruption "
                "(no record boundary to resume at); use record framing"
            )
        return StreamingDecoder(graph, plan=plan, budget=budget)
    if framing == "record":
        return RecordDecoder(graph, plan=plan, key_resolver=key_resolver,
                             resync=resync, budget=budget,
                             parser_factory=parser_factory)
    raise ValueError(f"unresolved framing {framing!r}")


def frame_payload(payload: bytes, framing: str) -> bytes:
    """Wire bytes actually written for one message payload."""
    if framing == "native":
        return payload
    if framing == "record":
        return encode_record(payload)
    raise ValueError(f"unresolved framing {framing!r}")


__all__ = [
    "BUSY_RETRY_HEADER",
    "BUSY_SENTINEL",
    "FRAMINGS",
    "MAX_RECORD_SIZE",
    "RECORD_HEADER",
    "ROTATION_KEY_HEADER",
    "ROTATION_SENTINEL",
    "BusyEvent",
    "CorruptRecord",
    "RecordDecoder",
    "RotationEvent",
    "encode_busy",
    "encode_record",
    "encode_rotation",
    "frame_payload",
    "make_decoder",
    "resolve_framing",
]
