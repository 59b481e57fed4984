"""Incremental, resumable wire decoding over byte streams.

The whole-message :class:`~repro.wire.parser.Parser` assumes the complete
message sits in one buffer.  On a live transport that assumption never holds:
bytes arrive in arbitrary chunks, several messages ride back-to-back on one
TCP stream, and the decoder must say *"I need more bytes"* without losing the
parse state it has already built.

:class:`StreamingDecoder` runs the graph's parse program
(:mod:`repro.wire.program`) over a receive buffer: ``feed()`` returns every
newly completed message, ``feed_eof()`` flushes the tail, and back-to-back
messages on one stream are framed without any outer envelope.  A message
whose bytes run out mid-parse waits in its :class:`~repro.wire.program.ParseRun`
and resumes at the same step on the next feed.  What it shares with the
record-framing decoder of :mod:`repro.net` — the receive buffer, failure
latching and the stream and step budgets — is
:class:`~repro.wire.incremental.IncrementalDecoder`.

Framing caveat — *greedy* graphs.  A graph whose parse consults the end of
the enclosing window at the top level (an END-bounded terminal such as the
HTTP body, or an Optional without a presence reference) cannot be framed on
a bare stream: the next message's bytes would be swallowed.  Exactly like
HTTP/1.0 without ``Content-Length``, such messages end only at end-of-stream.
:func:`is_self_framing` reads that verdict from the graph's cached plan (the
validator's greedy flag of the root); the session layer (:mod:`repro.net`)
switches to an explicit record framing when a graph is not self-framing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import BudgetExceeded, ParseError, StreamError
from ..core.graph import FormatGraph
from ..core.message import Message
from .incremental import IncrementalDecoder
from .plan import CodecPlan, plan_for
from .program import ParseRun, program_for


@dataclass(frozen=True)
class DecodedMessage:
    """One message framed off a stream: logical content plus wire extent."""

    message: Message
    #: exact wire bytes of this message (``stream[start:end]``).
    raw: bytes
    #: absolute stream offset of the first byte.
    start: int
    #: absolute stream offset one past the last byte.
    end: int

    def __len__(self) -> int:
        return self.end - self.start


class StreamingDecoder(IncrementalDecoder):
    """Feeds arbitrary chunks; emits complete messages as they frame.

    ``feed()`` returns the messages completed by that chunk (zero or more —
    one chunk can complete several back-to-back messages, or none).
    ``feed_eof()`` flushes the tail: a message waiting on an END boundary
    completes, a message cut mid-field raises :class:`StreamError`.
    ``needs_more`` reports whether a message is waiting for bytes.

    Each message runs the plan's parse program once, resuming where it
    waited, so a one-byte drip stays linear in the stream length.  The
    buffer holds the bytes of the message in flight and of those after it;
    a completed message's bytes are released at once.

    Beyond the budgets of
    :class:`~repro.wire.incremental.IncrementalDecoder`,
    ``max_declared_bytes`` bounds every length a message declares, checked
    before any byte is awaited toward it.  Violations raise
    :class:`~repro.core.errors.BudgetExceeded` and latch the decoder dead
    like any other stream failure.
    """

    def __init__(self, graph: FormatGraph, *, plan: CodecPlan | None = None,
                 budget=None):
        super().__init__(budget)
        self.plan = plan if plan is not None else plan_for(graph)
        self.program = program_for(graph, self.plan)
        self._max_declared = getattr(budget, "max_declared_bytes", None)
        #: the message in flight, or None between messages.
        self._run: ParseRun | None = None
        #: stream offset of the buffer's first byte.
        self._start = 0

    @property
    def needs_more(self) -> bool:
        """True when a partially parsed message is waiting for bytes."""
        return self._run is not None

    def _drain(self) -> list[DecodedMessage]:
        completed: list[DecodedMessage] = []
        buffer = self._buffer
        while True:
            run = self._run
            if run is None:
                if not buffer:
                    break  # no unconsumed byte: clean inter-message point
                run = self._run = ParseRun()
            try:
                done = self.program.run(run, buffer, self._eof, self._start,
                                        self._max_declared)
            except BudgetExceeded as exc:
                # Keep the typed subclass (and its resource/limit/actual
                # attribution) intact instead of re-wrapping it away.
                self._run = None
                if exc.message_index is None:
                    exc.message_index = self._decoded
                raise self._fail(exc)
            except StreamError as exc:
                self._run = None
                wrapped = StreamError(str(exc), message_index=self._decoded)
                wrapped.offset, wrapped.node = exc.offset, exc.node
                raise self._fail(wrapped) from exc
            except ParseError as exc:
                self._run = None
                wrapped = StreamError(
                    f"undecodable bytes on stream: {exc}",
                    message_index=self._decoded,
                )
                wrapped.offset, wrapped.node = exc.offset, exc.node
                raise self._fail(wrapped) from exc
            if not done:
                break
            end = run.cursor
            self._run = None
            completed.append(DecodedMessage(
                message=run.message, raw=bytes(buffer[:end]),
                start=self._start, end=self._start + end,
            ))
            del buffer[:end]
            self._start += end
            self._decoded += 1
            self._count_step()
        return completed


def decode_stream(graph: FormatGraph, chunks, *, plan: CodecPlan | None = None
                  ) -> list[DecodedMessage]:
    """Decode an iterable of chunks into framed messages (EOF at exhaustion)."""
    decoder = StreamingDecoder(graph, plan=plan)
    decoded: list[DecodedMessage] = []
    for chunk in chunks:
        decoded.extend(decoder.feed(chunk))
    decoded.extend(decoder.feed_eof())
    return decoded


def is_self_framing(graph: FormatGraph) -> bool:
    """True when back-to-back messages of ``graph`` frame on a bare stream:
    no parse consults the end of the stream (``graph`` is validated first)."""
    return plan_for(graph).self_framing
