"""Incremental, resumable wire decoding over byte streams.

The whole-message :class:`~repro.wire.parser.Parser` assumes the complete
message sits in one buffer.  On a live transport that assumption never holds:
bytes arrive in arbitrary chunks, several messages ride back-to-back on one
TCP stream, and the decoder must say *"I need more bytes"* without losing the
parse state it has already built.

This module provides that incremental variant.  The recursive descent of the
parser is re-expressed as a suspendable generator machine:

* a :class:`StreamSource` accumulates fed chunks (with an absolute offset
  base, so consumed prefixes can be released),
* a :class:`StreamWindow` is the streaming counterpart of
  :class:`~repro.wire.window.Window`; every primitive read is a generator
  that yields :data:`NEED_MORE` until the source holds enough bytes (or EOF
  resolves the wait),
* :class:`StreamingParser` mirrors the parser's node dispatch exactly —
  same plan-compiled codecs, same reference resolution, same optional /
  repetition / synthesis / mirror semantics — but suspended mid-node when
  the stream runs dry,
* :class:`StreamingDecoder` drives the machine: ``feed()`` returns every
  newly completed message, ``feed_eof()`` flushes the tail, and back-to-back
  messages on one stream are framed without any outer envelope.  A message
  whose bytes are all buffered when it starts is parsed whole by the
  :class:`~repro.wire.parser.Parser` instead; the machine takes over only
  the messages that do not complete that way, from their first byte.

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
from ..core.node import Node
from ..core.values import Value
from .parser import (
    _COUNTER,
    _DELIMITED,
    _END,
    _FIXED,
    _LENGTH,
    _OPTIONAL,
    _REPEATED,
    _SEQUENCE,
    _TERMINAL,
    Parser,
    _ParseContext,
)
from .plan import CodecPlan, plan_for
from .window import OpenWindow

#: Sentinel yielded by the parse machine when the source holds too few bytes.
NEED_MORE = object()


# ---------------------------------------------------------------------------
# the byte source
# ---------------------------------------------------------------------------


class StreamSource:
    """An append-only byte accumulator with an absolute offset base.

    All offsets handed out by the source (and by the windows over it) are
    *absolute stream offsets*: :meth:`release` drops an already-consumed
    prefix without renumbering anything, which keeps memory bounded on
    long-lived sessions.

    ``last_wait`` is maintained by the windows: the smallest absolute offset
    a suspended parse can still re-read, i.e. the safe release point while a
    message is incomplete.
    """

    __slots__ = ("_buffer", "_base", "_eof", "last_wait")

    def __init__(self, data: bytes = b"", *, eof: bool = False):
        self._buffer = bytearray(data)
        self._base = 0
        self._eof = eof
        self.last_wait = 0

    @classmethod
    def of(cls, data: bytes) -> "StreamSource":
        """A complete in-memory source (used for mirrored region re-parses)."""
        return cls(data, eof=True)

    @property
    def length(self) -> int:
        """Absolute offset one past the last byte received so far."""
        return self._base + len(self._buffer)

    @property
    def base(self) -> int:
        """Absolute offset of the first byte still held."""
        return self._base

    @property
    def eof(self) -> bool:
        return self._eof

    def feed(self, data: bytes) -> None:
        if self._eof:
            raise StreamError("cannot feed bytes after end-of-stream")
        self._buffer += data

    def feed_eof(self) -> None:
        self._eof = True

    def buffered_bytes(self) -> int:
        """Bytes *held* in storage right now (received minus released)."""
        return len(self._buffer)

    def release(self, upto: int) -> None:
        """Drop the bytes before absolute offset ``upto`` (already consumed)."""
        if upto <= self._base:
            return
        del self._buffer[: upto - self._base]
        self._base = upto

    def snapshot(self) -> bytes:
        """One copy of every held byte, starting at absolute offset :attr:`base`."""
        return bytes(self._buffer)

    # -- reads (absolute offsets) --------------------------------------------

    def slice(self, start: int, end: int) -> bytes:
        return bytes(self._buffer[start - self._base : end - self._base])

    def find(self, sub: bytes, start: int, end: int) -> int:
        position = self._buffer.find(sub, start - self._base, end - self._base)
        return position if position < 0 else position + self._base

    def startswith(self, prefix: bytes, start: int, end: int) -> bool:
        return self._buffer.startswith(prefix, start - self._base, end - self._base)


# ---------------------------------------------------------------------------
# the suspendable window
# ---------------------------------------------------------------------------


class StreamWindow:
    """A cursor over a :class:`StreamSource`, possibly with an open end.

    The streaming counterpart of :class:`~repro.wire.window.Window`: a
    bounded window (``end`` given) behaves identically once the bytes have
    arrived; an *unbounded* window (``end=None``) extends to the — as yet
    unknown — end of the stream.  Every consuming primitive is a generator
    yielding :data:`NEED_MORE` while the source holds too few bytes; waits
    resolve as soon as the bytes arrive or EOF makes the answer definite.
    """

    __slots__ = ("source", "cursor", "end")

    def __init__(self, source: StreamSource, start: int, end: int | None):
        self.source = source
        self.cursor = start
        self.end = end

    # -- synchronous inspection ----------------------------------------------

    def bounded_at_end(self) -> bool:
        """End check of a bounded window (callers guarantee ``end`` is set)."""
        return self.cursor >= self.end  # type: ignore[operator]

    def bounded_remaining(self) -> int:
        return (self.end or 0) - self.cursor

    # -- suspendable primitives ----------------------------------------------

    def read(self, count: int):
        """Consume exactly ``count`` bytes (suspends until they arrived)."""
        if count < 0:
            raise ParseError(f"cannot read a negative number of bytes ({count})")
        target = self.cursor + count
        if self.end is not None and target > self.end:
            raise ParseError(
                f"unexpected end of data: needed {count} byte(s), "
                f"{self.end - self.cursor} available",
                offset=self.cursor,
            )
        source = self.source
        while source.length < target:
            if source.eof:
                raise StreamError(
                    f"stream ended {target - source.length} byte(s) short of a "
                    f"{count}-byte read",
                    offset=self.cursor,
                )
            source.last_wait = self.cursor
            yield NEED_MORE
        data = source.slice(self.cursor, target)
        self.cursor = target
        return data

    def read_rest(self):
        """Consume every remaining byte of the window.

        On an unbounded window this is the END boundary at stream level: it
        resolves only once EOF is known (HTTP/1.0 body semantics).
        """
        if self.end is not None:
            return (yield from self.read(self.end - self.cursor))
        source = self.source
        while not source.eof:
            source.last_wait = self.cursor
            yield NEED_MORE
        data = source.slice(self.cursor, source.length)
        self.cursor = source.length
        return data

    def read_until(self, delimiter: bytes):
        """Consume up to and including ``delimiter``; return the bytes before it."""
        if not delimiter:
            raise ParseError("cannot search for an empty delimiter")
        source = self.source
        search_from = self.cursor
        while True:
            limit = source.length if self.end is None else min(source.length, self.end)
            position = source.find(delimiter, search_from, limit)
            if position >= 0:
                value = source.slice(self.cursor, position)
                self.cursor = position + len(delimiter)
                return value
            if self.end is not None and source.length >= self.end:
                # The whole window arrived and holds no delimiter.
                raise ParseError(
                    f"delimiter {delimiter!r} not found", offset=self.cursor
                )
            if source.eof:
                raise StreamError(
                    f"stream ended before delimiter {delimiter!r} was found",
                    offset=self.cursor,
                )
            # A partial delimiter may straddle the next chunk: re-scan only
            # from the last position it could have started at.
            search_from = max(self.cursor, limit - len(delimiter) + 1)
            source.last_wait = self.cursor
            yield NEED_MORE

    def at_end(self):
        """End-of-window check (suspends on an unbounded window with no bytes)."""
        if self.end is not None:
            return self.cursor >= self.end
        source = self.source
        while True:
            if source.length > self.cursor:
                return False
            if source.eof:
                return True
            source.last_wait = self.cursor
            yield NEED_MORE

    def starts_with(self, prefix: bytes):
        """True when the unread bytes start with ``prefix`` (suspendable)."""
        target = self.cursor + len(prefix)
        if self.end is not None and target > self.end:
            return False
        source = self.source
        while source.length < target:
            if source.eof:
                if self.end is not None:
                    raise StreamError(
                        "stream ended inside a bounded window", offset=self.cursor
                    )
                return False
            source.last_wait = self.cursor
            yield NEED_MORE
        return source.startswith(prefix, self.cursor, target)

    def subwindow(self, length: int) -> "StreamWindow":
        """Bounded child window over the next ``length`` bytes (consumed here)."""
        if length < 0:
            raise ParseError(f"negative sub-window length ({length})")
        if self.end is not None and self.cursor + length > self.end:
            raise ParseError(
                f"sub-window of {length} byte(s) exceeds the "
                f"{self.end - self.cursor} remaining byte(s)",
                offset=self.cursor,
            )
        child = StreamWindow(self.source, self.cursor, self.cursor + length)
        self.cursor += length
        return child

    def __repr__(self) -> str:
        end = "open" if self.end is None else self.end
        return f"StreamWindow(cursor={self.cursor}, end={end})"


# ---------------------------------------------------------------------------
# the suspendable recursive descent
# ---------------------------------------------------------------------------


class StreamingParser:
    """The parser's recursive descent, re-expressed as a generator machine.

    Node dispatch, reference resolution, optional presence, repetition
    boundaries, synthesis recombination and mirrored-region handling mirror
    :class:`~repro.wire.parser.Parser` exactly — the test suite fuzzes
    byte- and structure-identity against whole-message ``parse()`` for every
    registry protocol under 0–4 obfuscation passes.  The difference is purely
    operational: any read that outruns the stream suspends the whole descent
    (by yielding :data:`NEED_MORE` up through the generator stack) instead of
    failing, and resumes in place when more bytes are fed.
    """

    def __init__(self, graph: FormatGraph, *, plan: CodecPlan | None = None,
                 max_declared_bytes: int | None = None):
        self.graph = graph
        self.plan = plan if plan is not None else plan_for(graph)
        self._ref_targets = self.plan.ref_targets
        #: budget on *declared* lengths — checked against the declaration
        #: itself, before any byte is awaited (let alone buffered) toward it.
        self.max_declared_bytes = max_declared_bytes

    def _check_declared(self, length: int, node: str) -> int:
        if (self.max_declared_bytes is not None
                and length > self.max_declared_bytes):
            raise BudgetExceeded(
                "declared_bytes", limit=self.max_declared_bytes,
                actual=length, node=node,
            )
        return length

    # -- the per-message machine ----------------------------------------------

    def parse_message(self, window: StreamWindow):
        """Generator parsing one message starting at ``window.cursor``.

        Yields :data:`NEED_MORE` while suspended; returns ``(message, end)``
        where ``end`` is the absolute offset one past the message's last byte.
        """
        context = _ParseContext()
        yield from self._parse_node(self.graph.root, window, context)
        return context.message, window.cursor

    # -- node dispatch (generator mirror of Parser._parse_node) ---------------

    def _parse_node(self, node: Node, win: StreamWindow, ctx: _ParseContext,
                    *, prebounded: bool = False):
        if node.mirrored and not prebounded:
            region = yield from self._extract_region(node, win, ctx)
            inner = StreamWindow(StreamSource.of(region[::-1]), 0, len(region))
            yield from self._parse_node(node, inner, ctx, prebounded=True)
            return
        if node.type is _TERMINAL:
            value = yield from self._parse_terminal(node, win, ctx,
                                                    prebounded=prebounded)
            self._store_terminal(node, value, ctx)
            return
        inner, strict = self._composite_window(node, win, ctx, prebounded)
        if node.type is _SEQUENCE:
            yield from self._parse_sequence(node, inner, ctx)
        elif node.type is _OPTIONAL:
            yield from self._parse_optional(node, inner, ctx)
        elif node.type in _REPEATED:
            yield from self._parse_repetition(node, inner, ctx)
        else:  # pragma: no cover - exhaustive enum
            raise ParseError(f"unknown node type {node.type!r}", node=node.name)
        if strict and not inner.bounded_at_end():
            raise ParseError(
                f"{inner.bounded_remaining()} byte(s) left inside bounded node",
                node=node.name,
                offset=inner.cursor,
            )

    def _composite_window(self, node: Node, win: StreamWindow, ctx: _ParseContext,
                          prebounded: bool) -> tuple[StreamWindow, bool]:
        if prebounded:
            return win, True
        if node.boundary.kind is _LENGTH:
            length = self._check_declared(
                ctx.raw_values[node.boundary.ref], node.name,  # type: ignore[arg-type,index]
            )
            return win.subwindow(length), True
        return win, False

    # -- terminals ------------------------------------------------------------

    def _parse_terminal(self, node: Node, win: StreamWindow, ctx: _ParseContext,
                        *, prebounded: bool = False):
        raw = yield from self._terminal_bytes(node, win, ctx, prebounded)
        if node.is_pad:
            return None
        return self.plan.terminals[node.name].decode(raw)

    def _terminal_bytes(self, node: Node, win: StreamWindow, ctx: _ParseContext,
                        prebounded: bool):
        if prebounded:
            return (yield from win.read_rest())
        kind = node.boundary.kind
        try:
            if kind is _FIXED:
                return (yield from win.read(node.boundary.size or 0))
            if kind is _DELIMITED:
                return (yield from win.read_until(node.boundary.delimiter or b""))
            if kind is _LENGTH:
                length = self._check_declared(
                    ctx.raw_values[node.boundary.ref], node.name,  # type: ignore[arg-type,index]
                )
                return (yield from win.read(length))
            return (yield from win.read_rest())
        except StreamError:
            raise
        except ParseError as exc:
            raise ParseError(str(exc), node=node.name, offset=win.cursor) from exc

    def _store_terminal(self, node: Node, value: Value | None,
                        ctx: _ParseContext) -> None:
        if node.is_pad or value is None:
            return
        ctx.raw_values[node.name] = value
        if node.origin is not None:
            self.plan.origin_set[node.name](ctx.data, ctx.index_stack, value)

    # -- region extraction for mirrored nodes ----------------------------------

    def _extract_region(self, node: Node, win: StreamWindow, ctx: _ParseContext):
        kind = node.boundary.kind
        if kind is _FIXED:
            return (yield from win.read(node.boundary.size or 0))
        if kind is _LENGTH:
            return (yield from win.read(self._check_declared(
                ctx.raw_values[node.boundary.ref], node.name,  # type: ignore[arg-type,index]
            )))
        if kind is _END:
            return (yield from win.read_rest())
        # Validation gives every other mirrored node a static size.
        return (yield from win.read(self.plan.static_sizes[node.name]))  # type: ignore[arg-type]

    # -- composites -----------------------------------------------------------

    def _parse_sequence(self, node: Node, win: StreamWindow, ctx: _ParseContext):
        if node.synthesis is not None:
            yield from self._parse_synthesis(node, win, ctx)
            return
        for child in node.children:
            if child.type is _TERMINAL and not child.mirrored:
                value = yield from self._parse_terminal(child, win, ctx)
                self._store_terminal(child, value, ctx)
            else:
                yield from self._parse_node(child, win, ctx)

    def _parse_synthesis(self, node: Node, win: StreamWindow, ctx: _ParseContext):
        shares: list[Value] = []
        for child in node.children:
            if child.name in self._ref_targets:
                yield from self._parse_node(child, win, ctx)
                continue
            shares.append((yield from self._parse_split_child(child, win, ctx)))
        combined = node.synthesis.combine(shares[0], shares[1])  # type: ignore[union-attr]
        self.plan.origin_set[node.name](ctx.data, ctx.index_stack, combined)

    def _parse_split_child(self, child: Node, win: StreamWindow, ctx: _ParseContext):
        if child.mirrored:
            region = yield from self._extract_region(child, win, ctx)
            inner = StreamWindow(StreamSource.of(region[::-1]), 0, len(region))
            value = yield from self._parse_terminal(child, inner, ctx, prebounded=True)
        else:
            value = yield from self._parse_terminal(child, win, ctx)
        ctx.raw_values[child.name] = value
        return value

    def _parse_optional(self, node: Node, win: StreamWindow, ctx: _ParseContext):
        present = yield from self._optional_present(node, win, ctx)
        if not present:
            return
        yield from self._parse_node(node.children[0], win, ctx)

    def _optional_present(self, node: Node, win: StreamWindow, ctx: _ParseContext):
        if node.presence_ref is not None:
            return ctx.raw_values[node.presence_ref] == node.presence_value
        at_end = yield from win.at_end()
        return not at_end

    def _parse_repetition(self, node: Node, win: StreamWindow, ctx: _ParseContext):
        self.plan.list_init[node.name](ctx.data, ctx.index_stack)
        child = node.children[0]
        kind = node.boundary.kind

        if kind is _COUNTER:
            for index in range(ctx.raw_values[node.boundary.ref]):  # type: ignore[arg-type,index]
                ctx.index_stack.append(index)
                try:
                    yield from self._parse_node(child, win, ctx)
                finally:
                    ctx.index_stack.pop()
            return
        if kind is _DELIMITED:
            terminator = node.boundary.delimiter or b""
            index = 0
            while True:
                at_end = yield from win.at_end()
                if at_end:
                    return
                terminated = yield from win.starts_with(terminator)
                if terminated:
                    yield from win.read(len(terminator))
                    return
                ctx.index_stack.append(index)
                try:
                    yield from self._parse_node(child, win, ctx)
                finally:
                    ctx.index_stack.pop()
                index += 1
        # LENGTH / END / prebounded: consume the window.
        index = 0
        while True:
            at_end = yield from win.at_end()
            if at_end:
                return
            ctx.index_stack.append(index)
            try:
                yield from self._parse_node(child, win, ctx)
            finally:
                ctx.index_stack.pop()
            index += 1


# ---------------------------------------------------------------------------
# the stream driver
# ---------------------------------------------------------------------------


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


class StreamingDecoder:
    """Feeds arbitrary chunks; emits complete messages as they frame.

    ``feed()`` returns the messages completed by that chunk (zero or more —
    one chunk can complete several back-to-back messages, or none).
    ``feed_eof()`` flushes the tail: a message suspended on an END boundary
    completes, a message cut mid-field raises :class:`StreamError`.
    ``needs_more`` reports whether a message is currently suspended.

    Each message gets at most one whole-message parse attempt, made when it
    starts at a clean boundary before end-of-stream (see
    :meth:`_parse_buffered`).  A message that attempt cannot finish goes to
    the resumable machine, so a one-byte drip stays linear in the stream
    length.

    ``budget`` is any object exposing ``max_stream_bytes`` /
    ``max_declared_bytes`` / ``max_steps_per_feed`` attributes (``None``
    meaning unlimited) — typically a
    :class:`~repro.net.governance.ResourceBudget`, duck-typed so the wire
    layer stays independent of the net layer.  Violations raise
    :class:`~repro.core.errors.BudgetExceeded` and latch the decoder dead
    like any other stream failure.
    """

    def __init__(self, graph: FormatGraph, *, plan: CodecPlan | None = None,
                 budget=None):
        self.parser = StreamingParser(
            graph, plan=plan,
            max_declared_bytes=getattr(budget, "max_declared_bytes", None),
        )
        self._whole_parser = Parser(graph, plan=self.parser.plan)
        self._max_stream = getattr(budget, "max_stream_bytes", None)
        self._max_steps = getattr(budget, "max_steps_per_feed", None)
        self._source = StreamSource()
        self._machine = None
        self._start = 0
        self._decoded = 0
        self._steps = 0
        # Prefix of the in-flight message already released from the source
        # (mid-message trim): DecodedMessage.raw still needs those bytes.
        self._raw_parts = bytearray()
        self._failed: StreamError | None = None

    # -- state ----------------------------------------------------------------

    @property
    def needs_more(self) -> bool:
        """True when a partially parsed message is waiting for bytes."""
        return self._machine is not None

    @property
    def buffered(self) -> int:
        """Number of received-but-unconsumed bytes."""
        return self._source.length - self._start

    @property
    def decoded_count(self) -> int:
        """Number of messages completed so far."""
        return self._decoded

    # -- feeding --------------------------------------------------------------

    def feed(self, data: bytes) -> list[DecodedMessage]:
        """Buffer ``data`` and return every message it completed."""
        self._check_failed()
        if (self._max_stream is not None
                and self.buffered + len(data) > self._max_stream):
            raise self._fail(BudgetExceeded(
                "stream_bytes", limit=self._max_stream,
                actual=self.buffered + len(data),
                message_index=self._decoded,
            ))
        self._steps = 0
        self._source.feed(data)
        return self._pump()

    def feed_eof(self) -> list[DecodedMessage]:
        """Signal end-of-stream and return the flushed tail messages."""
        self._check_failed()
        self._steps = 0
        if not self._source.eof:
            self._source.feed_eof()
        completed = self._pump()
        if self._machine is not None:  # pragma: no cover - machines resolve at EOF
            raise self._fail(StreamError(
                "stream ended inside a message", offset=self._source.length,
                message_index=self._decoded,
            ))
        return completed

    # -- the pump --------------------------------------------------------------

    def _pump(self) -> list[DecodedMessage]:
        completed: list[DecodedMessage] = []
        source = self._source
        # Taken at the first clean message boundary: one copy of the buffered
        # bytes per pump, in which whole messages parse at increasing offsets.
        snapshot: tuple[bytes, int] | None = None
        while True:
            if self._machine is None:
                if source.length <= self._start:
                    break  # no unconsumed byte: clean inter-message point
                if not source.eof:
                    if snapshot is None:
                        snapshot = source.snapshot(), source.base
                    if self._parse_buffered(*snapshot, completed):
                        continue
                window = StreamWindow(source, self._start, None)
                self._machine = self.parser.parse_message(window)
            try:
                self._machine.send(None)
            except StopIteration as stop:
                message, end = stop.value
                if self._raw_parts:
                    raw = bytes(self._raw_parts) + source.slice(source.base, end)
                    self._raw_parts.clear()
                else:
                    raw = source.slice(self._start, end)
                self._machine = None
                self._complete(completed, message, raw, end)
                continue
            except BudgetExceeded as exc:
                # Keep the typed subclass (and its resource/limit/actual
                # attribution) intact instead of re-wrapping it away.
                if exc.message_index is None:
                    exc.message_index = self._decoded
                raise self._fail(exc)
            except StreamError as exc:
                wrapped = StreamError(str(exc), message_index=self._decoded)
                wrapped.offset, wrapped.node = exc.offset, exc.node
                raise self._fail(wrapped) from exc
            except ParseError as exc:
                wrapped = StreamError(
                    f"undecodable bytes on stream: {exc}",
                    message_index=self._decoded,
                )
                wrapped.offset, wrapped.node = exc.offset, exc.node
                raise self._fail(wrapped) from exc
            # The machine yielded NEED_MORE: drop the consumed prefix of the
            # in-flight message before waiting, so a stalled multi-record
            # feed cannot pin the whole stream history in memory.
            self._trim()
            break
        return completed

    def _parse_buffered(self, data: bytes, base: int,
                        completed: list[DecodedMessage]) -> bool:
        """Parse the next message whole from ``data``, the bytes held from ``base``.

        The whole-message :class:`~repro.wire.parser.Parser` runs over an
        :class:`~repro.wire.window.OpenWindow` that ends where the buffered
        bytes end — or, under a budget, ``max_declared_bytes`` past the
        message start, so a message declaring more than that never completes
        here.  Running short of bytes, an answer that depends on bytes not yet
        received, or any other :class:`ParseError` returns False without side
        effects: the machine then parses the message from its start, and every
        suspension, typed error and budget check stays the machine's.
        """
        start = self._start - base
        end = len(data)
        cap = self.parser.max_declared_bytes
        if cap is not None:
            end = min(end, start + cap)
        try:
            window = OpenWindow(data, start, end)
            message = self._whole_parser.parse_prefix(window)
        except ParseError:
            return False
        self._complete(completed, message, data[start:window.cursor],
                       base + window.cursor)
        return True

    def _complete(self, completed: list[DecodedMessage], message: Message,
                  raw: bytes, end: int) -> None:
        """Emit the message ending at ``end``, release it and count the step."""
        completed.append(DecodedMessage(
            message=message, raw=raw, start=self._start, end=end,
        ))
        self._start = end
        self._decoded += 1
        self._source.release(end)
        self._steps += 1
        if self._max_steps is not None and self._steps > self._max_steps:
            raise self._fail(BudgetExceeded(
                "decode_steps", limit=self._max_steps,
                actual=self._steps, message_index=self._decoded,
            ))

    def _trim(self) -> None:
        """Release bytes a suspended parse can no longer re-read.

        ``source.last_wait`` is the cursor of the deepest suspended window —
        the minimum offset any resumed read will touch (parent cursors sit at
        or past their child's end, and delimiter re-scans never start before
        the cursor).  Everything before it is retained only for
        :class:`DecodedMessage.raw`, so it moves into ``_raw_parts``.
        """
        source = self._source
        safe = source.last_wait
        if safe > source.base:
            self._raw_parts += source.slice(source.base, safe)
            source.release(safe)

    def _fail(self, error: StreamError) -> StreamError:
        self._failed = error
        self._machine = None
        return error

    def _check_failed(self) -> None:
        # Re-raise the *original* stored error: callers diagnosing a dead
        # stream rely on message_index/offset/node surviving repeated feeds.
        if self._failed is not None:
            raise self._failed


def decode_stream(graph: FormatGraph, chunks, *, plan: CodecPlan | None = None
                  ) -> list[DecodedMessage]:
    """Decode an iterable of chunks into framed messages (EOF at exhaustion)."""
    decoder = StreamingDecoder(graph, plan=plan)
    decoded: list[DecodedMessage] = []
    for chunk in chunks:
        decoded.extend(decoder.feed(chunk))
    decoded.extend(decoder.feed_eof())
    return decoded


# ---------------------------------------------------------------------------
# framability
# ---------------------------------------------------------------------------


def is_self_framing(graph: FormatGraph) -> bool:
    """True when back-to-back messages of ``graph`` frame on a bare stream:
    no parse consults the end of the stream (``graph`` is validated first)."""
    return plan_for(graph).self_framing
