"""The feed contract of the incremental decoders.

:class:`~repro.wire.streaming.StreamingDecoder` (native framing) and
:class:`~repro.net.framing.RecordDecoder` (record framing) take bytes the
same way: :class:`IncrementalDecoder` holds their receive buffer, refuses
bytes after end-of-stream, enforces the stream and step budgets and latches
the first failure.  It lives apart from the stream parser, so a profile of
a record-framed session shows no call into :mod:`repro.wire.streaming`.
"""

from __future__ import annotations

from ..core.errors import BudgetExceeded, StreamError


class IncrementalDecoder:
    """The receive buffer, failure latching and budgets of a stream decoder.

    ``feed()`` refuses bytes after end-of-stream, then refuses a chunk that
    would take the buffered backlog past ``max_stream_bytes`` before a byte
    of it is buffered; each decoded message counts one step against
    ``max_steps_per_feed``.  ``budget`` is any object exposing those
    attributes (``None`` meaning unlimited) — typically a
    :class:`~repro.net.governance.ResourceBudget`, duck-typed so the wire
    layer stays independent of the net layer.  The first failure latches:
    every later ``feed()`` or ``feed_eof()`` re-raises the same error, so its
    ``message_index``, ``offset`` and ``node`` survive.  Subclasses decode
    ``_buffer`` in :meth:`_drain`.
    """

    def __init__(self, budget=None):
        self._max_stream = getattr(budget, "max_stream_bytes", None)
        self._max_steps = getattr(budget, "max_steps_per_feed", None)
        self._buffer = bytearray()
        self._eof = False
        self._decoded = 0
        self._steps = 0
        self._failed: StreamError | None = None

    @property
    def buffered(self) -> int:
        """Received bytes that no decoded message has consumed yet."""
        return len(self._buffer)

    @property
    def decoded_count(self) -> int:
        """Number of messages completed so far."""
        return self._decoded

    def feed(self, data: bytes) -> list:
        """Buffer ``data`` and return every message it completed."""
        self._check_failed()
        if self._eof:
            raise StreamError("cannot feed bytes after end-of-stream")
        if (self._max_stream is not None
                and len(self._buffer) + len(data) > self._max_stream):
            raise self._fail(BudgetExceeded(
                "stream_bytes", limit=self._max_stream,
                actual=len(self._buffer) + len(data),
                message_index=self._decoded,
            ))
        self._steps = 0
        self._buffer += data
        return self._drain()

    def feed_eof(self) -> list:
        """Signal end-of-stream and return the flushed tail messages."""
        self._check_failed()
        self._eof = True
        self._steps = 0
        return self._drain()

    def _drain(self) -> list:  # pragma: no cover - every subclass decodes
        raise NotImplementedError

    def _count_step(self) -> None:
        """Count one message against ``max_steps_per_feed``."""
        self._steps += 1
        if self._max_steps is not None and self._steps > self._max_steps:
            raise self._fail(BudgetExceeded(
                "decode_steps", limit=self._max_steps, actual=self._steps,
                message_index=self._decoded,
            ))

    def _fail(self, error: StreamError) -> StreamError:
        self._failed = error
        return error

    def _check_failed(self) -> None:
        if self._failed is not None:
            raise self._failed
