"""Byte windows used by the wire parser.

A :class:`Window` is a bounded, cursor-based view over a byte buffer.  Parsing
a node whose extent is known up-front (LENGTH boundary, mirrored region, ...)
creates a sub-window so that END boundaries and repetitions naturally stop at
the right place.
"""

from __future__ import annotations

from ..core.errors import ParseError


class Window:
    """A bounded cursor over a byte buffer."""

    __slots__ = ("_data", "_start", "_end", "_cursor")

    def __init__(self, data: bytes, start: int = 0, end: int | None = None):
        self._data = data
        self._start = start
        self._end = len(data) if end is None else end
        if not 0 <= self._start <= self._end <= len(data):
            raise ParseError(
                f"invalid window bounds [{self._start}, {self._end}) over {len(data)} bytes"
            )
        self._cursor = start

    # -- inspection -----------------------------------------------------------

    @property
    def cursor(self) -> int:
        """Absolute offset of the next unread byte."""
        return self._cursor

    @property
    def end(self) -> int:
        """Absolute offset one past the last byte of the window."""
        return self._end

    def remaining(self) -> int:
        """Number of unread bytes left in the window."""
        return self._end - self._cursor

    def at_end(self) -> bool:
        """True when no byte remains."""
        return self._cursor >= self._end

    def peek(self, count: int) -> bytes:
        """Return up to ``count`` bytes without consuming them."""
        end = self._cursor + count
        if end > self._end:
            end = self._end
        return self._data[self._cursor : end]

    def starts_with(self, prefix: bytes) -> bool:
        """True when the unread bytes start with ``prefix``.

        Compared in place with :meth:`bytes.startswith` bounds — this runs
        once per element in every delimited repetition loop, so it must not
        allocate a slice per check.
        """
        return self._data.startswith(prefix, self._cursor, self._end)

    # -- consumption ----------------------------------------------------------

    def read(self, count: int) -> bytes:
        """Consume exactly ``count`` bytes."""
        if count < 0:
            raise ParseError(f"cannot read a negative number of bytes ({count})")
        cursor = self._cursor
        end = cursor + count
        if end > self._end:
            raise ParseError(
                f"unexpected end of data: needed {count} byte(s), "
                f"{self._end - cursor} available",
                offset=cursor,
            )
        self._cursor = end
        return self._data[cursor:end]

    def read_rest(self) -> bytes:
        """Consume every remaining byte of the window."""
        return self.read(self._end - self._cursor)

    def read_until(self, delimiter: bytes) -> bytes:
        """Consume bytes up to and including ``delimiter``; return the bytes before it."""
        if not delimiter:
            raise ParseError("cannot search for an empty delimiter")
        position = self._data.find(delimiter, self._cursor, self._end)
        if position < 0:
            raise ParseError(
                f"delimiter {delimiter!r} not found", offset=self._cursor
            )
        value = self._data[self._cursor : position]
        self._cursor = position + len(delimiter)
        return value

    def skip(self, count: int) -> None:
        """Discard ``count`` bytes."""
        self.read(count)

    def subwindow(self, length: int) -> "Window":
        """Create a window over the next ``length`` bytes and consume them from this one."""
        if length < 0:
            raise ParseError(f"negative sub-window length ({length})")
        if self.remaining() < length:
            raise ParseError(
                f"sub-window of {length} byte(s) exceeds the {self.remaining()} "
                f"remaining byte(s)",
                offset=self._cursor,
            )
        child = Window(self._data, self._cursor, self._cursor + length)
        self._cursor += length
        return child

    def __repr__(self) -> str:
        return f"Window(cursor={self._cursor}, end={self._end}, remaining={self.remaining()})"
