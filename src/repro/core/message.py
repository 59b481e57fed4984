"""The logical message model.

A :class:`Message` is the protocol message as the *core application* sees it:
a nested structure of dictionaries (Sequence nodes), lists (Repetition and
Tabular nodes) and scalar values (Terminal nodes), keyed by the field names of
the original, non-obfuscated specification.

The message model is deliberately independent of any obfuscating
transformation: the same message serializes to different byte strings under
different obfuscated graphs, and parsing any of those byte strings yields the
same message back.  This is the "stable accessor interface" requirement of the
paper (Section VI).

Applications name fields by path text.  A text that resolved to a concrete
path before is found again in one dict probe; any other path (a
:class:`FieldPath`, a new text, a text that fails to parse or holds an
unbound index) takes the full route and raises the same
:class:`MessageError` on every call.
"""

from __future__ import annotations

import copy as _copy
from typing import Any, Iterator

from .errors import MessageError
from .fieldpath import Accessor, FieldPath, _remember, accessor

_ABSENT = object()

#: Concrete accessors keyed by path text, bounded like the field-path caches.
_BY_TEXT: "dict[str, Accessor]" = {}


def _concrete(path: FieldPath | str) -> Accessor:
    """The shared accessor of ``path``, which must hold no unbound index.

    Callers probe :data:`_BY_TEXT` themselves first (one dict lookup, no
    call); this is the route of a miss.
    """
    found = accessor(path)
    if not found.path.is_concrete:
        raise MessageError(f"path {found.path} still contains unbound indices")
    if type(path) is str:
        _remember(_BY_TEXT, path, found)
    return found


class Message:
    """A logical protocol message (nested dict/list/scalar structure)."""

    __slots__ = ("_data",)

    def __init__(self, data: dict[str, Any] | None = None):
        self._data: dict[str, Any] = data if data is not None else {}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Message":
        """Build a message from a plain nested dictionary (deep-copied)."""
        return cls(_copy.deepcopy(data))

    def copy(self) -> "Message":
        """Deep copy of the message."""
        return Message(_copy.deepcopy(self._data))

    @property
    def raw(self) -> dict[str, Any]:
        """The live underlying nested dictionary (no copy).

        Mutations are visible through the message; the wire runtime's compiled
        accessors navigate this structure directly.
        """
        return self._data

    # -- field access ---------------------------------------------------------

    def get(self, path: FieldPath | str, default: Any = None) -> Any:
        """Value stored at ``path`` or ``default`` when absent."""
        found = _BY_TEXT.get(path) if type(path) is str else None
        return (found or _concrete(path)).get(self._data, (), default)

    def has(self, path: FieldPath | str) -> bool:
        """True when a value (possibly ``None``) exists at ``path``."""
        found = _BY_TEXT.get(path) if type(path) is str else None
        return (found or _concrete(path)).get(self._data, (), _ABSENT) is not _ABSENT

    def set(self, path: FieldPath | str, value: Any) -> None:
        """Store ``value`` at ``path``, creating intermediate containers as needed."""
        found = _BY_TEXT.get(path) if type(path) is str else None
        (found or _concrete(path)).set(self._data, (), value)

    def delete(self, path: FieldPath | str) -> None:
        """Remove the value at ``path`` (no-op when absent)."""
        found = _BY_TEXT.get(path) if type(path) is str else None
        resolved = (found or _concrete(path)).path
        if not resolved:
            raise MessageError("cannot delete the message root")
        parent = accessor(resolved.parent()).get(self._data, ())
        last = resolved.steps[-1]
        if isinstance(parent, dict) and isinstance(last, str):
            parent.pop(last, None)
        elif isinstance(parent, list) and isinstance(last, int) and 0 <= last < len(parent):
            parent[last] = None

    def list_length(self, path: FieldPath | str) -> int:
        """Number of elements of the list stored at ``path`` (0 when absent)."""
        found = _BY_TEXT.get(path) if type(path) is str else None
        found = found or _concrete(path)
        value = found.get(self._data, ())
        if value is None:
            return 0
        if not isinstance(value, list):
            raise MessageError(f"field {found.path} is not a list")
        return len(value)

    # -- iteration and export ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Deep copy of the underlying nested dictionary."""
        return _copy.deepcopy(self._data)

    def leaves(self) -> Iterator[tuple[FieldPath, Any]]:
        """Iterate over (path, value) pairs of every scalar leaf."""
        yield from self._walk(FieldPath(), self._data)

    def _walk(self, prefix: FieldPath, value: Any) -> Iterator[tuple[FieldPath, Any]]:
        if isinstance(value, dict):
            for key in value:
                yield from self._walk(prefix.child(key), value[key])
        elif isinstance(value, list):
            for index, item in enumerate(value):
                yield from self._walk(prefix.child(index), item)
        else:
            yield prefix, value

    # -- dunder protocol ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Message):
            return self._data == other._data
        if isinstance(other, dict):
            return self._data == other
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - messages are mutable
        raise TypeError("Message objects are mutable and unhashable")

    def __repr__(self) -> str:
        return f"Message({self._data!r})"
