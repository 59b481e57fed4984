"""Logical field paths.

A :class:`FieldPath` identifies a field of the *logical* message model, i.e.
the message as the core application sees it, independently of any obfuscating
transformation.  A path is a sequence of steps:

* a ``str`` step selects a member of a dictionary (a Sequence child),
* an ``int`` step selects an element of a list (a Repetition/Tabular element),
* the :data:`INDEX` sentinel is an *unbound* list index.  It is used in the
  ``origin`` attribute of graph nodes that live under a Repetition or Tabular
  node; the wire runtime binds it to the concrete element index while walking
  the repetition.

Examples
--------
``FieldPath.parse("header.transaction_id")`` → ``('header', 'transaction_id')``

``FieldPath.parse("headers[*].name")`` → ``('headers', INDEX, 'name')``

``FieldPath.parse("registers[2]")`` → ``('registers', 2)``

Outside the emitted code, every walk of a path through a message's nested
dicts and lists goes through one compiled :class:`Accessor` per path
(:func:`accessor`): ``Message``'s field access and the codec plans' origin
accessors share it.  The specialized modules walk their paths inline, with
the same reads, writes and errors.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Callable, Iterable, Iterator, Sequence, Union

from .errors import MessageError


class _Index:
    """Singleton sentinel representing an unbound repetition index."""

    _instance: "_Index | None" = None

    def __new__(cls) -> "_Index":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "*"

    def __deepcopy__(self, memo: dict) -> "_Index":
        return self

    def __copy__(self) -> "_Index":
        return self


#: Unbound repetition index marker used inside :class:`FieldPath` steps.
INDEX = _Index()

Step = Union[str, int, _Index]

_STEP_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)((?:\[(?:\d+|\*)\])*)")
_BRACKET_RE = re.compile(r"\[(\d+|\*)\]")

#: Capacity of the parse and accessor caches.  Applications build paths from
#: a fixed vocabulary (a few hundred texts per protocol set), so the oldest
#: entry is simply evicted once a cache is full.
_CACHE_CAPACITY = 1024

#: Parsed paths keyed by their text (paths are immutable, hence shareable).
_PARSED: "dict[str, FieldPath]" = {}

#: Serializes cache inserts; lookups are plain dict reads and take no lock.
_CACHE_LOCK = threading.Lock()


def _remember(cache: dict, key: Any, value: Any) -> None:
    """Insert into a bounded cache, evicting its oldest entry when full."""
    with _CACHE_LOCK:
        if len(cache) >= _CACHE_CAPACITY:
            del cache[next(iter(cache))]
        cache[key] = value


class FieldPath:
    """An immutable, hashable sequence of logical field path steps."""

    __slots__ = ("_steps", "_has_index")

    def __init__(self, steps: Iterable[Step] = ()):
        checked: list[Step] = []
        for step in steps:
            if isinstance(step, (str, int)) or step is INDEX:
                checked.append(step)
            else:
                raise MessageError(f"invalid field path step: {step!r}")
        self._steps = tuple(checked)
        self._has_index = any(step is INDEX for step in checked)

    # -- construction -------------------------------------------------------

    @classmethod
    def _trusted(cls, steps: tuple[Step, ...], has_index: bool) -> "FieldPath":
        """Internal constructor for steps that are already validated.

        Path binding runs once per terminal per message on the wire hot path;
        skipping re-validation there is a measurable win.
        """
        path = object.__new__(cls)
        path._steps = steps
        path._has_index = has_index
        return path

    @classmethod
    def parse(cls, text: str) -> "FieldPath":
        """Parse a dotted path such as ``"headers[*].name"``.

        Parses are memoized per text: a repeated text returns the same path.
        """
        path = _PARSED.get(text)
        if path is not None:
            return path
        steps: list[Step] = []
        for part in text.split(".") if text else ():
            match = _STEP_RE.fullmatch(part)
            if match is None:
                raise MessageError(f"invalid field path segment: {part!r} in {text!r}")
            steps.append(match.group(1))
            for bracket in _BRACKET_RE.findall(match.group(2)):
                steps.append(INDEX if bracket == "*" else int(bracket))
        path = cls(steps)
        _remember(_PARSED, text, path)
        return path

    @classmethod
    def of(cls, value: "FieldPath | str | Iterable[Step]") -> "FieldPath":
        """Coerce strings, step iterables or paths into a :class:`FieldPath`."""
        if isinstance(value, FieldPath):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        return cls(value)

    # -- combinators --------------------------------------------------------

    def child(self, step: Step) -> "FieldPath":
        """Return a new path extended with one step."""
        return FieldPath(self._steps + (step,))

    def extend(self, steps: Iterable[Step]) -> "FieldPath":
        """Return a new path extended with several steps."""
        return FieldPath(self._steps + tuple(steps))

    def parent(self) -> "FieldPath":
        """Return the path without its final step."""
        if not self._steps:
            raise MessageError("the empty path has no parent")
        return FieldPath(self._steps[:-1])

    def resolve(self, indices: Sequence[int]) -> "FieldPath":
        """Replace unbound :data:`INDEX` markers with concrete indices.

        Markers are replaced left to right with the values of ``indices``;
        the number of markers must not exceed ``len(indices)``.  Extra
        indices (from deeper nesting than this path uses) are ignored.
        Concrete paths are returned unchanged (paths are immutable).
        """
        if not self._has_index:
            return self
        return FieldPath._trusted(_bind(self, indices), False)

    def startswith(self, prefix: "FieldPath") -> bool:
        """True when ``prefix`` is a (non-strict) prefix of this path."""
        return self._steps[: len(prefix._steps)] == prefix._steps

    # -- inspection ---------------------------------------------------------

    @property
    def steps(self) -> tuple[Step, ...]:
        return self._steps

    @property
    def is_concrete(self) -> bool:
        """True when the path contains no unbound :data:`INDEX` marker."""
        return not self._has_index

    def index_arity(self) -> int:
        """Number of unbound :data:`INDEX` markers in the path."""
        return sum(1 for step in self._steps if step is INDEX)

    def leaf_name(self) -> str | None:
        """Return the final string step, or ``None`` if the path ends on an index."""
        if self._steps and isinstance(self._steps[-1], str):
            return self._steps[-1]
        return None

    # -- dunder protocol ----------------------------------------------------

    def __iter__(self) -> Iterator[Step]:
        return iter(self._steps)

    def __len__(self) -> int:
        return len(self._steps)

    def __bool__(self) -> bool:
        return bool(self._steps)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldPath):
            return self._steps == other._steps
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._steps)

    def __repr__(self) -> str:
        return f"FieldPath({str(self)!r})"

    def __str__(self) -> str:
        out: list[str] = []
        for step in self._steps:
            if isinstance(step, str):
                if out:
                    out.append(".")
                out.append(step)
            elif step is INDEX:
                out.append("[*]")
            else:
                out.append(f"[{step}]")
        return "".join(out)


#: The empty path, i.e. the whole message.
ROOT_PATH = FieldPath(())


# ---------------------------------------------------------------------------
# compiled accessors
# ---------------------------------------------------------------------------
#
# The wire runtime reads or writes a field once per terminal per message, and
# applications do the same through Message.get/set.  An Accessor binds the
# path's steps once and reads the repetition indices straight off the live
# index sequence.  The common shapes (one key, two keys, ``list[i].key``, more
# keys) get dedicated closures; every other path takes the generic walk.

_ABSENT = object()


def _bind(path: FieldPath, indices: Sequence[int]) -> tuple:
    """The steps of ``path`` with its INDEX markers bound, left to right."""
    bound: list[Step] = []
    cursor = 0
    for step in path.steps:
        if step is INDEX:
            if cursor >= len(indices):
                raise _unbound(path, indices)
            step = indices[cursor]
            cursor += 1
        bound.append(step)
    return tuple(bound)


def _unbound(path: FieldPath, indices: Sequence[int]) -> MessageError:
    return MessageError(
        f"cannot resolve {path}: needs more than {len(indices)} bound indices"
    )


def _mismatch(kind: str, path: FieldPath, indices: Sequence[int],
              position: int) -> MessageError:
    """A set found no ``kind`` container after the first ``position`` steps."""
    return MessageError(f"expected a {kind} at {_bind(path, indices)[:position]!r}")


def _element_shape(steps: tuple) -> bool:
    """True for the ``list[i].key`` shape (``i`` bound or concrete)."""
    return (len(steps) == 3 and isinstance(steps[0], str)
            and not isinstance(steps[1], str) and isinstance(steps[2], str))


def _compile_get(path: FieldPath) -> Callable[..., Any]:
    steps = path.steps
    if len(steps) == 1 and isinstance(steps[0], str):
        key = steps[0]

        def get_flat(data: dict, indices: Sequence[int], default: Any = None) -> Any:
            return data.get(key, default)

        return get_flat

    if len(steps) == 2 and isinstance(steps[0], str) and isinstance(steps[1], str):
        first, second = steps

        def get_nested(data: dict, indices: Sequence[int], default: Any = None) -> Any:
            container = data.get(first)
            if not isinstance(container, dict):
                return default
            return container.get(second, default)

        return get_nested

    if _element_shape(steps):
        outer, position, inner = steps

        def get_element(data: dict, indices: Sequence[int], default: Any = None) -> Any:
            if position is INDEX:
                if not indices:
                    raise _unbound(path, indices)
                index = indices[0]
            else:
                index = position
            container = data.get(outer)
            if not isinstance(container, list) or not 0 <= index < len(container):
                return default
            entry = container[index]
            if not isinstance(entry, dict):
                return default
            return entry.get(inner, default)

        return get_element

    if steps and all(isinstance(step, str) for step in steps):
        heads, last = steps[:-1], steps[-1]

        def get_keys(data: dict, indices: Sequence[int], default: Any = None) -> Any:
            container: Any = data
            for key in heads:
                container = container.get(key)
                if not isinstance(container, dict):
                    return default
            return container.get(last, default)

        return get_keys

    def get(data: dict, indices: Sequence[int], default: Any = None) -> Any:
        container: Any = data
        cursor = 0
        for step in steps:
            if step is INDEX:
                if cursor >= len(indices):
                    raise _unbound(path, indices)
                step = indices[cursor]
                cursor += 1
            if isinstance(step, str):
                if not isinstance(container, dict) or step not in container:
                    return default
            elif not isinstance(container, list) or not 0 <= step < len(container):
                return default
            container = container[step]
        return container

    return get


def _compile_set(path: FieldPath) -> Callable[[dict, Sequence[int], Any], None]:
    steps = path.steps
    if len(steps) == 1 and isinstance(steps[0], str):
        key = steps[0]

        def set_flat(data: dict, indices: Sequence[int], value: Any) -> None:
            data[key] = value

        return set_flat

    if len(steps) == 2 and isinstance(steps[0], str) and isinstance(steps[1], str):
        first, second = steps

        def set_nested(data: dict, indices: Sequence[int], value: Any) -> None:
            container = data.get(first)
            if not isinstance(container, (dict, list)):
                container = {}
                data[first] = container
            if not isinstance(container, dict):
                raise _mismatch("dict", path, indices, 1)
            container[second] = value

        return set_nested

    if _element_shape(steps):
        outer, position, inner = steps

        def set_element(data: dict, indices: Sequence[int], value: Any) -> None:
            if position is INDEX:
                if not indices:
                    raise _unbound(path, indices)
                index = indices[0]
            else:
                index = position
            container = data.get(outer)
            if not isinstance(container, (dict, list)):
                container = []
                data[outer] = container
            if not isinstance(container, list):
                raise _mismatch("list", path, indices, 1)
            while len(container) <= index:
                container.append(None)
            entry = container[index]
            if not isinstance(entry, (dict, list)):
                entry = {}
                container[index] = entry
            if not isinstance(entry, dict):
                raise _mismatch("dict", path, indices, 2)
            entry[inner] = value

        return set_element

    if not steps:
        def set_root(data: dict, indices: Sequence[int], value: Any) -> None:
            raise MessageError("cannot assign the message root; use from_dict instead")

        return set_root

    if all(isinstance(step, str) for step in steps):
        heads, last = steps[:-1], steps[-1]

        def set_keys(data: dict, indices: Sequence[int], value: Any) -> None:
            container: Any = data
            for position, key in enumerate(heads, 1):
                existing = container.get(key)
                if not isinstance(existing, dict):
                    if isinstance(existing, list):
                        raise _mismatch("dict", path, indices, position)
                    existing = {}
                    container[key] = existing
                container = existing
            container[last] = value

        return set_keys

    arity = path.index_arity()
    # (step, whether the container it leads to is a list) per descent.
    descents = tuple(
        (step, isinstance(following, int) or following is INDEX)
        for step, following in zip(steps, steps[1:])
    )
    last = steps[-1]

    def set_(data: dict, indices: Sequence[int], value: Any) -> None:
        if len(indices) < arity:
            raise _unbound(path, indices)
        container: Any = data
        cursor = 0
        for position, (step, list_next) in enumerate(descents):
            if step is INDEX:
                step = indices[cursor]
                cursor += 1
            if isinstance(step, str):
                if not isinstance(container, dict):
                    raise _mismatch("dict", path, indices, position)
                existing = container.get(step)
            else:
                if not isinstance(container, list):
                    raise _mismatch("list", path, indices, position)
                while len(container) <= step:
                    container.append(None)
                existing = container[step]
            if not isinstance(existing, (dict, list)):
                existing = [] if list_next else {}
                container[step] = existing
            container = existing
        step = indices[cursor] if last is INDEX else last
        if isinstance(step, str):
            if not isinstance(container, dict):
                raise _mismatch("dict", path, indices, len(descents))
        else:
            if not isinstance(container, list):
                raise _mismatch("list", path, indices, len(descents))
            while len(container) <= step:
                container.append(None)
        container[step] = value

    return set_


class Accessor:
    """The compiled walkers of one logical path.

    ``indices`` binds the path's INDEX markers left to right: the leftmost
    marker takes the outermost repetition's index, as in
    :meth:`FieldPath.resolve`, and extra indices are ignored.

    * ``get(data, indices, default=None)``: the value at the bound path, or
      ``default`` when it is absent;
    * ``set(data, indices, value)``: store ``value``, creating intermediate
      dicts and ``None``-padded lists as needed;
    * ``init_list(data, indices)``: store ``[]`` unless a value is present.
    """

    __slots__ = ("path", "get", "set", "init_list")

    def __init__(self, path: FieldPath):
        get = _compile_get(path)
        set_ = _compile_set(path)

        def init_list(data: dict, indices: Sequence[int]) -> None:
            if get(data, indices, _ABSENT) is _ABSENT:
                set_(data, indices, [])

        self.path = path
        self.get = get
        self.set = set_
        self.init_list = init_list

    def __repr__(self) -> str:
        return f"Accessor({str(self.path)!r})"


_ACCESSORS: "dict[tuple[Step, ...], Accessor]" = {}


def accessor(path: "FieldPath | str | Iterable[Step]") -> Accessor:
    """The shared :class:`Accessor` of ``path``, compiled once per path."""
    path = FieldPath.of(path)
    found = _ACCESSORS.get(path._steps)
    if found is None:
        found = Accessor(path)
        _remember(_ACCESSORS, path._steps, found)
    return found
