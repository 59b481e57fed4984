"""Loading generated serialization libraries.

The generated source can be written to disk and imported like any module, or
compiled and executed in memory for the benchmarks.  :class:`GeneratedCodec`
wraps a loaded module behind the same ``serialize`` / ``parse`` interface as
:class:`repro.wire.WireCodec`, which lets the test suite check that the two
are byte-for-byte interchangeable; :class:`SpecializedCodec` is the same
wrapper over the specializing emitter's straight-line modules, which raise
the interpreted runtime's typed errors themselves.  It is the one wrapper of
a specialized module: live sessions serialize and decode through it too, and
its ``serialize_with_spans`` runs the interpreted serializer over the codec's
own RNG, so recording spans leaves the byte stream unchanged.  A session's
codec (:meth:`SpecializedCodec.tiering`) serves on the interpreted tier until
its module, compiled in the background, lands.
"""

from __future__ import annotations

import types
from pathlib import Path
from random import Random
from typing import Callable

from ..core.errors import CodegenError
from ..core.graph import FormatGraph
from ..core.message import Message
from ..wire.parser import Parser
from ..wire.serializer import Serializer
from ..wire.spans import FieldSpan
from .emitter import EMITTER_VERSION, generate_module

_MODULE_COUNTER = 0


def check_module_version(module: types.ModuleType) -> None:
    """Refuse a generated module emitted by a different emitter version.

    A stale module (e.g. an on-disk cache entry written by an older emitter)
    must be regenerated, never silently run: the emitted API and semantics are
    only guaranteed for the current :data:`EMITTER_VERSION`.
    """
    version = getattr(module, "__emitter_version__", None)
    if version != EMITTER_VERSION:
        raise CodegenError(
            f"generated module was emitted by emitter version {version!r}, "
            f"this runtime requires {EMITTER_VERSION!r}; regenerate it"
        )


def compile_source(source: str, filename: str) -> types.CodeType:
    """Compile generated source under ``filename``, a ``<generated:NAME>`` name."""
    try:
        return compile(source, filename, "exec")
    except SyntaxError as exc:  # pragma: no cover - emitter bugs only
        raise CodegenError(f"generated module does not compile: {exc}") from exc


def load_code(code: types.CodeType, *, require_version: bool = False) -> types.ModuleType:
    """Execute compiled generated code into a fresh module named after its file.

    A module *declaring* an emitter version other than the current one is
    always refused.  ``require_version=True`` additionally refuses modules
    carrying no version stamp at all (used for sources read back from disk,
    where an unstamped file is by definition stale).
    """
    module = types.ModuleType(
        code.co_filename.removeprefix("<generated:").removesuffix(">"))
    module.__dict__["__file__"] = code.co_filename
    exec(code, module.__dict__)
    if getattr(module, "__emitter_version__", None) is not None:
        check_module_version(module)
    elif require_version:
        raise CodegenError(
            "generated module carries no __emitter_version__ stamp; "
            f"this runtime requires {EMITTER_VERSION!r}; regenerate it"
        )
    return module


def load_source(source: str, *, require_version: bool = False) -> types.ModuleType:
    """Compile and execute generated source code, returning the module object
    (version checks as in :func:`load_code`)."""
    global _MODULE_COUNTER
    _MODULE_COUNTER += 1
    code = compile_source(source, f"<generated:repro_generated_{_MODULE_COUNTER}>")
    return load_code(code, require_version=require_version)


def write_module(source: str, path: str | Path) -> Path:
    """Write generated source code to ``path`` and return it."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return target


class GeneratedCodec:
    """A loaded generated library exposed behind the WireCodec interface."""

    def __init__(self, graph: FormatGraph, *, seed: int | None = None,
                 source: str | None = None,
                 module: types.ModuleType | None = None):
        self.graph = graph
        if module is None:
            source = source if source is not None else generate_module(graph)
            module = load_source(source)
        self.source = source
        self.module = module
        self._rng = Random(seed if seed is not None else 0)

    def serialize(self, message: Message | dict) -> bytes:
        """Serialize a logical message with the generated library.

        The module reads the message's own dict (no copy): generated modules
        never mutate their input.
        """
        logical = message.raw if isinstance(message, Message) else message
        return self.module.serialize(logical, rng=self._rng)

    def serialize_with_spans(self, message: Message | dict
                             ) -> tuple[bytes, list[FieldSpan]]:
        """Serialize and return the field spans, through the interpreted tier.

        The modules record no spans; the interpreted serializer draws from
        this codec's RNG exactly as the module does, so the bytes are the same.
        """
        return Serializer(self.graph, rng=self._rng).serialize_with_spans(message)

    def parse(self, data: bytes, *, strict: bool = True) -> Message:
        """Parse wire bytes with the generated library."""
        return Message(self.module.parse(data, strict=strict))

    def parse_ast(self, data: bytes) -> object:
        """Parse wire bytes into the generated AST struct classes."""
        return self.module.parse_ast(data)

    def round_trips(self, message: Message | dict) -> bool:
        """True when serialize→parse reproduces the logical message exactly."""
        logical = message if isinstance(message, Message) else Message.from_dict(message)
        return self.parse(self.serialize(logical)) == logical


class SpecializedCodec(GeneratedCodec):
    """A loaded *specialized* module behind the WireCodec interface.

    Specialized modules raise the interpreted runtime's typed errors with the
    same text, offset and node identity, so callers observe identical
    behavior on malformed input.  They have no AST struct classes, so
    :meth:`parse_ast` is unavailable.

    A :meth:`tiering` codec may not hold its module yet.
    """

    def __init__(self, graph: FormatGraph, *, seed: int | None = None,
                 source: str | None = None,
                 module: types.ModuleType | None = None):
        if module is None and source is None:
            source = generate_module(graph, specialize=True)
        super().__init__(graph, seed=seed, source=source, module=module)

    @classmethod
    def tiering(cls, graph: FormatGraph, poll: Callable[[], types.ModuleType | None],
                *, seed: int | None = None) -> SpecializedCodec:
        """A codec of ``graph`` whose module ``poll()`` returns once compiled.

        Until then it serializes and parses on the interpreted tier, drawing
        from its own RNG as the module does, and it switches to the module in
        place on the first call after ``poll()`` returns it.  Every tier gives
        the same bytes, structure, spans and typed errors.
        """
        module = poll()
        if module is not None:
            return cls(graph, seed=seed, module=module)
        codec = cls.__new__(cls)
        codec.graph, codec.source, codec.module = graph, None, None
        codec._rng = Random(seed if seed is not None else 0)
        codec._poll = poll  # set only while the codec waits for its module
        codec._serializer = Serializer(graph, rng=codec._rng)
        codec._parser = Parser(graph)
        return codec

    def _tier_up(self) -> bool:
        """Take the module if it has landed, dropping the interpreted tier."""
        module = self._poll()
        if module is None:
            return False
        self.module = module
        self._poll = self._serializer = self._parser = None
        return True

    def serialize(self, message: Message | dict) -> bytes:
        if self.module is None and not self._tier_up():
            return self._serializer.serialize(message)
        logical = message.raw if isinstance(message, Message) else message
        return self.module.serialize(logical, rng=self._rng)

    def parse(self, data: bytes, *, strict: bool = True) -> Message:
        if self.module is None and not self._tier_up():
            return self._parser.parse(data, strict=strict)
        return Message(self.module.parse(data, strict=strict))
