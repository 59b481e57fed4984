"""Frozen snapshot of the seed revision's wire runtime (commit 672a0c1).

This module vendors the pre-plan ``Serializer`` and ``Parser`` verbatim (only
the relative imports are rewritten to absolute ones), with the piece model
(``Chunk``, ``LengthSlot``, ``PieceList``) that serializer assembles, so
that the throughput suite can measure the plan-backed runtime against the
*actual* seed execution model — per-call graph scans, generic codec-chain
interpretation, per-optional ``graph.find`` lookups — reproducibly, on every
machine, without checking out the seed commit.  Do not modernize this file:
its value is that it does not change.
"""

from __future__ import annotations

from repro.core.boundary import BoundaryKind
from repro.core.errors import ParseError
from repro.core.fieldpath import FieldPath
from repro.core.graph import FormatGraph, static_size
from repro.core.message import Message
from repro.core.node import Node, NodeType
from repro.core.values import Value, decode_value, invert_chain
from repro.wire.window import Window


class _LegacyParseContext:
    """Mutable state shared by one parsing run."""

    __slots__ = ("message", "raw_values", "index_stack")

    def __init__(self) -> None:
        self.message = Message()
        #: decoded value of every terminal, keyed by node name; used to resolve
        #: LENGTH/COUNTER boundaries and Optional presence conditions.  Within a
        #: repetition element the latest value is always the one belonging to the
        #: current element because references never cross element boundaries.
        self.raw_values: dict[str, Value] = {}
        self.index_stack: list[int] = []

    def resolve(self, path: FieldPath) -> FieldPath:
        """Bind the unbound repetition indices of ``path`` to the current stack."""
        return path.resolve(self.index_stack)

    def ref_value(self, ref: str, *, node: str) -> int:
        """Integer value of a previously parsed length/counter terminal."""
        if ref not in self.raw_values:
            raise ParseError(
                f"reference {ref!r} has not been parsed yet", node=node
            )
        value = self.raw_values[ref]
        if not isinstance(value, int):
            raise ParseError(f"reference {ref!r} is not an integer", node=node)
        return value


class LegacyParser:
    """Parses (obfuscated) wire messages back into logical messages."""

    def __init__(self, graph: FormatGraph):
        self.graph = graph
        self._ref_targets = {
            node.boundary.ref
            for node in graph.nodes()
            if node.boundary.kind in (BoundaryKind.LENGTH, BoundaryKind.COUNTER)
            and node.boundary.ref is not None
        }

    # -- public API -----------------------------------------------------------

    def parse(self, data: bytes, *, strict: bool = True) -> Message:
        """Parse ``data`` into the logical message it encodes.

        With ``strict=True`` (the default) trailing unconsumed bytes raise a
        :class:`ParseError`.
        """
        window = Window(bytes(data))
        context = _LegacyParseContext()
        self._parse_node(self.graph.root, window, context)
        if strict and not window.at_end():
            raise ParseError(
                f"{window.remaining()} trailing byte(s) after the message",
                offset=window.cursor,
            )
        return context.message

    # -- node dispatch --------------------------------------------------------

    def _parse_node(self, node: Node, win: Window, ctx: _LegacyParseContext,
                    *, prebounded: bool = False) -> None:
        if node.mirrored and not prebounded:
            region = self._extract_region(node, win, ctx)
            self._parse_node(node, Window(region[::-1]), ctx, prebounded=True)
            return
        if node.type is NodeType.TERMINAL:
            value = self._parse_terminal(node, win, ctx, prebounded=prebounded)
            self._store_terminal(node, value, ctx)
            return
        inner, strict = self._composite_window(node, win, ctx, prebounded)
        if node.type is NodeType.SEQUENCE:
            self._parse_sequence(node, inner, ctx)
        elif node.type is NodeType.OPTIONAL:
            self._parse_optional(node, inner, ctx)
        elif node.type in (NodeType.REPETITION, NodeType.TABULAR):
            self._parse_repetition(node, inner, ctx, prebounded=prebounded)
        else:  # pragma: no cover - exhaustive enum
            raise ParseError(f"unknown node type {node.type!r}", node=node.name)
        if strict and not inner.at_end():
            raise ParseError(
                f"{inner.remaining()} byte(s) left inside bounded node",
                node=node.name,
                offset=inner.cursor,
            )

    def _composite_window(self, node: Node, win: Window, ctx: _LegacyParseContext,
                          prebounded: bool) -> tuple[Window, bool]:
        """Create the byte window of a composite node and tell whether it is strict."""
        if prebounded:
            return win, True
        if node.boundary.kind is BoundaryKind.LENGTH:
            length = ctx.ref_value(node.boundary.ref, node=node.name)  # type: ignore[arg-type]
            return win.subwindow(length), True
        return win, False

    # -- terminals ------------------------------------------------------------

    def _parse_terminal(self, node: Node, win: Window, ctx: _LegacyParseContext,
                        *, prebounded: bool = False) -> Value | None:
        raw = self._terminal_bytes(node, win, ctx, prebounded)
        if node.is_pad:
            return None
        assert node.value_kind is not None
        decoded = decode_value(raw, node.value_kind, endian=node.endian)
        return invert_chain(decoded, node.value_kind, node.codec_chain)

    def _terminal_bytes(self, node: Node, win: Window, ctx: _LegacyParseContext,
                        prebounded: bool) -> bytes:
        if prebounded:
            return win.read_rest()
        kind = node.boundary.kind
        try:
            if kind is BoundaryKind.FIXED:
                return win.read(node.boundary.size or 0)
            if kind is BoundaryKind.DELIMITED:
                return win.read_until(node.boundary.delimiter or b"")
            if kind is BoundaryKind.LENGTH:
                length = ctx.ref_value(node.boundary.ref, node=node.name)  # type: ignore[arg-type]
                return win.read(length)
            return win.read_rest()
        except ParseError as exc:
            raise ParseError(str(exc), node=node.name, offset=win.cursor) from exc

    def _store_terminal(self, node: Node, value: Value | None, ctx: _LegacyParseContext) -> None:
        if node.is_pad or value is None:
            return
        ctx.raw_values[node.name] = value
        if node.origin is not None:
            ctx.message.set(ctx.resolve(node.origin), value)

    # -- region extraction for mirrored nodes ----------------------------------

    def _extract_region(self, node: Node, win: Window, ctx: _LegacyParseContext) -> bytes:
        kind = node.boundary.kind
        if kind is BoundaryKind.FIXED:
            return win.read(node.boundary.size or 0)
        if kind is BoundaryKind.LENGTH:
            return win.read(ctx.ref_value(node.boundary.ref, node=node.name))  # type: ignore[arg-type]
        if kind is BoundaryKind.END:
            return win.read_rest()
        size = static_size(node)
        if size is None:
            raise ParseError(
                "mirrored node has no parse-time determinable extent", node=node.name
            )
        return win.read(size)

    # -- composites -----------------------------------------------------------

    def _parse_sequence(self, node: Node, win: Window, ctx: _LegacyParseContext) -> None:
        if node.synthesis is not None:
            self._parse_synthesis(node, win, ctx)
            return
        for child in node.children:
            self._parse_node(child, win, ctx)

    def _parse_synthesis(self, node: Node, win: Window, ctx: _LegacyParseContext) -> None:
        shares: list[Value] = []
        for child in node.children:
            if child.name in self._ref_targets:
                # Derived length prefix created by SplitCat on a variable-size
                # terminal: parsed as a regular terminal to feed later lookups.
                self._parse_node(child, win, ctx)
                continue
            shares.append(self._parse_split_child(child, win, ctx))
        if len(shares) != 2:
            raise ParseError(
                f"synthesis node {node.name!r} expected two value children, "
                f"found {len(shares)}"
            )
        combined = node.synthesis.combine(shares[0], shares[1])  # type: ignore[union-attr]
        if node.origin is None:
            raise ParseError(f"synthesis node {node.name!r} has no logical origin")
        ctx.message.set(ctx.resolve(node.origin), combined)

    def _parse_split_child(self, child: Node, win: Window, ctx: _LegacyParseContext) -> Value:
        if child.mirrored:
            region = self._extract_region(child, win, ctx)
            value = self._parse_terminal(child, Window(region[::-1]), ctx, prebounded=True)
        else:
            value = self._parse_terminal(child, win, ctx)
        if value is None:  # pragma: no cover - split children are never pads
            raise ParseError(f"split child {child.name!r} produced no value")
        ctx.raw_values[child.name] = value
        return value

    def _parse_optional(self, node: Node, win: Window, ctx: _LegacyParseContext) -> None:
        if not self._optional_present(node, win, ctx):
            return
        self._parse_node(node.children[0], win, ctx)

    def _optional_present(self, node: Node, win: Window, ctx: _LegacyParseContext) -> bool:
        if node.presence_ref is not None:
            if node.presence_ref not in ctx.raw_values:
                raise ParseError(
                    f"presence reference {node.presence_ref!r} has not been parsed yet",
                    node=node.name,
                )
            return ctx.raw_values[node.presence_ref] == node.presence_value
        return not win.at_end()

    def _parse_repetition(self, node: Node, win: Window, ctx: _LegacyParseContext,
                          *, prebounded: bool = False) -> None:
        if node.origin is None:
            raise ParseError(f"repeated node {node.name!r} has no logical origin")
        list_path = ctx.resolve(node.origin)
        if not ctx.message.has(list_path):
            ctx.message.set(list_path, [])
        child = node.children[0]
        kind = node.boundary.kind

        def parse_element(index: int) -> None:
            ctx.index_stack.append(index)
            try:
                self._parse_node(child, win, ctx)
            finally:
                ctx.index_stack.pop()

        if kind is BoundaryKind.COUNTER:
            count = ctx.ref_value(node.boundary.ref, node=node.name)  # type: ignore[arg-type]
            for index in range(count):
                parse_element(index)
            return
        if kind is BoundaryKind.LENGTH and not prebounded:
            # The enclosing window was already restricted by _composite_window.
            pass
        if kind is BoundaryKind.DELIMITED:
            terminator = node.boundary.delimiter or b""
            index = 0
            while not win.at_end() and not win.starts_with(terminator):
                parse_element(index)
                index += 1
            if win.starts_with(terminator):
                win.skip(len(terminator))
            return
        # LENGTH / END / prebounded: consume the window.
        index = 0
        while not win.at_end():
            parse_element(index)
            index += 1




from random import Random

from repro.core.errors import SerializationError
from repro.core.graph import FormatGraph
from repro.core.values import ValueKind, apply_chain, encode_uint, encode_value
from repro.wire.spans import FieldSpan


# -- the piece model the serializer below assembles ---------------------------
# Vendored verbatim from src/repro/wire/pieces.py as it last shipped (commit
# 7275b20; only the relative imports are rewritten).  The serializer below
# imported the runtime's piece model until the runtime stopped building
# pieces, so this is the model the throughput suite's baseline last timed.

from dataclasses import dataclass, field

from repro.core.errors import SerializationError
from repro.core.fieldpath import FieldPath
from repro.core.values import Endian, ValueKind, ValueOp, apply_chain, encode_uint

_UINT = ValueKind.UINT  # bound once: enum attribute lookups are slow on 3.10/3.11


class Chunk:
    """A literal run of bytes, optionally labelled with the terminal that produced it.

    A plain ``__slots__`` class rather than a dataclass: chunks are allocated
    once per emitted field per message, making construction cost part of the
    serialization hot path.
    """

    __slots__ = ("data", "node", "origin")

    def __init__(self, data: bytes, node: str | None = None,
                 origin: FieldPath | None = None):
        self.data = data
        self.node = node
        self.origin = origin

    def byte_length(self) -> int:
        return len(self.data)

    def mirrored(self) -> "Chunk":
        """Byte-reversed copy (labels are preserved: the extent is unchanged)."""
        return Chunk(self.data[::-1], node=self.node, origin=self.origin)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Chunk):
            return (self.data, self.node, self.origin) == (
                other.data, other.node, other.origin
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"Chunk(data={self.data!r}, node={self.node!r}, origin={self.origin!r})"


@dataclass
class LengthSlot:
    """A fixed-width placeholder for a derived length field.

    ``target`` is the name of the node whose serialized byte length must be
    written here once known; ``context`` is the repetition index stack active
    when the slot was emitted, so that a length field inside a repeated
    element refers to the element instance it belongs to.  ``codec_chain`` and
    ``mirrored`` reproduce the obfuscations applied to the length terminal
    itself.
    """

    node: str
    target: str
    width: int
    endian: Endian = Endian.BIG
    codec_chain: tuple[ValueOp, ...] = ()
    mirrored: bool = False
    origin: FieldPath | None = None
    context: tuple[int, ...] = ()

    def byte_length(self) -> int:
        return self.width

    def mirror_toggled(self) -> "LengthSlot":
        """Copy with the mirroring flag flipped (mirroring twice cancels out)."""
        return LengthSlot(
            node=self.node,
            target=self.target,
            width=self.width,
            endian=self.endian,
            codec_chain=self.codec_chain,
            mirrored=not self.mirrored,
            origin=self.origin,
            context=self.context,
        )

    def resolve(self, length: int) -> bytes:
        """Encode the measured ``length`` of the target region."""
        value = apply_chain(length, _UINT, self.codec_chain)
        if not isinstance(value, int):  # pragma: no cover - chains keep ints
            raise SerializationError("length field codec chain produced a non-integer")
        data = encode_uint(value % (1 << (8 * self.width)), self.width, self.endian)
        return data[::-1] if self.mirrored else data


Piece = Chunk | LengthSlot


@dataclass
class PieceList:
    """An ordered list of pieces with helpers for measurement and mirroring.

    The total byte length is maintained incrementally as pieces are appended:
    every composite node records its region length after serializing, so a
    re-summing :meth:`byte_length` would be quadratic in the piece count.
    """

    pieces: list[Piece] = field(default_factory=list)
    _length: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.pieces:
            self._length = sum(piece.byte_length() for piece in self.pieces)

    # -- construction ---------------------------------------------------------

    def add_bytes(self, data: bytes, *, node: str | None = None,
                  origin: FieldPath | None = None) -> None:
        """Append a literal chunk (empty chunks are dropped)."""
        if data:
            self.pieces.append(Chunk(bytes(data), node=node, origin=origin))
            self._length += len(data)

    def add_slot(self, slot: LengthSlot) -> None:
        """Append a length slot."""
        self.pieces.append(slot)
        self._length += slot.width

    def extend(self, other: "PieceList") -> None:
        """Append every piece of ``other``."""
        self.pieces.extend(other.pieces)
        self._length += other._length

    # -- measurement ----------------------------------------------------------

    def byte_length(self) -> int:
        """Total serialized length (slots count for their fixed width)."""
        return self._length

    # -- transformations ------------------------------------------------------

    def mirrored(self) -> "PieceList":
        """Piece list whose assembled bytes are the byte-reversal of this one."""
        reversed_pieces: list[Piece] = []
        for piece in reversed(self.pieces):
            if isinstance(piece, Chunk):
                reversed_pieces.append(piece.mirrored())
            else:
                reversed_pieces.append(piece.mirror_toggled())
        return PieceList(reversed_pieces)

    def mirror_from(self, index: int) -> None:
        """Mirror the pieces appended since ``index`` in place (ReadFromEnd).

        Equivalent to replacing ``pieces[index:]`` with its :meth:`mirrored`
        counterpart; used by the serializer to mirror one node's region inside
        the shared accumulator.  The pieces are mutated directly — the
        serializer owns every piece it appends, they are never shared — so no
        intermediate piece list or piece copies are built.  The total byte
        length is unchanged.
        """
        tail = self.pieces[index:]
        tail.reverse()
        for piece in tail:
            if isinstance(piece, Chunk):
                piece.data = piece.data[::-1]
            else:
                piece.mirrored = not piece.mirrored
        self.pieces[index:] = tail

    # -- assembly -------------------------------------------------------------

    def assemble(self, region_lengths: dict[tuple[str, tuple[int, ...]], int],
                 *, with_spans: bool = True
                 ) -> tuple[bytes, list[tuple[str | None, FieldPath | None, int, int]]]:
        """Resolve slots and concatenate all pieces.

        ``region_lengths`` maps ``(node name, repetition index context)`` to
        the measured serialized length of that node instance.  Returns the
        final byte string and the list of labelled spans
        ``(node, origin, start, end)`` for pieces that carry a node label
        (empty when ``with_spans`` is False — the plain ``serialize()`` path
        does not pay for span bookkeeping it discards).

        The output buffer is preallocated from the incrementally maintained
        total length instead of grown chunk by chunk.
        """
        if not with_spans:
            return b"".join(
                piece.data if type(piece) is Chunk
                else piece.resolve(region_lengths.get((piece.target, piece.context), 0))
                for piece in self.pieces
            ), []
        output = bytearray(self._length)
        spans: list[tuple[str | None, FieldPath | None, int, int]] = []
        position = 0
        for piece in self.pieces:
            if isinstance(piece, Chunk):
                data = piece.data
            else:
                length = region_lengths.get((piece.target, piece.context), 0)
                data = piece.resolve(length)
            end = position + len(data)
            output[position:end] = data
            if piece.node is not None:
                spans.append((piece.node, piece.origin, position, end))
            position = end
        if position != len(output):
            del output[position:]
        return bytes(output), spans


class _LegacySerializeContext:
    """Mutable state shared by one serialization run."""

    __slots__ = (
        "message",
        "rng",
        "index_stack",
        "region_lengths",
        "length_sources",
        "counter_sources",
    )

    def __init__(self, graph: FormatGraph, message: Message, rng: Random):
        self.message = message
        self.rng = rng
        self.index_stack: list[int] = []
        #: serialized byte length of every node instance, keyed by
        #: (node name, repetition index context)
        self.region_lengths: dict[tuple[str, tuple[int, ...]], int] = {}
        #: length-field name -> node whose length it carries
        self.length_sources: dict[str, Node] = {}
        #: counter-field name -> node whose element count it carries
        self.counter_sources: dict[str, Node] = {}
        for node in graph.nodes():
            if node.boundary.kind is BoundaryKind.LENGTH:
                self.length_sources[node.boundary.ref] = node  # type: ignore[index]
            elif node.boundary.kind is BoundaryKind.COUNTER:
                self.counter_sources.setdefault(node.boundary.ref, node)  # type: ignore[arg-type]

    def resolve(self, path: FieldPath) -> FieldPath:
        """Bind the unbound repetition indices of ``path`` to the current stack."""
        return path.resolve(self.index_stack)

    def context_key(self) -> tuple[int, ...]:
        """Current repetition index context, used to key per-instance lengths."""
        return tuple(self.index_stack)


class LegacySerializer:
    """Serializes logical messages against a message format graph."""

    def __init__(self, graph: FormatGraph, *, rng: Random | None = None):
        self.graph = graph
        self._rng = rng if rng is not None else Random(0)

    # -- public API -----------------------------------------------------------

    def serialize(self, message: Message | dict) -> bytes:
        """Serialize ``message`` into its (obfuscated) wire representation."""
        data, _ = self.serialize_with_spans(message)
        return data

    def serialize_with_spans(self, message: Message | dict) -> tuple[bytes, list[FieldSpan]]:
        """Serialize and also return the byte extents of every emitted wire field."""
        logical = message if isinstance(message, Message) else Message.from_dict(message)
        context = _LegacySerializeContext(self.graph, logical, self._rng)
        pieces = self._serialize_node(self.graph.root, context)
        data, raw_spans = pieces.assemble(context.region_lengths)
        spans = [
            FieldSpan(node=node, origin=origin, start=start, end=end)
            for node, origin, start, end in raw_spans
            if node is not None
        ]
        return data, spans

    # -- node dispatch --------------------------------------------------------

    def _serialize_node(self, node: Node, ctx: _LegacySerializeContext) -> PieceList:
        if node.type is NodeType.TERMINAL:
            pieces = self._serialize_terminal(node, ctx)
        elif node.type is NodeType.SEQUENCE:
            pieces = self._serialize_sequence(node, ctx)
        elif node.type is NodeType.OPTIONAL:
            pieces = self._serialize_optional(node, ctx)
        elif node.type in (NodeType.REPETITION, NodeType.TABULAR):
            pieces = self._serialize_repetition(node, ctx)
        else:  # pragma: no cover - exhaustive enum
            raise SerializationError(f"unknown node type {node.type!r}")
        if node.mirrored:
            pieces = pieces.mirrored()
        ctx.region_lengths[(node.name, ctx.context_key())] = pieces.byte_length()
        return pieces

    # -- terminals ------------------------------------------------------------

    def _serialize_terminal(self, node: Node, ctx: _LegacySerializeContext,
                            value_override: object = None) -> PieceList:
        pieces = PieceList()
        if node.is_pad:
            size = node.boundary.size or 0
            pieces.add_bytes(bytes(ctx.rng.randrange(256) for _ in range(size)),
                             node=node.name, origin=None)
            return pieces
        if node.name in ctx.length_sources and value_override is None:
            pieces.add_slot(
                LengthSlot(
                    node=node.name,
                    target=ctx.length_sources[node.name].name,
                    width=node.boundary.size or 0,
                    endian=node.endian,
                    codec_chain=node.codec_chain,
                    mirrored=False,
                    origin=node.origin,
                    context=ctx.context_key(),
                )
            )
            return pieces
        if node.name in ctx.counter_sources and value_override is None:
            count = self._counter_value(node, ctx)
            encoded = self._encode_terminal_value(node, count)
            pieces.add_bytes(encoded, node=node.name, origin=node.origin)
            self._append_delimiter(node, pieces)
            return pieces
        value = value_override
        if value is None:
            value = self._logical_value(node, ctx)
        encoded = self._encode_terminal_value(node, value)
        pieces.add_bytes(encoded, node=node.name, origin=node.origin)
        self._append_delimiter(node, pieces)
        return pieces

    def _logical_value(self, node: Node, ctx: _LegacySerializeContext) -> object:
        if node.origin is None:
            raise SerializationError(
                f"terminal {node.name!r} carries no logical origin and no derived value"
            )
        value = ctx.message.get(ctx.resolve(node.origin))
        if value is None:
            raise SerializationError(
                f"logical message is missing field {ctx.resolve(node.origin)} "
                f"(terminal {node.name!r})"
            )
        return value

    def _counter_value(self, node: Node, ctx: _LegacySerializeContext) -> int:
        source = ctx.counter_sources[node.name]
        if source.origin is None:
            raise SerializationError(
                f"counted node {source.name!r} carries no logical origin"
            )
        return ctx.message.list_length(ctx.resolve(source.origin))

    def _encode_terminal_value(self, node: Node, value: object) -> bytes:
        assert node.value_kind is not None
        obfuscated = apply_chain(value, node.value_kind, node.codec_chain)
        size = node.boundary.size if node.boundary.kind is BoundaryKind.FIXED else None
        try:
            encoded = encode_value(obfuscated, node.value_kind, size=size, endian=node.endian)
        except SerializationError as exc:
            raise SerializationError(f"terminal {node.name!r}: {exc}") from exc
        if node.boundary.kind is BoundaryKind.DELIMITED:
            delimiter = node.boundary.delimiter or b""
            if delimiter in encoded:
                raise SerializationError(
                    f"value of delimited terminal {node.name!r} contains its "
                    f"delimiter {delimiter!r}"
                )
        return encoded

    @staticmethod
    def _append_delimiter(node: Node, pieces: PieceList) -> None:
        if node.boundary.kind is BoundaryKind.DELIMITED:
            pieces.add_bytes(node.boundary.delimiter or b"")

    # -- composites -----------------------------------------------------------

    def _serialize_sequence(self, node: Node, ctx: _LegacySerializeContext) -> PieceList:
        if node.synthesis is not None:
            return self._serialize_synthesis(node, ctx)
        pieces = PieceList()
        for child in node.children:
            pieces.extend(self._serialize_node(child, ctx))
        return pieces

    def _serialize_synthesis(self, node: Node, ctx: _LegacySerializeContext) -> PieceList:
        if node.origin is None:
            raise SerializationError(f"synthesis node {node.name!r} has no logical origin")
        value = ctx.message.get(ctx.resolve(node.origin))
        if value is None:
            raise SerializationError(
                f"logical message is missing field {ctx.resolve(node.origin)} "
                f"(synthesis node {node.name!r})"
            )
        shares = list(node.synthesis.split(value, ctx.rng, split_at=node.split_at))
        pieces = PieceList()
        for child in node.children:
            if child.name in ctx.length_sources:
                # Derived length prefix created by SplitCat on a variable-size
                # terminal: emitted as a regular length slot.
                pieces.extend(self._serialize_node(child, ctx))
                continue
            if not shares:
                raise SerializationError(
                    f"synthesis node {node.name!r} has more value children than shares"
                )
            pieces.extend(self._serialize_split_child(child, shares.pop(0), ctx))
        if shares:
            raise SerializationError(
                f"synthesis node {node.name!r} has fewer value children than shares"
            )
        return pieces

    def _serialize_split_child(self, child: Node, value: object,
                               ctx: _LegacySerializeContext) -> PieceList:
        pieces = self._serialize_terminal(child, ctx, value_override=value)
        if child.mirrored:
            pieces = pieces.mirrored()
        ctx.region_lengths[(child.name, ctx.context_key())] = pieces.byte_length()
        return pieces

    def _serialize_optional(self, node: Node, ctx: _LegacySerializeContext) -> PieceList:
        if not self._optional_present(node, ctx):
            return PieceList()
        return self._serialize_node(node.children[0], ctx)

    def _optional_present(self, node: Node, ctx: _LegacySerializeContext) -> bool:
        if node.presence_ref is not None:
            reference = self.graph.find(node.presence_ref)
            if reference is not None and reference.origin is not None:
                value = ctx.message.get(ctx.resolve(reference.origin))
                return value == node.presence_value
        if node.origin is None:
            return False
        return ctx.message.get(ctx.resolve(node.origin)) is not None

    def _serialize_repetition(self, node: Node, ctx: _LegacySerializeContext) -> PieceList:
        if node.origin is None:
            raise SerializationError(f"repeated node {node.name!r} has no logical origin")
        count = ctx.message.list_length(ctx.resolve(node.origin))
        pieces = PieceList()
        child = node.children[0]
        for index in range(count):
            ctx.index_stack.append(index)
            try:
                pieces.extend(self._serialize_node(child, ctx))
            finally:
                ctx.index_stack.pop()
        if node.type is NodeType.REPETITION and node.boundary.kind is BoundaryKind.DELIMITED:
            pieces.add_bytes(node.boundary.delimiter or b"")
        return pieces


