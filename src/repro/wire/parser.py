"""The wire parser.

The parser walks the same (possibly obfuscated) message format graph as the
serializer and rebuilds the *logical* message from the obfuscated byte string,
undoing every transformation on the fly:

* codec chains are inverted after decoding each terminal value,
* Split* sequences recombine their two wire sub-values,
* ReadFromEnd regions are extracted, byte-reversed and re-parsed,
* padding terminals are read and discarded,
* derived length/counter fields are decoded and used to delimit the nodes that
  reference them but are not stored in the logical message.

The plan it runs against compiles only validated graphs, so the walk trusts the
graph's shape: every reference is parsed before it is read, every synthesis
node has two shares and every value has a logical origin to go to.
"""

from __future__ import annotations

from ..core.boundary import BoundaryKind
from ..core.errors import ParseError
from ..core.graph import FormatGraph
from ..core.message import Message
from ..core.node import Node, NodeType
from ..core.values import Value
from .plan import CodecPlan, plan_for
from .window import Window

# Enum members bound once: on CPython 3.10/3.11 ``EnumType.__getattr__`` makes
# every ``NodeType.TERMINAL`` in a per-node branch a slow attribute lookup.
_TERMINAL = NodeType.TERMINAL
_SEQUENCE = NodeType.SEQUENCE
_OPTIONAL = NodeType.OPTIONAL
_REPEATED = (NodeType.REPETITION, NodeType.TABULAR)
_FIXED = BoundaryKind.FIXED
_DELIMITED = BoundaryKind.DELIMITED
_LENGTH = BoundaryKind.LENGTH
_COUNTER = BoundaryKind.COUNTER
_END = BoundaryKind.END


class _ParseContext:
    """Mutable state shared by one parsing run."""

    __slots__ = ("message", "data", "raw_values", "index_stack")

    def __init__(self) -> None:
        #: the logical message under construction; ``data`` is its live
        #: underlying dictionary, navigated by the plan's compiled accessors.
        self.data: dict = {}
        self.message = Message(self.data)
        #: decoded value of every terminal, keyed by node name; used to resolve
        #: LENGTH/COUNTER boundaries and Optional presence conditions.  Within a
        #: repetition element the latest value is always the one belonging to the
        #: current element because references never cross element boundaries.
        #: Validation makes each referenced terminal a fixed-size uint parsed
        #: before any node that reads it.
        self.raw_values: dict[str, Value] = {}
        self.index_stack: list[int] = []


class Parser:
    """Parses (obfuscated) wire messages back into logical messages."""

    def __init__(self, graph: FormatGraph, *, plan: CodecPlan | None = None):
        self.graph = graph
        #: compiled execution plan; resolved through the shared plan cache so
        #: that repeated construction over the same graph does not re-walk it.
        self.plan = plan if plan is not None else plan_for(graph)
        self._ref_targets = self.plan.ref_targets

    # -- public API -----------------------------------------------------------

    def parse(self, data: bytes, *, strict: bool = True) -> Message:
        """Parse ``data`` into the logical message it encodes.

        With ``strict=True`` (the default) trailing unconsumed bytes raise a
        :class:`ParseError`.
        """
        window = Window(bytes(data))
        context = _ParseContext()
        self._parse_node(self.graph.root, window, context)
        if strict and not window.at_end():
            raise ParseError(
                f"{window.remaining()} trailing byte(s) after the message",
                offset=window.cursor,
            )
        return context.message

    # -- node dispatch --------------------------------------------------------

    def _parse_node(self, node: Node, win: Window, ctx: _ParseContext,
                    *, prebounded: bool = False) -> None:
        if node.mirrored and not prebounded:
            region = self._extract_region(node, win, ctx)
            self._parse_node(node, Window(region[::-1]), ctx, prebounded=True)
            return
        if node.type is _TERMINAL:
            value = self._parse_terminal(node, win, ctx, prebounded=prebounded)
            self._store_terminal(node, value, ctx)
            return
        inner, strict = self._composite_window(node, win, ctx, prebounded)
        if node.type is _SEQUENCE:
            self._parse_sequence(node, inner, ctx)
        elif node.type is _OPTIONAL:
            self._parse_optional(node, inner, ctx)
        elif node.type in _REPEATED:
            self._parse_repetition(node, inner, ctx)
        else:  # pragma: no cover - exhaustive enum
            raise ParseError(f"unknown node type {node.type!r}", node=node.name)
        if strict and not inner.at_end():
            raise ParseError(
                f"{inner.remaining()} byte(s) left inside bounded node",
                node=node.name,
                offset=inner.cursor,
            )

    def _composite_window(self, node: Node, win: Window, ctx: _ParseContext,
                          prebounded: bool) -> tuple[Window, bool]:
        """Create the byte window of a composite node and tell whether it is strict."""
        if prebounded:
            return win, True
        if node.boundary.kind is _LENGTH:
            return win.subwindow(ctx.raw_values[node.boundary.ref]), True  # type: ignore[arg-type,index]
        return win, False

    # -- terminals ------------------------------------------------------------

    def _parse_terminal(self, node: Node, win: Window, ctx: _ParseContext,
                        *, prebounded: bool = False) -> Value | None:
        raw = self._terminal_bytes(node, win, ctx, prebounded)
        if node.is_pad:
            return None
        return self.plan.terminals[node.name].decode(raw)

    def _terminal_bytes(self, node: Node, win: Window, ctx: _ParseContext,
                        prebounded: bool) -> bytes:
        if prebounded:
            return win.read_rest()
        kind = node.boundary.kind
        try:
            if kind is _FIXED:
                return win.read(node.boundary.size or 0)
            if kind is _DELIMITED:
                return win.read_until(node.boundary.delimiter or b"")
            if kind is _LENGTH:
                return win.read(ctx.raw_values[node.boundary.ref])  # type: ignore[arg-type,index]
            return win.read_rest()
        except ParseError as exc:
            raise ParseError(str(exc), node=node.name, offset=win.cursor) from exc

    def _store_terminal(self, node: Node, value: Value | None, ctx: _ParseContext) -> None:
        if node.is_pad or value is None:
            return
        ctx.raw_values[node.name] = value
        if node.origin is not None:
            self.plan.origin_set[node.name](ctx.data, ctx.index_stack, value)

    # -- region extraction for mirrored nodes ----------------------------------

    def _extract_region(self, node: Node, win: Window, ctx: _ParseContext) -> bytes:
        kind = node.boundary.kind
        if kind is _FIXED:
            return win.read(node.boundary.size or 0)
        if kind is _LENGTH:
            return win.read(ctx.raw_values[node.boundary.ref])  # type: ignore[arg-type,index]
        if kind is _END:
            return win.read_rest()
        # Validation gives every other mirrored node a static size.
        return win.read(self.plan.static_sizes[node.name])  # type: ignore[arg-type]

    # -- composites -----------------------------------------------------------

    def _parse_sequence(self, node: Node, win: Window, ctx: _ParseContext) -> None:
        if node.synthesis is not None:
            self._parse_synthesis(node, win, ctx)
            return
        for child in node.children:
            # Plain terminals skip the _parse_node dispatch: one call less on
            # the most common child shape.
            if child.type is _TERMINAL and not child.mirrored:
                self._store_terminal(child, self._parse_terminal(child, win, ctx), ctx)
            else:
                self._parse_node(child, win, ctx)

    def _parse_synthesis(self, node: Node, win: Window, ctx: _ParseContext) -> None:
        shares: list[Value] = []
        for child in node.children:
            if child.name in self._ref_targets:
                # Derived length prefix created by SplitCat on a variable-size
                # terminal: parsed as a regular terminal to feed later lookups.
                self._parse_node(child, win, ctx)
                continue
            shares.append(self._parse_split_child(child, win, ctx))
        combined = node.synthesis.combine(shares[0], shares[1])  # type: ignore[union-attr]
        self.plan.origin_set[node.name](ctx.data, ctx.index_stack, combined)

    def _parse_split_child(self, child: Node, win: Window, ctx: _ParseContext) -> Value:
        if child.mirrored:
            region = self._extract_region(child, win, ctx)
            value = self._parse_terminal(child, Window(region[::-1]), ctx, prebounded=True)
        else:
            value = self._parse_terminal(child, win, ctx)
        ctx.raw_values[child.name] = value
        return value

    def _parse_optional(self, node: Node, win: Window, ctx: _ParseContext) -> None:
        if not self._optional_present(node, win, ctx):
            return
        self._parse_node(node.children[0], win, ctx)

    def _optional_present(self, node: Node, win: Window, ctx: _ParseContext) -> bool:
        if node.presence_ref is not None:
            return ctx.raw_values[node.presence_ref] == node.presence_value
        return not win.at_end()

    def _parse_repetition(self, node: Node, win: Window, ctx: _ParseContext) -> None:
        self.plan.list_init[node.name](ctx.data, ctx.index_stack)
        child = node.children[0]
        kind = node.boundary.kind

        def parse_element(index: int) -> None:
            ctx.index_stack.append(index)
            try:
                self._parse_node(child, win, ctx)
            finally:
                ctx.index_stack.pop()

        if kind is _COUNTER:
            for index in range(ctx.raw_values[node.boundary.ref]):  # type: ignore[arg-type,index]
                parse_element(index)
            return
        if kind is _DELIMITED:
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


def parse(graph: FormatGraph, data: bytes, *, strict: bool = True) -> Message:
    """Module-level convenience wrapper around :class:`Parser`.

    Routed through the shared plan cache: the graph is compiled once and every
    subsequent call executes against the cached :class:`CodecPlan` instead of
    re-scanning ``graph.nodes()``.
    """
    return Parser(graph, plan=plan_for(graph)).parse(data, strict=strict)
