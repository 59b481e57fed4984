"""The wire serializer.

The serializer walks a (possibly obfuscated) message format graph depth-first
and builds the obfuscated byte string directly from the *logical* message, so
the non-obfuscated representation never exists as a contiguous buffer — this
is the Observation counter-measure of the paper (Section VI).

Transformations are executed on the fly during the traversal:

* aggregation transformations (ConstAdd/Sub/Xor) are applied through each
  terminal's codec chain,
* Split* nodes draw a random share and emit the two wire sub-values,
* ReadFromEnd mirrors the pieces of the affected subtree,
* PadInsert terminals draw random bytes,
* derived length fields are emitted as fixed-width slots and patched once the
  covered region has been measured (two-pass assembly).

The traversal executes against a compiled :class:`~repro.wire.plan.CodecPlan`
(length/counter source maps, fused codec callables, slot templates) and
appends into one shared :class:`PieceList` accumulator instead of merging a
piece list per node, which keeps the per-message cost linear in the number of
emitted pieces.  The plan compiles only validated graphs, so every value the
walk reads has a logical origin and every synthesis node two shares.
"""

from __future__ import annotations

from random import Random

from ..core.boundary import BoundaryKind
from ..core.errors import MessageError, SerializationError
from ..core.fieldpath import FieldPath
from ..core.graph import FormatGraph
from ..core.message import Message
from ..core.node import Node, NodeType
from ..core.values import draw_pad
from .pieces import LengthSlot, PieceList
from .plan import CodecPlan, plan_for
from .spans import FieldSpan

# Enum members bound once (see the note in :mod:`repro.wire.parser`).
_TERMINAL = NodeType.TERMINAL
_SEQUENCE = NodeType.SEQUENCE
_OPTIONAL = NodeType.OPTIONAL
_REPETITION = NodeType.REPETITION
_REPEATED = (NodeType.REPETITION, NodeType.TABULAR)
_DELIMITED = BoundaryKind.DELIMITED


class _SerializeContext:
    """Mutable state shared by one serialization run."""

    __slots__ = (
        "message",
        "data",
        "rng",
        "index_stack",
        "context",
        "region_lengths",
        "plan",
        "merge_delimiters",
    )

    def __init__(self, plan: CodecPlan, message: Message, rng: Random,
                 *, merge_delimiters: bool = False):
        self.message = message
        #: live underlying dictionary of the message, navigated by the plan's
        #: compiled accessors.
        self.data = message.raw
        #: when True (plain serialize(), no span reporting) a terminal's value
        #: and its delimiter are emitted as one chunk: the assembled bytes are
        #: identical — mirroring reverses the concatenation exactly like the
        #: two chunks in reverse order — but span extents would differ, so the
        #: span-reporting path keeps them separate.
        self.merge_delimiters = merge_delimiters
        self.rng = rng
        self.index_stack: list[int] = []
        #: tuple mirror of ``index_stack``, maintained on push/pop so that
        #: per-node region keys do not re-tuple the stack.
        self.context: tuple[int, ...] = ()
        #: serialized byte length of every node instance, keyed by
        #: (node name, repetition index context)
        self.region_lengths: dict[tuple[str, tuple[int, ...]], int] = {}
        #: compiled length-slot templates and counter source map of the graph;
        #: precomputed once per graph instead of rebuilt per serialize() call.
        self.plan = plan

    def resolve(self, path: FieldPath) -> FieldPath:
        """Bind the unbound repetition indices of ``path`` to the current stack."""
        return path.resolve(self.index_stack)

    def push_index(self, index: int) -> None:
        self.index_stack.append(index)
        self.context += (index,)

    def pop_index(self) -> None:
        self.index_stack.pop()
        self.context = self.context[:-1]


class Serializer:
    """Serializes logical messages against a message format graph."""

    def __init__(self, graph: FormatGraph, *, rng: Random | None = None,
                 plan: CodecPlan | None = None):
        self.graph = graph
        #: compiled execution plan; resolved through the shared plan cache so
        #: that repeated construction over the same graph does not re-walk it.
        self.plan = plan if plan is not None else plan_for(graph)
        self._rng = rng if rng is not None else Random(0)

    # -- public API -----------------------------------------------------------

    def serialize(self, message: Message | dict) -> bytes:
        """Serialize ``message`` into its (obfuscated) wire representation."""
        pieces, context = self._build_pieces(message, merge_delimiters=True)
        data, _ = pieces.assemble(context.region_lengths, with_spans=False)
        return data

    def serialize_with_spans(self, message: Message | dict) -> tuple[bytes, list[FieldSpan]]:
        """Serialize and also return the byte extents of every emitted wire field."""
        pieces, context = self._build_pieces(message, merge_delimiters=False)
        data, raw_spans = pieces.assemble(context.region_lengths)
        spans = [
            FieldSpan(node=node, origin=origin, start=start, end=end)
            for node, origin, start, end in raw_spans
            if node is not None
        ]
        return data, spans

    def _build_pieces(self, message: Message | dict, *,
                      merge_delimiters: bool) -> tuple[PieceList, _SerializeContext]:
        logical = message if isinstance(message, Message) else Message.from_dict(message)
        context = _SerializeContext(self.plan, logical, self._rng,
                                    merge_delimiters=merge_delimiters)
        out = PieceList()
        self._serialize_node(self.graph.root, context, out)
        return out, context

    # -- node dispatch --------------------------------------------------------

    def _serialize_node(self, node: Node, ctx: _SerializeContext, out: PieceList) -> None:
        # Only LENGTH-bounded nodes ever have their measured region length
        # read back (when their slot is resolved); every other node skips the
        # bookkeeping entirely.
        measured = node.name in ctx.plan.length_targets
        if measured or node.mirrored:
            mark = len(out.pieces)
            length_before = out.byte_length()
        node_type = node.type
        if node_type is _TERMINAL:
            self._serialize_terminal(node, ctx, out)
        elif node_type is _SEQUENCE:
            self._serialize_sequence(node, ctx, out)
        elif node_type is _OPTIONAL:
            self._serialize_optional(node, ctx, out)
        elif node_type in _REPEATED:
            self._serialize_repetition(node, ctx, out)
        else:  # pragma: no cover - exhaustive enum
            raise SerializationError(f"unknown node type {node.type!r}")
        if node.mirrored:
            out.mirror_from(mark)
        if measured:
            ctx.region_lengths[(node.name, ctx.context)] = out.byte_length() - length_before

    # -- terminals ------------------------------------------------------------

    def _serialize_terminal(self, node: Node, ctx: _SerializeContext, out: PieceList,
                            value_override: object = None) -> None:
        if node.is_pad:
            size = node.boundary.size or 0
            out.add_bytes(draw_pad(ctx.rng.getrandbits, size), node=node.name, origin=None)
            return
        if value_override is None:
            derived = ctx.plan.derived_fields.get(node.name)
            if derived is not None:
                if type(derived) is LengthSlot:
                    out.add_slot(
                        LengthSlot(
                            node=derived.node,
                            target=derived.target,
                            width=derived.width,
                            endian=derived.endian,
                            codec_chain=derived.codec_chain,
                            mirrored=False,
                            origin=derived.origin,
                            context=ctx.context,
                        )
                    )
                    return
                _, counted_origin = derived
                count = self._list_length(
                    ctx.plan.counter_get[node.name](ctx.data, ctx.index_stack),
                    counted_origin, ctx,
                )
                self._emit_value(node, count, ctx, out)
                return
        value = value_override
        if value is None:
            value = self._logical_value(node, ctx)
        self._emit_value(node, value, ctx, out)

    @staticmethod
    def _emit_value(node: Node, value: object, ctx: _SerializeContext,
                    out: PieceList) -> None:
        terminal = ctx.plan.terminals[node.name]
        encoded = terminal.encode(value)
        delimiter = terminal.delimiter
        if delimiter:
            if ctx.merge_delimiters:
                out.add_bytes(encoded + delimiter, node=node.name, origin=node.origin)
                return
            out.add_bytes(encoded, node=node.name, origin=node.origin)
            out.add_bytes(delimiter)
            return
        out.add_bytes(encoded, node=node.name, origin=node.origin)

    def _logical_value(self, node: Node, ctx: _SerializeContext) -> object:
        value = ctx.plan.origin_get[node.name](ctx.data, ctx.index_stack)
        if value is None:
            raise SerializationError(
                f"logical message is missing field {ctx.resolve(node.origin)} "
                f"(terminal {node.name!r})"
            )
        return value

    @staticmethod
    def _list_length(value: object, origin: FieldPath, ctx: _SerializeContext) -> int:
        if value is None:
            return 0
        if not isinstance(value, list):
            raise MessageError(f"field {ctx.resolve(origin)} is not a list")
        return len(value)

    # -- composites -----------------------------------------------------------

    def _serialize_sequence(self, node: Node, ctx: _SerializeContext, out: PieceList) -> None:
        if node.synthesis is not None:
            self._serialize_synthesis(node, ctx, out)
            return
        length_targets = ctx.plan.length_targets
        for child in node.children:
            # Plain terminals (no mirror, no measured region) skip the
            # _serialize_node bookkeeping: one call less on the most common
            # child shape.
            if (child.type is _TERMINAL and not child.mirrored
                    and child.name not in length_targets):
                self._serialize_terminal(child, ctx, out)
            else:
                self._serialize_node(child, ctx, out)

    def _serialize_synthesis(self, node: Node, ctx: _SerializeContext, out: PieceList) -> None:
        value = ctx.plan.origin_get[node.name](ctx.data, ctx.index_stack)
        if value is None:
            raise SerializationError(
                f"logical message is missing field {ctx.resolve(node.origin)} "
                f"(synthesis node {node.name!r})"
            )
        shares = iter(node.synthesis.split(value, ctx.rng, split_at=node.split_at))
        for child in node.children:
            if child.name in ctx.plan.length_slots:
                # Derived length prefix created by SplitCat on a variable-size
                # terminal: emitted as a regular length slot.
                self._serialize_node(child, ctx, out)
                continue
            self._serialize_split_child(child, next(shares), ctx, out)

    def _serialize_split_child(self, child: Node, value: object,
                               ctx: _SerializeContext, out: PieceList) -> None:
        measured = child.name in ctx.plan.length_targets
        if measured or child.mirrored:
            mark = len(out.pieces)
            length_before = out.byte_length()
        self._serialize_terminal(child, ctx, out, value_override=value)
        if child.mirrored:
            out.mirror_from(mark)
        if measured:
            ctx.region_lengths[(child.name, ctx.context)] = out.byte_length() - length_before

    def _serialize_optional(self, node: Node, ctx: _SerializeContext, out: PieceList) -> None:
        if not self._optional_present(node, ctx):
            return
        self._serialize_node(node.children[0], ctx, out)

    def _optional_present(self, node: Node, ctx: _SerializeContext) -> bool:
        if node.presence_ref is not None:
            return (ctx.plan.presence_get[node.name](ctx.data, ctx.index_stack)
                    == node.presence_value)
        if node.origin is None:
            return False
        return ctx.plan.origin_get[node.name](ctx.data, ctx.index_stack) is not None

    def _serialize_repetition(self, node: Node, ctx: _SerializeContext, out: PieceList) -> None:
        count = self._list_length(
            ctx.plan.origin_get[node.name](ctx.data, ctx.index_stack), node.origin, ctx
        )
        child = node.children[0]
        for index in range(count):
            ctx.push_index(index)
            try:
                self._serialize_node(child, ctx, out)
            finally:
                ctx.pop_index()
        if node.type is _REPETITION and node.boundary.kind is _DELIMITED:
            out.add_bytes(node.boundary.delimiter or b"")


def serialize(graph: FormatGraph, message: Message | dict, *, rng: Random | None = None) -> bytes:
    """Module-level convenience wrapper around :class:`Serializer`.

    Routed through the shared plan cache: the graph is compiled once and every
    subsequent call executes against the cached :class:`CodecPlan` instead of
    re-scanning ``graph.nodes()``.
    """
    return Serializer(graph, rng=rng, plan=plan_for(graph)).serialize(message)


def serialize_with_spans(
    graph: FormatGraph, message: Message | dict, *, rng: Random | None = None
) -> tuple[bytes, list[FieldSpan]]:
    """Serialize and return the emitted wire field spans (plan-cache backed)."""
    return Serializer(graph, rng=rng, plan=plan_for(graph)).serialize_with_spans(message)
