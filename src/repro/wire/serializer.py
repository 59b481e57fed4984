"""The wire serializer.

The serializer walks a (possibly obfuscated) message format graph depth-first
and writes the obfuscated byte string directly from the *logical* message, so
the non-obfuscated representation never exists as a contiguous buffer — this
is the Observation counter-measure of the paper (Section VI).

Transformations are executed on the fly during the traversal:

* aggregation transformations (ConstAdd/Sub/Xor) are applied through each
  terminal's codec chain,
* Split* nodes draw a random share and emit the two wire sub-values,
* ReadFromEnd reverses the bytes the affected subtree wrote, in place,
* PadInsert terminals draw random bytes,
* derived length fields are written as zero placeholders and filled in once
  the walk has measured every covered region.

The traversal executes against a compiled :class:`~repro.wire.plan.CodecPlan`
(accessors, fused encoders, length-field resolvers) and writes every field
straight into one ``bytearray``, as the specialized modules do.  A length
field leaves a *pending slot*: its position, its resolver, the repetition
context of the region it measures and a mirrored flag.  Reversing a mirrored
region moves the slots inside it and flips their flag.  When spans are
requested, every labelled write records its extent, and a mirrored region
reverses and remaps its own spans, so they stay in wire order.  The plan
compiles only validated graphs, so every value the walk reads has a logical
origin and every synthesis node two shares.
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
from .plan import CodecPlan, LengthField, plan_for
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
        "data",
        "rng",
        "index_stack",
        "context",
        "region_lengths",
        "plan",
        "slots",
        "spans",
    )

    def __init__(self, plan: CodecPlan, message: Message, rng: Random,
                 spans: list | None):
        #: live underlying dictionary of the message, navigated by the plan's
        #: compiled accessors.
        self.data = message.raw
        self.rng = rng
        self.index_stack: list[int] = []
        #: tuple mirror of ``index_stack``, maintained by the repetition loop
        #: so that per-node region keys do not re-tuple the stack.
        self.context: tuple[int, ...] = ()
        #: serialized byte length of every measured node instance, keyed by
        #: (node name, repetition index context)
        self.region_lengths: dict[tuple[str, tuple[int, ...]], int] = {}
        #: compiled encoders, accessors and length fields of the graph,
        #: precomputed once per graph instead of rebuilt per serialize() call.
        self.plan = plan
        #: pending length fields, in write order: ``[position, width,
        #: resolver, (target name, context), mirrored]``.
        self.slots: list[list] = []
        #: ``(node, origin, start, end)`` of every labelled write, in wire
        #: order; ``None`` when the caller does not want spans.
        self.spans = spans

    def resolve(self, path: FieldPath) -> FieldPath:
        """Bind the unbound repetition indices of ``path`` to the current stack."""
        return path.resolve(self.index_stack)

    def marks(self) -> tuple[int, int]:
        """Slot and span counts: where a region's own slots and spans begin."""
        return len(self.slots), len(self.spans) if self.spans is not None else 0

    def mirror(self, out: bytearray, start: int, marks: tuple[int, int]) -> None:
        """Reverse ``out[start:]`` (ReadFromEnd) with the slots and spans in it.

        Every slot and span recorded since ``marks`` lies inside the region;
        one that covered ``[a, b)`` now covers ``[start + end - b, start + end
        - a)``.  A slot's flag flips, so its resolved bytes are reversed too.
        """
        pivot = start + len(out)
        region = out[start:]
        region.reverse()
        out[start:] = region
        slot_mark, span_mark = marks
        for slot in self.slots[slot_mark:]:
            slot[0] = pivot - slot[0] - slot[1]
            slot[4] = not slot[4]
        spans = self.spans
        if spans is not None and span_mark < len(spans):
            spans[span_mark:] = [
                (node, origin, pivot - end, pivot - begin)
                for node, origin, begin, end in reversed(spans[span_mark:])
            ]


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
        return bytes(self._write(message, None))

    def serialize_with_spans(self, message: Message | dict) -> tuple[bytes, list[FieldSpan]]:
        """Serialize and also return the byte extents of every emitted wire field."""
        raw_spans: list[tuple[str, FieldPath | None, int, int]] = []
        data = bytes(self._write(message, raw_spans))
        spans = [
            FieldSpan(node=node, origin=origin, start=start, end=end)
            for node, origin, start, end in raw_spans
        ]
        return data, spans

    def _write(self, message: Message | dict, spans: list | None) -> bytearray:
        logical = message if isinstance(message, Message) else Message.from_dict(message)
        ctx = _SerializeContext(self.plan, logical, self._rng, spans)
        out = bytearray()
        self._serialize_node(self.graph.root, ctx, out)
        lengths = ctx.region_lengths
        for position, width, resolve, key, mirrored in ctx.slots:
            data = resolve(lengths.get(key, 0))
            out[position:position + width] = data[::-1] if mirrored else data
        return out

    # -- node dispatch --------------------------------------------------------

    def _serialize_node(self, node: Node, ctx: _SerializeContext, out: bytearray) -> None:
        # Only LENGTH-bounded nodes ever have their measured region length
        # read back (when their slot is resolved); every other node skips the
        # bookkeeping entirely.  A mirrored terminal reverses its own bytes;
        # a mirrored composite reverses its region once it is written.
        measured = node.name in ctx.plan.length_targets
        node_type = node.type
        region = node.mirrored and node_type is not _TERMINAL
        if measured or region:
            start = len(out)
            if region:
                marks = ctx.marks()
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
        if region:
            ctx.mirror(out, start, marks)
        if measured:
            ctx.region_lengths[(node.name, ctx.context)] = len(out) - start

    # -- terminals ------------------------------------------------------------

    def _serialize_terminal(self, node: Node, ctx: _SerializeContext, out: bytearray,
                            value: object = None) -> None:
        """Write one terminal; ``value`` is given for split shares only.

        Validation gives a mirrored terminal no delimiter, so reversing its
        encoded bytes reverses its whole region.
        """
        plan = ctx.plan
        name = node.name
        if value is None:
            if node.is_pad:
                self._write_pad(node, ctx, out)
                return
            derived = plan.derived_fields.get(name)
            if derived is None:
                value = plan.origin_get[name](ctx.data, ctx.index_stack)
                if value is None:
                    raise SerializationError(
                        f"logical message is missing field {ctx.resolve(node.origin)} "
                        f"(terminal {name!r})"
                    )
            elif type(derived) is LengthField:
                self._write_slot(node, derived, ctx, out)
                return
            else:
                value = self._list_length(
                    plan.counter_get[name](ctx.data, ctx.index_stack), derived[1], ctx)
        terminal = plan.terminals[name]
        encoded = terminal.encode(value)
        if node.mirrored:
            encoded = encoded[::-1]
        spans = ctx.spans
        if spans is not None and encoded:
            spans.append((name, node.origin, len(out), len(out) + len(encoded)))
        out += encoded
        if terminal.delimiter:
            out += terminal.delimiter

    @staticmethod
    def _write_pad(node: Node, ctx: _SerializeContext, out: bytearray) -> None:
        pad = draw_pad(ctx.rng.getrandbits, node.boundary.size or 0)
        if node.mirrored:
            pad = pad[::-1]
        if pad and ctx.spans is not None:
            ctx.spans.append((node.name, None, len(out), len(out) + len(pad)))
        out += pad

    @staticmethod
    def _write_slot(node: Node, field: LengthField, ctx: _SerializeContext,
                    out: bytearray) -> None:
        """Write a length field's zero placeholder and record its pending slot."""
        position = len(out)
        out += bytes(field.width)
        ctx.slots.append([position, field.width, field.resolve,
                          (field.target, ctx.context), node.mirrored])
        if ctx.spans is not None:
            ctx.spans.append((node.name, node.origin, position, len(out)))

    @staticmethod
    def _list_length(value: object, origin: FieldPath, ctx: _SerializeContext) -> int:
        if value is None:
            return 0
        if not isinstance(value, list):
            raise MessageError(f"field {ctx.resolve(origin)} is not a list")
        return len(value)

    # -- composites -----------------------------------------------------------

    def _serialize_sequence(self, node: Node, ctx: _SerializeContext, out: bytearray) -> None:
        if node.synthesis is not None:
            self._serialize_synthesis(node, ctx, out)
            return
        length_targets = ctx.plan.length_targets
        for child in node.children:
            # Terminals without a measured region skip the _serialize_node
            # bookkeeping: one call less on the most common child shape.
            if child.type is _TERMINAL and child.name not in length_targets:
                self._serialize_terminal(child, ctx, out)
            else:
                self._serialize_node(child, ctx, out)

    def _serialize_synthesis(self, node: Node, ctx: _SerializeContext, out: bytearray) -> None:
        plan = ctx.plan
        value = plan.origin_get[node.name](ctx.data, ctx.index_stack)
        if value is None:
            raise SerializationError(
                f"logical message is missing field {ctx.resolve(node.origin)} "
                f"(synthesis node {node.name!r})"
            )
        try:
            shares = iter(node.synthesis.split(value, ctx.rng, split_at=node.split_at))
        except SerializationError as exc:
            raise SerializationError(f"synthesis node {node.name!r}: {exc}") from exc
        for child in node.children:
            if child.name in plan.length_slots:
                # Derived length prefix created by SplitCat on a variable-size
                # terminal: emitted as a regular length slot.
                self._serialize_node(child, ctx, out)
                continue
            start = len(out)
            self._serialize_terminal(child, ctx, out, next(shares))
            if child.name in plan.length_targets:
                ctx.region_lengths[(child.name, ctx.context)] = len(out) - start

    def _serialize_optional(self, node: Node, ctx: _SerializeContext, out: bytearray) -> None:
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

    def _serialize_repetition(self, node: Node, ctx: _SerializeContext, out: bytearray) -> None:
        count = self._list_length(
            ctx.plan.origin_get[node.name](ctx.data, ctx.index_stack), node.origin, ctx
        )
        child = node.children[0]
        stack = ctx.index_stack
        outer = ctx.context
        # A failed element aborts the whole message, so nothing restores the
        # index stack on the way out.
        for index in range(count):
            stack.append(index)
            ctx.context = outer + (index,)
            self._serialize_node(child, ctx, out)
            stack.pop()
        ctx.context = outer
        if node.type is _REPETITION and node.boundary.kind is _DELIMITED:
            out += node.boundary.delimiter or b""


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
