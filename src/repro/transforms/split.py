"""Split transformations: SplitAdd, SplitSub, SplitXor and SplitCat.

A Terminal node with value ``v`` is split into a sequence of two sub-nodes
with values ``v1`` and ``v2`` such that ``v = v1 op v2`` (paper Table I).  The
serializer draws ``v1`` at random for every message, so the same logical
message yields different wire representations across transmissions — the
"various representations of the same message" classification challenge of
Table II.

Runtime applicability constraints (refinements of the paper's "parent
boundary must be Delegated or End"):

* the target terminal must carry user data (not a derived length/counter
  field, not padding, not already a child of another split),
* it must not already carry value obfuscations (codec chain) or mirroring —
  those can still be applied afterwards, to the split children;
* arithmetic splits require a fixed-size UINT terminal;
* SplitCat applies to BYTES/TEXT terminals: fixed-size fields are cut at a
  position drawn at transformation time, variable-size fields (Delimited,
  Length or End boundary) are split at a random position for every message
  and the first part is emitted behind a derived two-byte length prefix.
"""

from __future__ import annotations

from random import Random
from typing import ClassVar

from ..core.boundary import Boundary, BoundaryKind
from ..core.errors import NotApplicableError
from ..core.graph import FormatGraph
from ..core.node import Node, NodeType
from ..core.values import Synthesis, SynthesisOp, ValueKind
from .base import (
    Transformation,
    TransformationCategory,
    TransformationRecord,
    parent_is_synthesis,
    replace_node,
)


def _plain_user_terminal(graph: FormatGraph, node: Node) -> bool:
    """Common precondition: an unobfuscated, user-data terminal."""
    return (
        node.type is NodeType.TERMINAL
        and not node.is_pad
        and node.origin is not None
        and not node.codec_chain
        and not node.mirrored
        and not graph.is_ref_target(node.name)
        and not parent_is_synthesis(node)
    )


class _ArithmeticSplit(Transformation):
    """Shared implementation of SplitAdd / SplitSub / SplitXor."""

    category = TransformationCategory.AGGREGATION
    challenge = ("inference models and classification: more dependencies between "
                 "fields and varying representations of the same message")
    synthesis_op: ClassVar[SynthesisOp]

    def is_applicable(self, graph: FormatGraph, node: Node) -> bool:
        return (
            _plain_user_terminal(graph, node)
            and node.value_kind is ValueKind.UINT
            and node.boundary.kind is BoundaryKind.FIXED
            and (node.boundary.size or 0) > 0
        )

    def draw(self, graph: FormatGraph, node: Node, rng: Random) -> TransformationRecord:
        width = node.boundary.size or 1
        first = graph.fresh_name(f"{node.name}_share")
        second = graph.fresh_name(f"{node.name}_share")
        replacement = graph.fresh_name(f"{node.name}_split")
        return self.record(
            node,
            created=(replacement, first, second),
            width=width,
            operation=self.synthesis_op.value,
        )

    def _replay(self, graph: FormatGraph, node: Node,
                record: TransformationRecord) -> None:
        width = int(record.parameters["width"])
        replacement_name, first_name, second_name = record.created
        first = Node(
            first_name,
            NodeType.TERMINAL,
            Boundary.fixed(width),
            value_kind=ValueKind.UINT,
            endian=node.endian,
        )
        second = Node(
            second_name,
            NodeType.TERMINAL,
            Boundary.fixed(width),
            value_kind=ValueKind.UINT,
            endian=node.endian,
        )
        replacement = Node(
            replacement_name,
            NodeType.SEQUENCE,
            Boundary.delegated(),
            children=[first, second],
            origin=node.origin,
            synthesis=Synthesis(self.synthesis_op, ValueKind.UINT, width=width),
            doc=f"{self.name} of {node.name}",
        )
        replace_node(graph, node, replacement)


class SplitAdd(_ArithmeticSplit):
    """Split a UINT terminal ``v`` into ``v1 + v2`` (modular)."""

    name = "SplitAdd"
    synthesis_op = SynthesisOp.ADD


class SplitSub(_ArithmeticSplit):
    """Split a UINT terminal ``v`` into ``v1 - v2`` (modular)."""

    name = "SplitSub"
    synthesis_op = SynthesisOp.SUB


class SplitXor(_ArithmeticSplit):
    """Split a UINT terminal ``v`` into ``v1 xor v2``."""

    name = "SplitXor"
    synthesis_op = SynthesisOp.XOR


class SplitCat(Transformation):
    """Split a BYTES/TEXT terminal ``v`` into ``concatenate(v1, v2)``."""

    name = "SplitCat"
    category = TransformationCategory.AGGREGATION
    challenge = ("fields delimitation and classification: one field becomes two, "
                 "cut at a per-message random position for variable-size fields")

    _PREFIX_WIDTH = 2

    def is_applicable(self, graph: FormatGraph, node: Node) -> bool:
        if not _plain_user_terminal(graph, node):
            return False
        if node.value_kind not in (ValueKind.BYTES, ValueKind.TEXT):
            return False
        if node.boundary.kind is BoundaryKind.FIXED:
            return (node.boundary.size or 0) >= 2
        return node.boundary.kind in (
            BoundaryKind.DELIMITED,
            BoundaryKind.LENGTH,
            BoundaryKind.END,
        )

    def draw(self, graph: FormatGraph, node: Node, rng: Random) -> TransformationRecord:
        if node.boundary.kind is BoundaryKind.FIXED:
            size = node.boundary.size or 0
            if size < 2:
                raise NotApplicableError(f"terminal {node.name!r} is too small to split")
            cut = rng.randint(1, size - 1)
            first = graph.fresh_name(f"{node.name}_part")
            second = graph.fresh_name(f"{node.name}_part")
            replacement = graph.fresh_name(f"{node.name}_split")
            return self.record(node, created=(replacement, first, second), cut=cut)
        prefix = graph.fresh_name(f"{node.name}_part_len")
        first = graph.fresh_name(f"{node.name}_part")
        second = graph.fresh_name(f"{node.name}_part")
        replacement = graph.fresh_name(f"{node.name}_split")
        return self.record(
            node,
            created=(replacement, prefix, first, second),
            prefix_width=self._PREFIX_WIDTH,
        )

    def _replay(self, graph: FormatGraph, node: Node,
                record: TransformationRecord) -> None:
        if node.boundary.kind is BoundaryKind.FIXED:
            self._replay_fixed(graph, node, record)
        else:
            self._replay_variable(graph, node, record)

    # -- fixed-size fields: static cut position -------------------------------

    def _replay_fixed(self, graph: FormatGraph, node: Node,
                      record: TransformationRecord) -> None:
        size = node.boundary.size or 0
        cut = int(record.parameters["cut"])
        assert node.value_kind is not None
        replacement_name, first_name, second_name = record.created
        first = Node(
            first_name,
            NodeType.TERMINAL,
            Boundary.fixed(cut),
            value_kind=node.value_kind,
        )
        second = Node(
            second_name,
            NodeType.TERMINAL,
            Boundary.fixed(size - cut),
            value_kind=node.value_kind,
        )
        replacement = Node(
            replacement_name,
            NodeType.SEQUENCE,
            Boundary.delegated(),
            children=[first, second],
            origin=node.origin,
            synthesis=Synthesis(SynthesisOp.CAT, node.value_kind),
            split_at=cut,
            doc=f"SplitCat of {node.name} at offset {cut}",
        )
        replace_node(graph, node, replacement)

    # -- variable-size fields: per-message cut behind a length prefix ---------

    def _replay_variable(self, graph: FormatGraph, node: Node,
                         record: TransformationRecord) -> None:
        assert node.value_kind is not None
        prefix_width = int(record.parameters["prefix_width"])
        replacement_name, prefix_name, first_name, second_name = record.created
        prefix = Node(
            prefix_name,
            NodeType.TERMINAL,
            Boundary.fixed(prefix_width),
            value_kind=ValueKind.UINT,
        )
        first = Node(
            first_name,
            NodeType.TERMINAL,
            Boundary.length(prefix.name),
            value_kind=node.value_kind,
        )
        second_boundary, sequence_boundary = self._tail_boundaries(node)
        second = Node(
            second_name,
            NodeType.TERMINAL,
            second_boundary,
            value_kind=node.value_kind,
        )
        replacement = Node(
            replacement_name,
            NodeType.SEQUENCE,
            sequence_boundary,
            children=[prefix, first, second],
            origin=node.origin,
            synthesis=Synthesis(SynthesisOp.CAT, node.value_kind),
            doc=f"SplitCat of {node.name} behind a length prefix",
        )
        replace_node(graph, node, replacement)

    @staticmethod
    def _tail_boundaries(node: Node) -> tuple[Boundary, Boundary]:
        """Boundaries of the second part and of the wrapping sequence.

        The wrapping sequence takes over the original LENGTH/END boundary (its
        extent is unchanged); a DELIMITED original keeps its delimiter on the
        second part because sequences cannot be delimited.
        """
        kind = node.boundary.kind
        if kind is BoundaryKind.DELIMITED:
            return Boundary.delimited(node.boundary.delimiter or b""), Boundary.delegated()
        if kind is BoundaryKind.LENGTH:
            return Boundary.end(), Boundary.length(node.boundary.ref or "")
        # END boundary
        return Boundary.end(), Boundary.end()
