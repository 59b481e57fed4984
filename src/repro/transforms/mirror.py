"""ReadFromEnd: serialize a node from right to left.

The byte region produced by the node (terminal or whole subtree) is reversed
on the wire.  Reading a message sub-part in reverse order is unusual and
breaks the positional assumptions of alignment-based inference (paper Table
II, "inference models and classification" challenge).

Applicability: the parser must be able to delimit the node's byte extent
*before* reading it so that the region can be reversed back — i.e. the node
has a Fixed, Length or End boundary, or a statically-known size.  Delimited
nodes are excluded (the delimiter scan would run over reversed content), which
is the paper's "parent boundary can be anything but Delimited" constraint
transposed to this runtime.
"""

from __future__ import annotations

from random import Random

from ..core.graph import FormatGraph, parse_window_known
from ..core.node import Node
from .base import Transformation, TransformationCategory, TransformationRecord


class ReadFromEnd(Transformation):
    """Mirror the serialization of a node (read from right to left)."""

    name = "ReadFromEnd"
    category = TransformationCategory.ORDERING
    challenge = ("inference models and classification: sub-part of the message is "
                 "read in reverse order")

    def is_applicable(self, graph: FormatGraph, node: Node) -> bool:
        if node.mirrored or node.is_pad:
            return False
        # Mirroring the root would require knowing the total message size
        # up-front, so the root, like any node, needs a self-delimiting extent.
        return parse_window_known(node)

    def draw(self, graph: FormatGraph, node: Node, rng: Random) -> TransformationRecord:
        return self.record(node)

    def _replay(self, graph: FormatGraph, node: Node,
                record: TransformationRecord) -> None:
        node.mirrored = True
