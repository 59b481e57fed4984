"""The message format graph.

A :class:`FormatGraph` wraps the root node of a message format specification
(the graph ``G1`` of the paper) or any graph obtained from it by applying
obfuscating transformations (``G2`` … ``Gn+1``).  It offers name lookup,
dependency queries, fresh-name generation for transformation-created nodes,
cloning and structural statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .boundary import BoundaryKind
from .errors import GraphError
from .node import Node, NodeType

if TYPE_CHECKING:
    from .validate import GraphIndex


@dataclass(frozen=True)
class GraphStats:
    """Structural statistics of a format graph."""

    node_count: int
    terminal_count: int
    composite_count: int
    max_depth: int
    pad_count: int
    mirrored_count: int
    codec_op_count: int
    synthesis_count: int


class FormatGraph:
    """A message format graph (original or obfuscated)."""

    def __init__(self, root: Node, name: str = "protocol"):
        if root.parent is not None:
            raise GraphError("the root node of a graph cannot have a parent")
        self.root = root
        self.name = name
        self._fresh_counter = 0
        #: Fingerprint of the :class:`~repro.transforms.plan.ObfuscationPlan`
        #: this graph was replayed from (or had extracted from it), when known.
        #: Stamped by the plan layer; cleared by :func:`repro.wire.plan.invalidate`
        #: whenever a transformation rewrites the graph in place.  The codec-plan
        #: cache keys stamped graphs by this value, so two replays of one plan —
        #: in the same process or across processes — share one compiled plan slot.
        self.plan_fingerprint: str | None = None
        #: What ``validate.lookup_index`` returned: only the obfuscation
        #: engine's working clone carries it, between validated steps.  On
        #: every other graph ``None``: lookups scan.
        self.lookup_index: GraphIndex | None = None

    # -- traversal and lookup -------------------------------------------------

    def nodes(self) -> Iterator[Node]:
        """Pre-order depth-first traversal of all nodes (serialization order)."""
        return self.root.iter_subtree()

    def node_map(self) -> dict[str, Node]:
        """Mapping from node name to node; raises on duplicate names."""
        mapping: dict[str, Node] = {}
        for node in self.nodes():
            if node.name in mapping:
                raise GraphError(f"duplicate node name {node.name!r} in graph {self.name!r}")
            mapping[node.name] = node
        return mapping

    def find(self, name: str) -> Node | None:
        """Return the node called ``name`` or ``None`` (from :attr:`lookup_index`
        when the graph carries one, else by a scan)."""
        if self.lookup_index is not None:
            return self.lookup_index.by_name.get(name)
        for node in self.nodes():
            if node.name == name:
                return node
        return None

    def require(self, name: str) -> Node:
        """Return the node called ``name`` or raise :class:`GraphError`."""
        node = self.find(name)
        if node is None:
            raise GraphError(f"graph {self.name!r} has no node named {name!r}")
        return node

    def terminals(self) -> Iterator[Node]:
        """All Terminal nodes in serialization order."""
        return (node for node in self.nodes() if node.is_terminal)

    def composites(self) -> Iterator[Node]:
        """All composite nodes in serialization order."""
        return (node for node in self.nodes() if node.is_composite)

    def pre_order_index(self) -> dict[str, int]:
        """Position of each node in the pre-order (serialization) ordering."""
        return {node.name: index for index, node in enumerate(self.nodes())}

    # -- references ------------------------------------------------------------

    def ref_targets(self) -> dict[str, list[str]]:
        """Map each referenced node name to the names of the nodes referencing it."""
        targets: dict[str, list[str]] = {}
        for node in self.nodes():
            for ref in node.referenced_names():
                targets.setdefault(ref, []).append(node.name)
        return targets

    def is_ref_target(self, name: str) -> bool:
        """True when some node's boundary or presence condition references ``name``
        (from :attr:`lookup_index` when the graph carries one, else by a scan)."""
        if self.lookup_index is not None:
            return name in self.lookup_index.referenced
        # A boundary carries ``ref`` only when it is LENGTH or COUNTER.
        for node in self.nodes():
            if node.boundary.ref == name or node.presence_ref == name:
                return True
        return False

    def referencing_nodes(self, name: str) -> list[Node]:
        """Nodes whose boundary/presence references the node called ``name``."""
        mapping = self.node_map()
        return [mapping[source] for source in self.ref_targets().get(name, [])]

    # -- naming ----------------------------------------------------------------

    def fresh_name(self, prefix: str) -> str:
        """Return a node name with the given prefix that is unused in the graph
        (checked against :attr:`lookup_index` when the graph carries one)."""
        index = self.lookup_index
        existing = index.by_name if index is not None else {node.name for node in self.nodes()}
        while True:
            self._fresh_counter += 1
            candidate = f"{prefix}_{self._fresh_counter}"
            if candidate not in existing:
                return candidate

    # -- copying ---------------------------------------------------------------

    def clone(self) -> "FormatGraph":
        """Deep copy of the graph (transformations operate on clones).

        ``plan_fingerprint`` is deliberately not carried over: clones exist to
        be mutated, and a stale stamp would alias the clone's codec plan with
        the original's.  The plan layer re-stamps replayed clones itself.
        """
        copy = FormatGraph(self.root.clone(), name=self.name)
        copy._fresh_counter = self._fresh_counter
        return copy

    # -- statistics ------------------------------------------------------------

    def stats(self) -> GraphStats:
        """Structural statistics used by the potency metrics and tests."""
        node_count = terminal_count = pad_count = mirrored_count = 0
        codec_op_count = synthesis_count = 0
        max_depth = 0
        for node in self.nodes():
            node_count += 1
            max_depth = max(max_depth, node.depth())
            if node.is_terminal:
                terminal_count += 1
            if node.is_pad:
                pad_count += 1
            if node.mirrored:
                mirrored_count += 1
            codec_op_count += len(node.codec_chain)
            if node.synthesis is not None:
                synthesis_count += 1
        return GraphStats(
            node_count=node_count,
            terminal_count=terminal_count,
            composite_count=node_count - terminal_count,
            max_depth=max_depth,
            pad_count=pad_count,
            mirrored_count=mirrored_count,
            codec_op_count=codec_op_count,
            synthesis_count=synthesis_count,
        )

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"FormatGraph({self.name!r}, nodes={stats.node_count}, "
            f"terminals={stats.terminal_count})"
        )


# ---------------------------------------------------------------------------
# size reasoning
# ---------------------------------------------------------------------------


def static_size(node: Node) -> int | None:
    """Serialized size of ``node`` when it is statically known, else ``None``.

    The size is static for fixed terminals and for composites whose children
    are all statically sized (Optional, Repetition and Tabular nodes are never
    statically sized because their element count or presence varies).
    """
    if node.type is NodeType.TERMINAL:
        if node.boundary.kind is BoundaryKind.FIXED:
            return node.boundary.size
        return None
    if node.type in (NodeType.OPTIONAL, NodeType.REPETITION, NodeType.TABULAR):
        return None
    # Sequence: sum of children when every child is static.
    total = 0
    for child in node.children:
        child_size = static_size(child)
        if child_size is None:
            return None
        total += child_size
    if node.boundary.kind is BoundaryKind.FIXED and node.boundary.size != total:
        return None
    return total


def parse_window_known(node: Node) -> bool:
    """True when the parser can delimit ``node``'s byte extent before reading it.

    This is the applicability condition of ReadFromEnd: the whole region must
    be available up-front so it can be reversed before parsing.
    """
    if node.boundary.kind in (BoundaryKind.FIXED, BoundaryKind.LENGTH, BoundaryKind.END):
        return True
    return static_size(node) is not None


def is_greedy(node: Node) -> bool:
    """True when parsing ``node`` consumes the rest of its enclosing window.

    Greedy nodes (END-bounded terminals and repetitions, Optionals whose
    presence is decided by "bytes remain", sequences containing such a node,
    and mirrored END-bounded nodes) can only appear in tail position: anything
    serialized after them in the same window would be swallowed during
    parsing.  A mirrored node's extracted region, not its children, decides
    how far it reads.  The window-layout validation rule and the ordering
    transformations rely on this predicate.
    """
    kind = node.boundary.kind
    if node.mirrored:
        return kind is BoundaryKind.END
    if kind in (
        BoundaryKind.FIXED,
        BoundaryKind.LENGTH,
        BoundaryKind.DELIMITED,
        BoundaryKind.COUNTER,
    ):
        return False
    if node.type is NodeType.TERMINAL:
        return True  # END-bounded terminal
    if node.type is NodeType.REPETITION:
        return kind is BoundaryKind.END
    if node.type is NodeType.TABULAR:
        return False
    if node.type is NodeType.OPTIONAL:
        return node.presence_ref is None or is_greedy(node.children[0])
    # Sequence with a DELEGATED or END boundary: greedy when any child is.
    return any(is_greedy(child) for child in node.children)
