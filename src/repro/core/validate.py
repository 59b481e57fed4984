"""Structural validation of message format graphs.

The rules implemented here combine the consistency requirements of the paper
(Section V-A: the boundary method must be consistent with the node type) with
the referential constraints the wire runtime needs to serialize and parse
messages deterministically (references must resolve, must be readable before
they are needed, derived fields must not clash with user data, ...).

Both original specifications and transformed graphs are validated: every
transformation is required to keep the graph valid, which is checked by the
transformation engine and by the test suite.  The engine validates after every
step, so one pre-order walk collects what the rules need and the rules then
run over the collected node list.  Rule order decides which error a graph
breaking several rules reports: duplicate names first, then the per-node rules
node by node in pre-order, then shared LENGTH targets, then window layout,
then the codec contract.

Every codec tier compiles only validated graphs
(:func:`repro.wire.plan.compile_plan` and the specializer validate first), so
what the rules exclude no tier re-checks per message.
"""

from __future__ import annotations

from .boundary import BoundaryKind
from .errors import GraphError
from .graph import FormatGraph, parse_window_known
from .node import Node, NodeType
from .values import ValueKind

# Enum members bound once: on CPython 3.10/3.11 ``EnumType.__getattr__`` makes
# every ``NodeType.TERMINAL`` in a per-node branch a slow attribute lookup.
_TERMINAL = NodeType.TERMINAL
_SEQUENCE = NodeType.SEQUENCE
_OPTIONAL = NodeType.OPTIONAL
_REPETITION = NodeType.REPETITION
_TABULAR = NodeType.TABULAR
_FIXED = BoundaryKind.FIXED
_DELIMITED = BoundaryKind.DELIMITED
_LENGTH = BoundaryKind.LENGTH
_COUNTER = BoundaryKind.COUNTER
_END = BoundaryKind.END
_DELEGATED = BoundaryKind.DELEGATED
_UINT = ValueKind.UINT

_TERMINAL_BOUNDARIES = (_FIXED, _DELIMITED, _LENGTH, _END)
_SEQUENCE_BOUNDARIES = (_DELEGATED, _LENGTH, _END)
_REPETITION_BOUNDARIES = (_DELIMITED, _LENGTH, _END, _COUNTER)
_VARIABLE_ARITY = (_REPETITION, _TABULAR, _OPTIONAL)


def validate_graph(graph: FormatGraph) -> None:
    """Raise :class:`GraphError` when ``graph`` violates any structural rule."""
    nodes, position, end, ref_targets, shared_length = _walk(graph)
    for index, node in enumerate(nodes):
        _check_parent_links(node)
        _check_type_shape(node)
        _check_boundary_compatibility(node)
        if node.type is _TERMINAL:
            _check_terminal_details(node, ref_targets)
        # A boundary carries ``ref`` only when it is LENGTH or COUNTER.
        if node.boundary.ref is not None or node.presence_ref is not None:
            _check_references(graph, node, index, nodes, position, end)
        if node.synthesis is not None or node.mirrored or node.codec_chain:
            _check_obfuscation_metadata(node)
    if shared_length is not None:
        raise GraphError(shared_length)
    _check_window_layout(nodes, position)
    _check_codec_contract(nodes, position, ref_targets)


def _walk(graph: FormatGraph):
    """Pre-order nodes, name positions, subtree ends, LENGTH/COUNTER targets.

    Also returns the error of the first terminal backing two LENGTH boundaries
    (counters may be shared), raised later in rule order.
    """
    nodes: list[Node] = []
    position: dict[str, int] = {}
    ref_targets: set[str] = set()
    length_sources: dict[str, str] = {}
    shared_length = None
    stack = [graph.root]
    while stack:
        node = stack.pop()
        name = node.name
        if name in position:
            raise GraphError(f"duplicate node name {name!r} in graph {graph.name!r}")
        position[name] = len(nodes)
        nodes.append(node)
        ref = node.boundary.ref
        if ref is not None:
            ref_targets.add(ref)
            if node.boundary.kind is _LENGTH and shared_length is None:
                previous = length_sources.setdefault(ref, name)
                if previous != name:
                    shared_length = (
                        f"terminal {ref!r} is the length of both {previous!r} and {name!r}"
                    )
        if node.children:
            stack.extend(reversed(node.children))
    # end[i] is one past the last pre-order position of node i's subtree.
    end = list(range(1, len(nodes) + 1))
    for index in range(len(nodes) - 1, -1, -1):
        children = nodes[index].children
        if children:
            end[index] = end[position[children[-1].name]]
    return nodes, position, end, ref_targets, shared_length


# ---------------------------------------------------------------------------
# individual rules
# ---------------------------------------------------------------------------


def _check_parent_links(node: Node) -> None:
    for child in node.children:
        if child.parent is not node:
            raise GraphError(
                f"node {child.name!r} has a stale parent link (expected {node.name!r})"
            )


def _check_type_shape(node: Node) -> None:
    if node.type is _TERMINAL:
        if node.children:
            raise GraphError(f"terminal {node.name!r} cannot have children")
        return
    if node.type is _SEQUENCE:
        if not node.children:
            raise GraphError(f"sequence {node.name!r} must have at least one child")
        return
    # Optional, Repetition and Tabular wrap exactly one sub-node.
    if len(node.children) != 1:
        raise GraphError(
            f"{node.type.value} node {node.name!r} must have exactly one child, "
            f"got {len(node.children)}"
        )


def _check_boundary_compatibility(node: Node) -> None:
    kind = node.boundary.kind
    if node.type is _TERMINAL and kind not in _TERMINAL_BOUNDARIES:
        raise GraphError(f"terminal {node.name!r} cannot use a {kind.value} boundary")
    if node.type is _SEQUENCE and kind not in _SEQUENCE_BOUNDARIES:
        raise GraphError(f"sequence {node.name!r} cannot use a {kind.value} boundary")
    if node.type is _OPTIONAL and kind is not _DELEGATED:
        raise GraphError(f"optional {node.name!r} must use a delegated boundary")
    if node.type is _REPETITION and kind not in _REPETITION_BOUNDARIES:
        raise GraphError(f"repetition {node.name!r} cannot use a {kind.value} boundary")
    if node.type is _TABULAR and kind is not _COUNTER:
        raise GraphError(f"tabular {node.name!r} must use a counter boundary")


def _check_terminal_details(node: Node, ref_targets: set[str]) -> None:
    if node.value_kind is _UINT and node.boundary.kind is not _FIXED:
        raise GraphError(f"uint terminal {node.name!r} requires a fixed boundary")
    if node.value_kind is _UINT and not node.boundary.size:
        raise GraphError(f"uint terminal {node.name!r} requires a positive size")
    if node.is_pad:
        if node.boundary.kind is not _FIXED:
            raise GraphError(f"pad terminal {node.name!r} requires a fixed boundary")
        if node.origin is not None:
            raise GraphError(f"pad terminal {node.name!r} cannot carry a logical origin")
    if node.name in ref_targets:
        if node.value_kind is not _UINT or node.boundary.kind is not _FIXED:
            raise GraphError(
                f"terminal {node.name!r} is a length/counter field and must be a fixed-size uint"
            )
        if node.origin is not None:
            raise GraphError(
                f"terminal {node.name!r} is a derived length/counter field and cannot carry "
                f"a logical origin"
            )
        if node.is_pad:
            raise GraphError(
                f"terminal {node.name!r} is a length/counter field and cannot be padding"
            )


def _check_references(graph: FormatGraph, node: Node, index: int, nodes: list[Node],
                      position: dict[str, int], end: list[int]) -> None:
    for ref in node.referenced_names():
        target_index = position.get(ref)
        if target_index is None:
            raise GraphError(f"node {node.name!r} references unknown node {ref!r}")
        target = nodes[target_index]
        if target.type is not _TERMINAL:
            raise GraphError(f"node {node.name!r} references non-terminal node {ref!r}")
        if target_index >= index:
            raise GraphError(
                f"node {node.name!r} references {ref!r} which is serialized after it"
            )
        # Every variable-arity ancestor of the target must also enclose the
        # referencing node, otherwise the parser could not tell which instance
        # of the target's value to use (repetitions) or whether the value
        # exists at all (optionals).  The target precedes the node, so an
        # ancestor encloses it exactly when the node sits before the
        # ancestor's subtree end; the root encloses every node.
        ancestor = target.parent
        while ancestor is not None and ancestor is not graph.root:
            if ancestor.type in _VARIABLE_ARITY and index >= end[position[ancestor.name]]:
                raise GraphError(
                    f"node {node.name!r} references {target.name!r} across the "
                    f"{ancestor.type.value} node {ancestor.name!r}"
                )
            ancestor = ancestor.parent


def _check_obfuscation_metadata(node: Node) -> None:
    if node.synthesis is not None:
        if node.type is not _SEQUENCE:
            raise GraphError(f"synthesis node {node.name!r} must be a sequence")
        if not all(child.type is _TERMINAL for child in node.children):
            raise GraphError(f"synthesis node {node.name!r} must have terminal children")
        derived = {
            child.boundary.ref
            for child in node.children
            if child.boundary.kind is _LENGTH
        }
        value_children = [child for child in node.children if child.name not in derived]
        if len(value_children) != 2:
            raise GraphError(
                f"synthesis node {node.name!r} must have exactly two value-carrying "
                f"sub-nodes (found {len(value_children)})"
            )
        if node.origin is None:
            raise GraphError(f"synthesis node {node.name!r} must carry a logical origin")
    if node.mirrored:
        if node.boundary.kind is _DELIMITED:
            raise GraphError(f"mirrored node {node.name!r} cannot use a delimited boundary")
        if not parse_window_known(node):
            raise GraphError(
                f"mirrored node {node.name!r} has no parse-time determinable extent"
            )
    for op in node.codec_chain:
        if op.bytewise and node.value_kind is _UINT:
            raise GraphError(f"bytewise value operation on uint terminal {node.name!r}")
        if node.type is not _TERMINAL:
            raise GraphError(f"only terminals may carry a codec chain ({node.name!r})")
        if op.bytewise and node.boundary.kind is _DELIMITED:
            raise GraphError(
                f"bytewise value operation on delimited terminal {node.name!r} could "
                f"collide with the delimiter"
            )
        if not op.bytewise:
            if node.value_kind is not _UINT:
                raise GraphError(
                    f"integer value operation on non-uint terminal {node.name!r}"
                )
            if op.width != node.boundary.size:
                raise GraphError(
                    f"integer value operation width mismatch on terminal {node.name!r}"
                )


def _greedy_flags(nodes: list[Node], position: dict[str, int]) -> list[bool]:
    """:func:`~repro.core.graph.is_greedy` of every node, children before parents."""
    greedy = [False] * len(nodes)
    for index in range(len(nodes) - 1, -1, -1):
        node = nodes[index]
        kind = node.boundary.kind
        if kind is _FIXED or kind is _LENGTH or kind is _DELIMITED or kind is _COUNTER:
            continue
        if node.type is _TERMINAL:
            greedy[index] = True  # END-bounded terminal
        elif node.type is _REPETITION:
            greedy[index] = kind is _END
        elif node.type is _OPTIONAL:  # its one child follows it in pre-order
            greedy[index] = node.presence_ref is None or greedy[index + 1]
        elif node.type is not _TABULAR:
            # Sequence with a DELEGATED or END boundary: greedy when any child is.
            greedy[index] = any(greedy[position[child.name]] for child in node.children)
    return greedy


def _check_window_layout(nodes: list[Node], position: dict[str, int]) -> None:
    """Greedy nodes (END/remaining-bytes semantics) must sit in tail position.

    A node whose parsing consumes the rest of its enclosing window (END
    terminals and repetitions, presence-less Optionals, sequences containing
    one) must not be followed by any sibling content in the same window,
    otherwise the parser would swallow that content.  Nodes that open their
    own window (Length boundary, mirrored regions) reset the rule for their
    children.  Tail flags flow top-down, so the first offender in pre-order
    is reported.
    """
    greedy = _greedy_flags(nodes, position)
    tail_allowed = [True] + [False] * (len(nodes) - 1)
    for index, node in enumerate(nodes):
        if greedy[index] and not tail_allowed[index]:
            raise GraphError(
                f"greedy node {node.name!r} is not in tail position of its window"
            )
        # Only a Sequence's last child and an Optional's child inherit the
        # tail position: elements of a Repetition or Tabular never do, since
        # another element (or the terminator) may follow the current one.
        if node.type is _SEQUENCE or node.type is _OPTIONAL:
            opens_window = node.boundary.kind is _LENGTH or node.mirrored
            tail_allowed[position[node.children[-1].name]] = (
                opens_window or tail_allowed[index]
            )


def _check_codec_contract(nodes: list[Node], position: dict[str, int],
                          ref_targets: set[str]) -> None:
    """Where the codecs find every value, checked after every other rule.

    * Repetitions and tabulars carry a logical origin: their element list.
    * Every terminal carries one unless it is padding, a length/counter
      field or a child of a synthesis node: nothing else gives it a value.
    * A synthesis child that a LENGTH or COUNTER boundary references is the
      length prefix of a sibling (SplitCat of a variable-size terminal), so
      it is no share; every tier tells the two apart by that reference.
    * An optional's presence reference names a terminal that carries a
      logical origin: the serializer reads the presence value there, the
      parser on the wire.
    * A synthesis node has no pad child: the serializer would hand the pad
      a share, and the parser finds no value in it.
    * No terminal or synthesis origin is a strict prefix of another node's
      origin (INDEX steps compare equal): the parser would store a value
      where another path needs a container, and the message it returns
      could not be serialized again.

    The last two run after the others, so a graph breaking an older rule
    keeps reporting it.
    """
    origins = set()  # step tuples of every origin
    values = []  # step tuples of terminal and synthesis origins
    syntheses = []
    for node in nodes:
        origin = node.origin
        if origin is None:
            if node.type is _REPETITION or node.type is _TABULAR:
                raise GraphError(
                    f"{node.type.value} node {node.name!r} must carry a logical origin"
                )
            if (node.type is _TERMINAL and not node.is_pad
                    and node.name not in ref_targets
                    and (node.parent is None or node.parent.synthesis is None)):
                raise GraphError(
                    f"terminal {node.name!r} must carry a logical origin: it is no "
                    f"pad, length/counter field or synthesis child"
                )
        else:
            steps = origin.steps
            origins.add(steps)
            if node.type is _TERMINAL:
                values.append(steps)
            elif node.synthesis is not None:
                values.append(steps)
                syntheses.append(node)
        ref = node.boundary.ref
        if ref is not None:
            # A reference target precedes the node, so it is never the root.
            holder = nodes[position[ref]].parent
            if holder.synthesis is not None and (
                    node.boundary.kind is not _LENGTH or node.parent is not holder):
                raise GraphError(
                    f"synthesis child {ref!r} of {holder.name!r} may be referenced "
                    f"only by a sibling's length boundary, not by {node.name!r}"
                )
        presence = node.presence_ref
        if (presence is not None and node.type is _OPTIONAL
                and nodes[position[presence]].origin is None):
            raise GraphError(
                f"presence reference {presence!r} of optional {node.name!r} must "
                f"carry a logical origin"
            )
    for node in syntheses:
        for child in node.children:
            if child.is_pad:
                raise GraphError(
                    f"synthesis node {node.name!r} cannot have the pad child "
                    f"{child.name!r}"
                )
    # Every strict prefix of an origin.  A prefix already present has its
    # own prefixes present too, so each walk up stops there.
    prefixes = set()
    for steps in origins:
        while len(steps) > 1:
            steps = steps[:-1]
            if steps in prefixes:
                break
            prefixes.add(steps)
    if not prefixes.isdisjoint(values):
        _raise_prefix_origin(nodes, prefixes)


def _raise_prefix_origin(nodes: list[Node], prefixes: set) -> None:
    """Name the first value whose origin is in ``prefixes`` and the first
    node whose origin extends it."""
    value = next(node for node in nodes if node.origin is not None
                 and (node.type is _TERMINAL or node.synthesis is not None)
                 and node.origin.steps in prefixes)
    below = next(node for node in nodes if node.origin is not None
                 and len(node.origin) > len(value.origin)
                 and node.origin.startswith(value.origin))
    raise GraphError(
        f"origin {value.origin} of {value.name!r} is a strict prefix of "
        f"the origin {below.origin} of {below.name!r}"
    )
