"""Structural validation of message format graphs.

The rules implemented here combine the consistency requirements of the paper
(Section V-A: the boundary method must be consistent with the node type) with
the referential constraints the wire runtime needs to serialize and parse
messages deterministically (references must resolve, must be readable before
they are needed, derived fields must not clash with user data, ...).

Both original specifications and transformed graphs are validated: every
transformation is required to keep the graph valid, which is checked by the
transformation engine and by the test suite.  The engine validates the whole
graph after every step, so validation is one pre-order walk (nodes, name
positions, LENGTH/COUNTER targets) and two passes over its node list: a
bottom-up pass computes subtree ends, static sizes and greedy flags, and a
top-down pass runs the per-node rules, the window layout's tail flags and the
codec contract's per-node checks.  Rule order decides which error a graph
breaking several rules reports: duplicate names first, then the per-node
rules node by node in pre-order, then shared LENGTH targets, then window
layout, then the codec contract; the top-down pass raises a per-node error at
once and holds the first window and contract errors until it ends.

:func:`lookup_index` also returns what the walk and the bottom-up pass hold,
as a :class:`GraphIndex`: the only place where the codecs' structural facts
about a graph are worked out.  The engine keeps it on its working clone as
:attr:`FormatGraph.lookup_index`; :func:`repro.wire.plan.compile_plan` and the
specializer compile from it (so every codec tier compiles only validated
graphs, and what the rules exclude no tier re-checks per message), and the
plan's ``self_framing`` flag, which framing reads, is its root greedy flag.
"""

from __future__ import annotations

from typing import NamedTuple

from .boundary import BoundaryKind
from .errors import GraphError
from .graph import FormatGraph
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


class GraphIndex(NamedTuple):
    """What validating a graph worked out about it (see :func:`lookup_index`)."""

    #: every node name mapped to its node, in pre-order.
    by_name: dict[str, Node]
    #: every name a boundary or a presence condition references.
    referenced: set[str]
    #: the nodes in pre-order (serialization order).
    nodes: list[Node]
    #: length-field name -> the LENGTH-bounded node it measures.
    length_sources: dict[str, Node]
    #: counter-field name -> the first COUNTER-bounded node it counts.
    counter_sources: dict[str, Node]
    #: :func:`~repro.core.graph.static_size` of each node of ``nodes``.
    static_sizes: list[int | None]
    #: :func:`~repro.core.graph.is_greedy` of the root: its parse consults the
    #: end of the stream, so its messages do not frame back to back.
    greedy: bool


def validate_graph(graph: FormatGraph) -> None:
    """Raise :class:`GraphError` when ``graph`` violates any structural rule."""
    lookup_index(graph)


def lookup_index(graph: FormatGraph) -> GraphIndex:
    """Validate ``graph`` as :func:`validate_graph` does and return what the
    walk and the bottom-up pass found, as a :class:`GraphIndex`."""
    nodes, position, ref_targets, shared_length, length_sources, counter_sources = (
        _walk(graph))
    end, sizes, greedy = _bottom_up(nodes)
    tail_allowed = [True] + [False] * (len(nodes) - 1)
    window_error = contract_error = None
    presences = []
    origins = set()  # step tuples of every origin
    values = []  # step tuples of terminal and synthesis origins
    syntheses = []
    for index, node in enumerate(nodes):
        node_type = node.type
        boundary = node.boundary
        kind = boundary.kind
        children = node.children
        for child in children:
            if child.parent is not node:
                raise GraphError(f"node {child.name!r} has a stale parent link "
                                 f"(expected {node.name!r})")
        if node_type is _TERMINAL:
            if children:
                raise GraphError(f"terminal {node.name!r} cannot have children")
            if kind not in _TERMINAL_BOUNDARIES:
                raise GraphError(f"terminal {node.name!r} cannot use a {kind.value} boundary")
            value_kind = node.value_kind
            if value_kind is _UINT and kind is not _FIXED:
                raise GraphError(f"uint terminal {node.name!r} requires a fixed boundary")
            if value_kind is _UINT and not boundary.size:
                raise GraphError(f"uint terminal {node.name!r} requires a positive size")
            if node.is_pad:
                if kind is not _FIXED:
                    raise GraphError(f"pad terminal {node.name!r} requires a fixed boundary")
                if node.origin is not None:
                    raise GraphError(f"pad terminal {node.name!r} cannot carry a logical origin")
            if node.name in ref_targets:
                _check_length_field(node)
        elif node_type is _SEQUENCE:
            if not children:
                raise GraphError(f"sequence {node.name!r} must have at least one child")
            if kind not in _SEQUENCE_BOUNDARIES:
                raise GraphError(f"sequence {node.name!r} cannot use a {kind.value} boundary")
        else:  # Optional, Repetition and Tabular wrap exactly one sub-node.
            if len(children) != 1:
                raise GraphError(f"{node_type.value} node {node.name!r} must have exactly "
                                 f"one child, got {len(children)}")
            if node_type is _OPTIONAL and kind is not _DELEGATED:
                raise GraphError(f"optional {node.name!r} must use a delegated boundary")
            if node_type is _REPETITION and kind not in _REPETITION_BOUNDARIES:
                raise GraphError(f"repetition {node.name!r} cannot use a {kind.value} boundary")
            if node_type is _TABULAR and kind is not _COUNTER:
                raise GraphError(f"tabular {node.name!r} must use a counter boundary")
        # A boundary carries ``ref`` only when it is LENGTH or COUNTER.
        ref = boundary.ref
        presence = node.presence_ref
        refers = ref is not None or presence is not None
        if refers:
            _check_references(graph, node, index, nodes, position, end)
            if presence is not None:
                presences.append(presence)
        if node.synthesis is not None or node.mirrored or node.codec_chain:
            _check_obfuscation_metadata(node, sizes[index])
        # Window layout: a greedy node must sit in tail position, or the parser
        # would swallow what follows it.  Only a Sequence's last child and an
        # Optional's child inherit the tail position; a node opening its own
        # window (Length boundary, mirrored region) resets it for its children.
        if greedy[index] and not tail_allowed[index] and window_error is None:
            window_error = f"greedy node {node.name!r} is not in tail position of its window"
        if node_type is _SEQUENCE or node_type is _OPTIONAL:
            tail_allowed[position[children[-1].name]] = (
                kind is _LENGTH or node.mirrored or tail_allowed[index]
            )
        origin = node.origin
        if origin is not None:
            steps = origin.steps
            origins.add(steps)
            if node_type is _TERMINAL:
                values.append(steps)
            elif node.synthesis is not None:
                values.append(steps)
                syntheses.append(node)
        if contract_error is None and (origin is None or refers):
            contract_error = _contract_error(node, ref_targets, nodes, position)
    if shared_length is not None:
        raise GraphError(shared_length)
    if window_error is not None:
        raise GraphError(window_error)
    if contract_error is not None:
        raise GraphError(contract_error)
    _check_codec_contract(nodes, origins, values, syntheses)
    return GraphIndex(dict(zip(position, nodes)), ref_targets.union(presences), nodes,
                      length_sources, counter_sources, sizes, greedy[0])


def _walk(graph: FormatGraph):
    """Pre-order nodes, name positions, LENGTH/COUNTER targets, the error of
    the first terminal backing two LENGTH boundaries (counters may be shared),
    raised later in rule order, and the length and counter maps of
    :class:`GraphIndex`.
    """
    nodes: list[Node] = []
    position: dict[str, int] = {}
    ref_targets: set[str] = set()
    length_sources: dict[str, Node] = {}
    counter_sources: dict[str, Node] = {}
    shared_length = None
    stack = [graph.root]
    while stack:
        node = stack.pop()
        name = node.name
        if name in position:
            raise GraphError(f"duplicate node name {name!r} in graph {graph.name!r}")
        position[name] = len(nodes)
        nodes.append(node)
        ref = node.boundary.ref  # only LENGTH and COUNTER boundaries carry one
        if ref is not None:
            ref_targets.add(ref)
            if node.boundary.kind is not _LENGTH:
                counter_sources.setdefault(ref, node)
            elif shared_length is None:
                previous = length_sources.setdefault(ref, node)
                if previous is not node:
                    shared_length = (
                        f"terminal {ref!r} is the length of both {previous.name!r} "
                        f"and {name!r}"
                    )
        if node.children:
            stack.extend(reversed(node.children))
    return nodes, position, ref_targets, shared_length, length_sources, counter_sources


def _bottom_up(nodes: list[Node]):
    """Subtree ends, :func:`~repro.core.graph.static_size` and
    :func:`~repro.core.graph.is_greedy` of the pre-order ``nodes``, children
    first, on any tree the walk accepts.  ``end[i]`` is one past node ``i``'s
    subtree, so its children sit at ``i + 1``, ``end[i + 1]``, ...

    A mirrored node is greedy exactly when its boundary is END: the parser
    extracts its region first, so the region, not the node's children,
    decides how far it reads."""
    end = list(range(1, len(nodes) + 1))
    sizes: list[int | None] = [None] * len(nodes)
    greedy = [False] * len(nodes)
    for index in range(len(nodes) - 1, -1, -1):
        node = nodes[index]
        node_type = node.type
        kind = node.boundary.kind
        open_ended = kind is _END or kind is _DELEGATED  # can take a window's rest
        child = index + 1
        if node_type is _SEQUENCE:
            size, any_greedy = 0, False
            for _ in node.children:
                child_size = sizes[child]
                size = None if size is None or child_size is None else size + child_size
                any_greedy = any_greedy or greedy[child]
                child = end[child]
            sizes[index] = None if kind is _FIXED and node.boundary.size != size else size
            greedy[index] = open_ended and any_greedy
        else:
            for _ in node.children:
                child = end[child]
            if node_type is _TERMINAL:
                sizes[index] = node.boundary.size if kind is _FIXED else None
                greedy[index] = open_ended
            elif node_type is _REPETITION:
                greedy[index] = kind is _END
            elif node_type is _OPTIONAL:  # its first child follows it in pre-order
                greedy[index] = open_ended and (
                    node.presence_ref is None or (child > index + 1 and greedy[index + 1])
                )
        if open_ended and node.mirrored:  # no other mirrored node is greedy
            greedy[index] = kind is _END
        end[index] = child
    return end, sizes, greedy


# ---------------------------------------------------------------------------
# individual rules
# ---------------------------------------------------------------------------


def _check_length_field(node: Node) -> None:
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
    for ref in (node.boundary.ref, node.presence_ref):
        if ref is None:
            continue
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


def _check_obfuscation_metadata(node: Node, size: int | None) -> None:
    """Synthesis, mirroring and codec-chain rules; ``size`` is the node's static
    size, which decides :func:`~repro.core.graph.parse_window_known`."""
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
        if node.boundary.kind not in (_FIXED, _LENGTH, _END) and size is None:
            raise GraphError(
                f"mirrored node {node.name!r} has no parse-time determinable extent"
            )
    for op in node.codec_chain:
        bytewise = op.bytewise
        if bytewise and node.value_kind is _UINT:
            raise GraphError(f"bytewise value operation on uint terminal {node.name!r}")
        if node.type is not _TERMINAL:
            raise GraphError(f"only terminals may carry a codec chain ({node.name!r})")
        if bytewise and node.boundary.kind is _DELIMITED:
            raise GraphError(
                f"bytewise value operation on delimited terminal {node.name!r} could "
                f"collide with the delimiter"
            )
        if not bytewise:
            if node.value_kind is not _UINT:
                raise GraphError(
                    f"integer value operation on non-uint terminal {node.name!r}"
                )
            if op.width != node.boundary.size:
                raise GraphError(
                    f"integer value operation width mismatch on terminal {node.name!r}"
                )


def _contract_error(node: Node, ref_targets: set[str], nodes: list[Node],
                    position: dict[str, int]) -> str | None:
    """The first of the per-node rules of :func:`_check_codec_contract` that
    ``node`` breaks, if any."""
    if node.origin is None:
        if node.type is _REPETITION or node.type is _TABULAR:
            return f"{node.type.value} node {node.name!r} must carry a logical origin"
        if (node.type is _TERMINAL and not node.is_pad
                and node.name not in ref_targets
                and (node.parent is None or node.parent.synthesis is None)):
            return (
                f"terminal {node.name!r} must carry a logical origin: it is no "
                f"pad, length/counter field or synthesis child"
            )
    ref = node.boundary.ref
    if ref is not None:
        # A reference target precedes the node, so it is never the root.
        holder = nodes[position[ref]].parent
        if holder.synthesis is not None and (
                node.boundary.kind is not _LENGTH or node.parent is not holder):
            return (
                f"synthesis child {ref!r} of {holder.name!r} may be referenced "
                f"only by a sibling's length boundary, not by {node.name!r}"
            )
    presence = node.presence_ref
    if (presence is not None and node.type is _OPTIONAL
            and nodes[position[presence]].origin is None):
        return (
            f"presence reference {presence!r} of optional {node.name!r} must "
            f"carry a logical origin"
        )
    return None


def _check_codec_contract(nodes: list[Node], origins: set, values: list,
                          syntheses: list[Node]) -> None:
    """Where the codecs find every value, checked after every other rule.

    The top-down pass checks the first four per node (:func:`_contract_error`)
    and collects the origins this function checks the last two on.

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
