"""Compiled codec plans.

The interpreted wire runtime used to re-derive graph-wide metadata on every
message: the parser collected the LENGTH/COUNTER reference targets in its
constructor, the serializer rebuilt the length/counter source maps per
``serialize()`` call, and the module-level convenience wrappers constructed a
fresh :class:`~repro.wire.parser.Parser` / :class:`~repro.wire.serializer.Serializer`
per invocation.  A :class:`CodecPlan` compiles a :class:`~repro.core.graph.FormatGraph`
once into a flat execution plan so that every subsequent parse/serialize runs
against precomputed state — the same compile-once/execute-many discipline the
source paper applies to its generated C++ parsers:

* the set of LENGTH/COUNTER reference targets,
* the length/counter source maps keyed by the derived field's name,
* the resolved static size of every node,
* one composed codec callable per terminal (codec chain + value encoding
  fused, with byte-translation tables for byte-wise chains),
* pre-encoded delimiters and fixed-width length-slot templates.

Plans are cached at two levels (:func:`plan_for`).  Graphs stamped with an
obfuscation-plan fingerprint (``graph.plan_fingerprint``, set by
:meth:`repro.transforms.plan.ObfuscationPlan.replay` and
:meth:`~repro.transforms.engine.ObfuscationResult.plan`) are keyed by that
fingerprint — a value stable across replays and across processes — so every
replay of one plan shares a single compiled slot instead of compiling per
graph object.  Unstamped graphs fall back to caching per graph *identity*.
Both levels are invalidated when a transformation rewrites the graph in place
(the obfuscation engine calls :func:`invalidate` after every applied
transformation, which also clears the stamp: a mutated graph no longer is the
format its plan fingerprint names).  A plan never holds a reference to the
graph or its nodes — only names, primitives and closures over immutable node
attributes — so the cache cannot leak graphs and a plan can never observe a
node mutated after compilation.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from ..core.boundary import BoundaryKind
from ..core.errors import SerializationError
from ..core.fieldpath import FieldPath, accessor
from ..core.graph import FormatGraph
from ..core.node import Node, NodeType
from ..core.values import (
    Value,
    ValueKind,
    ValueOp,
    ValueOpKind,
    apply_chain,
    encode_value,
    invert_chain,
)
from .pieces import LengthSlot


# ---------------------------------------------------------------------------
# codec chain composition
# ---------------------------------------------------------------------------


def _byte_tables(chain: tuple[ValueOp, ...]) -> tuple[bytes, bytes]:
    """Fused 256-entry translation tables of a purely byte-wise chain.

    Byte-wise operations map each byte independently, so an arbitrarily long
    chain collapses into a single ``bytes.translate`` table per direction.
    """
    forward = list(range(256))
    for op in chain:
        forward = [op._byte_op(byte, False) for byte in forward]
    inverse = list(range(256))
    for op in reversed(chain):
        inverse = [op._byte_op(byte, True) for byte in inverse]
    return bytes(forward), bytes(inverse)


def _int_chain_fn(chain: tuple[ValueOp, ...], *, inverse: bool
                  ) -> Callable[[Value], Value] | None:
    """Fuse a pure-integer chain into one closure over (add, xor) steps.

    Every integer operation is either an addition modulo a power of two or a
    xor; subtractions (and inverted additions) normalize to additions of the
    complement, so one ``(v + c) & mask`` / ``v ^ c`` step per op remains.
    Returns ``None`` when the chain contains byte-wise or width-less ops.
    """
    steps: list[tuple[bool, int, int]] = []  # (is_add, constant, mask)
    ordered = reversed(chain) if inverse else chain
    for op in ordered:
        if op.bytewise or op.width is None:
            return None
        modulus = 1 << (8 * op.width)
        mask = modulus - 1
        constant = op.constant % modulus
        if op.kind is ValueOpKind.XOR:
            steps.append((False, constant, mask))
        elif (op.kind is ValueOpKind.ADD) != inverse:
            steps.append((True, constant, mask))
        else:  # subtraction: add the modular complement
            steps.append((True, (modulus - constant) & mask, mask))
    if len(steps) == 1:
        is_add, constant, mask = steps[0]
        if is_add:
            return lambda value: (int(value) + constant) & mask
        return lambda value: int(value) ^ constant
    fused = tuple(steps)

    def run(value: Value) -> Value:
        integer = int(value)  # type: ignore[arg-type]
        for is_add, constant, mask in fused:
            integer = (integer + constant) & mask if is_add else integer ^ constant
        return integer

    return run


def _compile_chain(kind: ValueKind, chain: tuple[ValueOp, ...]
                   ) -> tuple[Callable[[Value], Value], Callable[[Value], Value]] | None:
    """Compose a codec chain into one ``(apply, invert)`` callable pair.

    Returns ``None`` for the identity chain.  Chains that mix byte-wise and
    integer operations (never produced by the transformations, but permitted
    by the data model) fall back to the generic per-op interpreters.
    """
    if not chain:
        return None
    if kind is ValueKind.UINT:
        apply_fn = _int_chain_fn(chain, inverse=False)
        invert_fn = _int_chain_fn(chain, inverse=True)
        if apply_fn is not None and invert_fn is not None:
            return apply_fn, invert_fn
    if all(op.bytewise for op in chain) and kind in (ValueKind.BYTES, ValueKind.TEXT):
        forward_table, inverse_table = _byte_tables(chain)
        if kind is ValueKind.BYTES:
            def apply_fused(value: Value) -> Value:
                data = value if isinstance(value, bytes) else encode_value(value, kind)
                return data.translate(forward_table)

            def invert_fused(value: Value) -> Value:
                data = value if isinstance(value, bytes) else encode_value(value, kind)
                return data.translate(inverse_table)
        else:
            def apply_fused(value: Value) -> Value:
                data = encode_value(value, kind)
                return data.translate(forward_table).decode("latin-1")

            def invert_fused(value: Value) -> Value:
                data = encode_value(value, kind)
                return data.translate(inverse_table).decode("latin-1")
        return apply_fused, invert_fused

    def apply_generic(value: Value) -> Value:
        return apply_chain(value, kind, chain)

    def invert_generic(value: Value) -> Value:
        return invert_chain(value, kind, chain)

    return apply_generic, invert_generic


# ---------------------------------------------------------------------------
# per-terminal plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TerminalPlan:
    """Precompiled encode/decode path of one value-carrying terminal.

    ``decode`` maps raw wire bytes to the logical value (value decoding fused
    with the inverted codec chain); ``encode`` maps a logical value to wire
    bytes (codec chain fused with value encoding, fixed-size and delimiter
    checks included).  ``delimiter`` is the pre-encoded terminator appended
    after the value (``b""`` when the terminal is not delimited).
    """

    name: str
    decode: Callable[[bytes], Value]
    encode: Callable[[object], bytes]
    delimiter: bytes


def _compile_decode(node: Node) -> Callable[[bytes], Value]:
    kind = node.value_kind
    assert kind is not None
    compiled = _compile_chain(kind, node.codec_chain)
    if kind is ValueKind.UINT:
        byteorder = node.endian.value
        if compiled is None:
            return lambda raw: int.from_bytes(raw, byteorder)
        _, invert = compiled
        return lambda raw: invert(int.from_bytes(raw, byteorder))
    if kind is ValueKind.BYTES:
        if compiled is None:
            return bytes
        _, invert = compiled
        return lambda raw: invert(bytes(raw))
    # TEXT
    if compiled is None:
        return lambda raw: raw.decode("latin-1")
    _, invert = compiled
    return lambda raw: invert(raw.decode("latin-1"))


def _compile_encode(node: Node) -> Callable[[object], bytes]:
    kind = node.value_kind
    assert kind is not None
    name = node.name
    endian = node.endian
    size = node.boundary.size if node.boundary.kind is BoundaryKind.FIXED else None
    delimiter = (
        node.boundary.delimiter or b""
        if node.boundary.kind is BoundaryKind.DELIMITED
        else b""
    )
    compiled = _compile_chain(kind, node.codec_chain)
    apply_ops = compiled[0] if compiled is not None else None

    if apply_ops is None and kind is ValueKind.UINT and size is not None and size > 0:
        # Fixed-width unsigned integer without a codec chain: by far the most
        # common terminal shape — encode with one bound int.to_bytes call.
        modulus = 1 << (8 * size)
        byteorder = endian.value

        def encode_uint_fast(value: object) -> bytes:
            integer = int(value)  # type: ignore[arg-type]
            if not 0 <= integer < modulus:
                raise SerializationError(
                    f"terminal {name!r}: value {integer} does not fit in {size} byte(s)"
                )
            return integer.to_bytes(size, byteorder)

        return encode_uint_fast

    if apply_ops is None and kind in (ValueKind.BYTES, ValueKind.TEXT):
        label = "bytes" if kind is ValueKind.BYTES else "text"

        def encode_data_fast(value: object) -> bytes:
            if isinstance(value, str):
                data = value.encode("latin-1")
            elif isinstance(value, (bytes, bytearray)):
                data = bytes(value)
            else:
                raise SerializationError(
                    f"terminal {name!r}: cannot encode {type(value).__name__} as {label}"
                )
            if size is not None and len(data) != size:
                raise SerializationError(
                    f"terminal {name!r}: fixed-size field expects {size} byte(s), "
                    f"value has {len(data)}"
                )
            if delimiter and delimiter in data:
                raise SerializationError(
                    f"value of delimited terminal {name!r} contains its "
                    f"delimiter {delimiter!r}"
                )
            return data

        return encode_data_fast

    def encode(value: object) -> bytes:
        if apply_ops is not None:
            value = apply_ops(value)  # type: ignore[arg-type]
        try:
            encoded = encode_value(value, kind, size=size, endian=endian)  # type: ignore[arg-type]
        except SerializationError as exc:
            raise SerializationError(f"terminal {name!r}: {exc}") from exc
        if delimiter and delimiter in encoded:
            raise SerializationError(
                f"value of delimited terminal {name!r} contains its "
                f"delimiter {delimiter!r}"
            )
        return encoded

    return encode


# ---------------------------------------------------------------------------
# static size resolution
# ---------------------------------------------------------------------------


def _compute_static_sizes(root: Node) -> dict[str, int | None]:
    """Resolve :func:`repro.core.graph.static_size` for every node in one pass."""
    sizes: dict[str, int | None] = {}
    # Post-order: children are resolved before their parent sums them.
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            for child in node.children:
                stack.append((child, False))
            continue
        if node.type is NodeType.TERMINAL:
            sizes[node.name] = (
                node.boundary.size if node.boundary.kind is BoundaryKind.FIXED else None
            )
            continue
        if node.type in (NodeType.OPTIONAL, NodeType.REPETITION, NodeType.TABULAR):
            sizes[node.name] = None
            continue
        total: int | None = 0
        for child in node.children:
            child_size = sizes[child.name]
            if child_size is None:
                total = None
                break
            total += child_size
        if (
            total is not None
            and node.boundary.kind is BoundaryKind.FIXED
            and node.boundary.size != total
        ):
            total = None
        sizes[node.name] = total
    return sizes


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------


class CodecPlan:
    """Flat, precomputed execution plan of one format graph.

    Attributes
    ----------
    ref_targets:
        Names of the terminals referenced by a LENGTH or COUNTER boundary.
    length_slots:
        Length-field terminal name -> pre-built :class:`LengthSlot` template
        (``context=()``; the serializer stamps the live repetition context).
    counter_sources:
        Counter-field terminal name -> ``(counted node name, counted node
        origin path)``.
    static_sizes:
        Node name -> statically known serialized size, or ``None``.
    terminals:
        Value-carrying terminal name -> :class:`TerminalPlan`.
    presence_origins:
        Optional-node name -> logical origin path of its presence terminal
        (only nodes whose presence reference resolves to an origin-carrying
        terminal appear here).
    origin_get / origin_set / list_init:
        Node name -> walker of its origin over the logical message data, taken
        from the shared :func:`repro.core.fieldpath.accessor` of the origin;
        ``counter_get`` and ``presence_get`` are the same getters keyed for
        counter fields and Optional presence checks.
    """

    __slots__ = (
        "graph_name",
        "ref_targets",
        "length_slots",
        "length_targets",
        "counter_sources",
        "derived_fields",
        "static_sizes",
        "terminals",
        "presence_origins",
        "origin_get",
        "origin_set",
        "list_init",
        "counter_get",
        "presence_get",
    )

    def __init__(
        self,
        graph_name: str,
        ref_targets: frozenset[str],
        length_slots: dict[str, LengthSlot],
        length_targets: frozenset[str],
        counter_sources: dict[str, tuple[str, FieldPath | None]],
        static_sizes: dict[str, int | None],
        terminals: dict[str, TerminalPlan],
        presence_origins: dict[str, FieldPath],
        origin_get: dict[str, Callable],
        origin_set: dict[str, Callable],
        list_init: dict[str, Callable],
        counter_get: dict[str, Callable],
        presence_get: dict[str, Callable],
    ):
        self.graph_name = graph_name
        self.ref_targets = ref_targets
        self.length_slots = length_slots
        #: names of the LENGTH-bounded nodes: the only nodes whose measured
        #: region length is ever read back when resolving length slots.
        self.length_targets = length_targets
        self.counter_sources = counter_sources
        #: one-probe union of the two derived-field maps, checked once per
        #: terminal per message: length-field name -> its LengthSlot template,
        #: counter-field name -> its (counted node name, origin) tuple.
        self.derived_fields: dict[str, LengthSlot | tuple[str, FieldPath | None]] = {
            **counter_sources,
            **length_slots,
        }
        self.static_sizes = static_sizes
        self.terminals = terminals
        self.presence_origins = presence_origins
        self.origin_get = origin_get
        self.origin_set = origin_set
        self.list_init = list_init
        self.counter_get = counter_get
        self.presence_get = presence_get

    def __repr__(self) -> str:
        return (
            f"CodecPlan({self.graph_name!r}, terminals={len(self.terminals)}, "
            f"length_slots={len(self.length_slots)}, "
            f"counters={len(self.counter_sources)})"
        )


def compile_plan(graph: FormatGraph) -> CodecPlan:
    """Compile ``graph`` into a fresh :class:`CodecPlan` (no caching)."""
    ref_targets: set[str] = set()
    length_sources: dict[str, Node] = {}
    counter_sources: dict[str, tuple[str, FieldPath | None]] = {}
    terminal_nodes: list[Node] = []
    origins: dict[str, FieldPath] = {}
    presence_refs: dict[str, str] = {}
    for node in graph.nodes():
        kind = node.boundary.kind
        if kind is BoundaryKind.LENGTH and node.boundary.ref is not None:
            ref_targets.add(node.boundary.ref)
            length_sources[node.boundary.ref] = node
        elif kind is BoundaryKind.COUNTER and node.boundary.ref is not None:
            ref_targets.add(node.boundary.ref)
            counter_sources.setdefault(
                node.boundary.ref, (node.name, node.origin)
            )
        if node.origin is not None:
            origins[node.name] = node.origin
        if node.type is NodeType.OPTIONAL and node.presence_ref is not None:
            presence_refs[node.name] = node.presence_ref
        if node.type is NodeType.TERMINAL and not node.is_pad:
            terminal_nodes.append(node)
    presence_origins = {
        name: origins[ref] for name, ref in presence_refs.items() if ref in origins
    }
    walkers = {name: accessor(origin) for name, origin in origins.items()}
    counter_get = {
        field_name: accessor(source_origin).get
        for field_name, (_, source_origin) in counter_sources.items()
        if source_origin is not None
    }
    presence_get = {
        name: accessor(path).get for name, path in presence_origins.items()
    }
    length_slots: dict[str, LengthSlot] = {}
    terminals: dict[str, TerminalPlan] = {}
    for node in terminal_nodes:
        terminals[node.name] = TerminalPlan(
            name=node.name,
            decode=_compile_decode(node),
            encode=_compile_encode(node),
            delimiter=(
                node.boundary.delimiter or b""
                if node.boundary.kind is BoundaryKind.DELIMITED
                else b""
            ),
        )
        target = length_sources.get(node.name)
        if target is not None:
            length_slots[node.name] = LengthSlot(
                node=node.name,
                target=target.name,
                width=node.boundary.size or 0,
                endian=node.endian,
                codec_chain=node.codec_chain,
                mirrored=False,
                origin=node.origin,
                context=(),
            )
    return CodecPlan(
        graph_name=graph.name,
        ref_targets=frozenset(ref_targets),
        length_slots=length_slots,
        length_targets=frozenset(node.name for node in length_sources.values()),
        counter_sources=counter_sources,
        static_sizes=_compute_static_sizes(graph.root),
        terminals=terminals,
        presence_origins=presence_origins,
        origin_get={name: walker.get for name, walker in walkers.items()},
        origin_set={name: walker.set for name, walker in walkers.items()},
        list_init={name: walker.init_list for name, walker in walkers.items()},
        counter_get=counter_get,
        presence_get=presence_get,
    )


# ---------------------------------------------------------------------------
# the shared plan cache
# ---------------------------------------------------------------------------

#: Plans keyed by graph identity (unstamped graphs), least-recently-used
#: first.  Each entry holds a dead-callback weakref to its graph, so entries
#: evict both on garbage collection *and* — the case weak references alone
#: cannot bound — when a long-lived rotation-heavy server keeps thousands of
#: dialect graphs alive at once: beyond the capacity the least recently used
#: plan is dropped (and recompiled on demand if that graph comes back).
_PLAN_CACHE: "OrderedDict[int, tuple[weakref.ref, CodecPlan]]" = OrderedDict()
_PLAN_CACHE_CAPACITY = 128

#: Plans keyed by obfuscation-plan fingerprint (stamped graphs).  The key is
#: content-derived, so two replays of the same plan — different graph objects,
#: different processes compiling independently — resolve to one slot.  Bounded
#: LRU: rotation workloads cycle through many plans, and an unbounded
#: content-keyed dict would never evict.
_FINGERPRINT_PLANS: "OrderedDict[str, CodecPlan]" = OrderedDict()
_FINGERPRINT_CAPACITY = 64

#: Hit/miss/evict counters of both cache levels (diagnostics: a long-lived
#: server can watch eviction churn to detect a capacity set too low).
_CACHE_STATS = {
    "identity_hits": 0, "identity_misses": 0, "identity_evictions": 0,
    "fingerprint_hits": 0, "fingerprint_misses": 0, "fingerprint_evictions": 0,
}


def _forget_identity(key: int) -> None:
    """Weakref death callback: drop the entry of a collected graph."""
    _PLAN_CACHE.pop(key, None)


def plan_for(graph: FormatGraph) -> CodecPlan:
    """Cached plan of ``graph``; compiled on first use.

    Stamped graphs (``graph.plan_fingerprint`` set by the obfuscation-plan
    layer) share their compiled plan with every other graph replayed from the
    same plan; unstamped graphs are cached per object identity in a bounded
    LRU.
    """
    fingerprint = getattr(graph, "plan_fingerprint", None)
    if fingerprint is not None:
        plan = _FINGERPRINT_PLANS.get(fingerprint)
        if plan is not None:
            _CACHE_STATS["fingerprint_hits"] += 1
            _FINGERPRINT_PLANS.move_to_end(fingerprint)
            return plan
        _CACHE_STATS["fingerprint_misses"] += 1
        plan = compile_plan(graph)
        while len(_FINGERPRINT_PLANS) >= _FINGERPRINT_CAPACITY:
            _FINGERPRINT_PLANS.popitem(last=False)
            _CACHE_STATS["fingerprint_evictions"] += 1
        _FINGERPRINT_PLANS[fingerprint] = plan
        return plan
    key = id(graph)
    entry = _PLAN_CACHE.get(key)
    if entry is not None and entry[0]() is graph:
        _CACHE_STATS["identity_hits"] += 1
        _PLAN_CACHE.move_to_end(key)
        return entry[1]
    _CACHE_STATS["identity_misses"] += 1
    plan = compile_plan(graph)
    while len(_PLAN_CACHE) >= _PLAN_CACHE_CAPACITY:
        _PLAN_CACHE.popitem(last=False)
        _CACHE_STATS["identity_evictions"] += 1
    _PLAN_CACHE[key] = (weakref.ref(graph, lambda _ref, _k=key: _forget_identity(_k)), plan)
    return plan


def invalidate(graph: FormatGraph) -> bool:
    """Drop the cached plan of ``graph`` (after an in-place transformation).

    Clears the graph's plan-fingerprint stamp as well: a mutated graph is no
    longer the format its fingerprint names.  The fingerprint-keyed slot
    itself stays — other replays of the same plan remain valid.  Returns True
    when a cached plan or a stamp was actually dropped.
    """
    dropped = _PLAN_CACHE.pop(id(graph), None) is not None
    if getattr(graph, "plan_fingerprint", None) is not None:
        graph.plan_fingerprint = None
        dropped = True
    return dropped


def cached_plan_count() -> int:
    """Number of live cached plans (diagnostics and tests)."""
    return len(_PLAN_CACHE) + len(_FINGERPRINT_PLANS)


def cache_stats() -> dict[str, int]:
    """Hit/miss/evict counters of both plan-cache levels (a copy)."""
    return dict(_CACHE_STATS)


def reset_cache_stats() -> None:
    """Zero the cache counters (test isolation and fresh measurement runs)."""
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0
