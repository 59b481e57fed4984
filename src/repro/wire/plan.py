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
* whether back-to-back messages frame on a bare stream,
* one composed codec callable per terminal (codec chain + value encoding
  fused, with byte-translation tables for byte-wise chains),
* pre-encoded delimiters and, per length field, the node it measures and
  the resolver that encodes the measure (its uint terminal's encoder).

Every uint encoder checks the *logical* value against the field's width
before the chain runs, so an integer too large for its field raises the same
error in every dialect instead of wrapping modulo the width under an ADD
step or leaking a xor-ed value.

Only validated graphs compile: :func:`compile_plan` runs
:func:`~repro.core.validate.lookup_index` first and takes the graph-wide facts
above from the record it returns, so no plan path, and no parse or serialize
step run against a plan, re-checks a shape the validator excludes.

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
from ..core.validate import lookup_index
from ..core.values import Endian, Value, ValueKind, ValueOp, ValueOpKind, encode_value


# ---------------------------------------------------------------------------
# codec chain composition
# ---------------------------------------------------------------------------


_IDENTITY_TABLE = bytes(range(256))
_IDENTITY_INT = int.from_bytes(_IDENTITY_TABLE, "big")


def _byte_op_table(op: ValueOp, inverse: bool) -> bytes:
    """The 256-entry translation table of one byte-wise op.

    Equal to ``[op._byte_op(b, inverse) for b in range(256)]``: an addition
    rotates the identity table, a xor is one big-integer xor of it.
    """
    constant = op.constant & 0xFF
    if op.kind is ValueOpKind.XOR:
        return (_IDENTITY_INT ^ int.from_bytes(bytes((constant,)) * 256, "big")
                ).to_bytes(256, "big")
    if (op.kind is ValueOpKind.ADD) == inverse:  # subtraction
        constant = -constant & 0xFF
    return _IDENTITY_TABLE[constant:] + _IDENTITY_TABLE[:constant]


def _byte_tables(chain: tuple[ValueOp, ...]) -> tuple[bytes, bytes]:
    """Fused 256-entry translation tables of a purely byte-wise chain.

    Byte-wise operations map each byte independently, so an arbitrarily long
    chain collapses into a single ``bytes.translate`` table per direction,
    composed one op table at a time.
    """
    forward = _IDENTITY_TABLE
    for op in chain:
        forward = forward.translate(_byte_op_table(op, False))
    inverse = _IDENTITY_TABLE
    for op in reversed(chain):
        inverse = inverse.translate(_byte_op_table(op, True))
    return forward, inverse


def _int_chain_steps(chain: tuple[ValueOp, ...], *, inverse: bool
                     ) -> list[tuple[bool, int, int]]:
    """``(is_add, constant, mask)`` steps of a uint terminal's chain.

    Validation makes every op of a uint chain an integer op of the
    terminal's width.  Every integer operation is either an addition modulo a
    power of two or a xor; subtractions (and inverted additions) normalize to
    additions of the complement, so one ``(v + c) & mask`` / ``v ^ c`` step
    per op remains.  Both the plan's closures and the specializer's folded
    expressions are built from these steps.
    """
    steps: list[tuple[bool, int, int]] = []
    ordered = reversed(chain) if inverse else chain
    for op in ordered:
        modulus = 1 << (8 * op.width)
        mask = modulus - 1
        constant = op.constant % modulus
        if op.kind is ValueOpKind.XOR:
            steps.append((False, constant, mask))
        elif (op.kind is ValueOpKind.ADD) != inverse:
            steps.append((True, constant, mask))
        else:  # subtraction: add the modular complement
            steps.append((True, (modulus - constant) & mask, mask))
    return steps


def _int_chain_fn(chain: tuple[ValueOp, ...], *, inverse: bool
                  ) -> Callable[[Value], Value]:
    """Fuse a uint terminal's chain into one closure over its normalized steps."""
    steps = _int_chain_steps(chain, inverse=inverse)
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

    Returns ``None`` for the identity chain.  Validation leaves integer ops of
    the terminal's width on uints and byte-wise ops on bytes/text, so a chain
    folds into integer steps or into one translation table per direction.
    """
    if not chain:
        return None
    if kind is ValueKind.UINT:
        return _int_chain_fn(chain, inverse=False), _int_chain_fn(chain, inverse=True)
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


@dataclass(frozen=True)
class LengthField:
    """A derived length field: the node it measures and how to encode it.

    ``resolve`` maps the measured byte length of ``target`` to the field's
    ``width`` wire bytes; it is the field's uint encoder, so a length that
    does not fit in the field raises before the codec chain runs.
    """

    target: str
    width: int
    resolve: Callable[[int], bytes]


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


def _compile_encode(name: str, kind: ValueKind, endian: Endian, size: int | None,
                    delimiter: bytes, chain: tuple[ValueOp, ...]
                    ) -> Callable[[object], bytes]:
    """Encoder of one terminal: codec chain, value encoding and checks fused.

    Takes the terminal's primitives (``size`` is ``None`` unless the boundary
    is FIXED, ``delimiter`` empty unless it is DELIMITED) rather than a node;
    :func:`compile_plan` is its only caller.
    """
    if kind is ValueKind.UINT:
        # Validated uints are fixed-size and carry integer ops of their width.
        # The logical value is range-checked before the chain runs; the
        # chain's masked additions and in-range xors keep it in range.
        assert size is not None
        modulus = 1 << (8 * size)
        byteorder = endian.value
        apply_int = _int_chain_fn(chain, inverse=False) if chain else None

        def encode_uint(value: object) -> bytes:
            integer = int(value)  # type: ignore[arg-type]
            if not 0 <= integer < modulus:
                raise SerializationError(
                    f"terminal {name!r}: value {integer} does not fit in {size} byte(s)"
                )
            if apply_int is not None:
                integer = apply_int(integer)
            return integer.to_bytes(size, byteorder)

        return encode_uint

    compiled = _compile_chain(kind, chain)
    apply_ops = compiled[0] if compiled is not None else None

    if apply_ops is None:
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
# the plan
# ---------------------------------------------------------------------------


class CodecPlan:
    """Flat, precomputed execution plan of one format graph.

    Attributes
    ----------
    ref_targets:
        Names of the terminals referenced by a LENGTH or COUNTER boundary.
    length_slots:
        Length-field terminal name -> its :class:`LengthField`.
    counter_sources:
        Counter-field terminal name -> ``(counted node name, counted node
        origin path)``.
    static_sizes:
        Node name -> statically known serialized size, or ``None``.
    self_framing:
        True when back-to-back messages frame on a bare stream: the root is
        not greedy, so no parse consults the end of the stream.
    terminals:
        Value-carrying terminal name -> :class:`TerminalPlan`.
    origin_get / origin_set / list_init:
        Node name -> walker of its origin over the logical message data, taken
        from the shared :func:`repro.core.fieldpath.accessor` of the origin;
        ``counter_get`` and ``presence_get`` are the same getters keyed for
        counter fields and Optional presence checks.
    parse_program:
        The graph's :class:`~repro.wire.program.ParseProgram`, compiled by the
        first streaming decoder of the plan (``None`` until then).
    """

    __slots__ = (
        "graph_name",
        "ref_targets",
        "length_slots",
        "length_targets",
        "counter_sources",
        "derived_fields",
        "static_sizes",
        "self_framing",
        "terminals",
        "origin_get",
        "origin_set",
        "list_init",
        "counter_get",
        "presence_get",
        "parse_program",
    )

    def __init__(
        self,
        graph_name: str,
        ref_targets: frozenset[str],
        length_slots: dict[str, LengthField],
        length_targets: frozenset[str],
        counter_sources: dict[str, tuple[str, FieldPath]],
        static_sizes: dict[str, int | None],
        self_framing: bool,
        terminals: dict[str, TerminalPlan],
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
        #: region length is ever read back when resolving length fields.
        self.length_targets = length_targets
        self.counter_sources = counter_sources
        #: one-probe union of the two derived-field maps, checked once per
        #: terminal per message: length-field name -> its LengthField,
        #: counter-field name -> its (counted node name, origin) tuple.
        self.derived_fields: dict[str, LengthField | tuple[str, FieldPath]] = {
            **counter_sources,
            **length_slots,
        }
        self.static_sizes = static_sizes
        self.self_framing = self_framing
        self.terminals = terminals
        self.origin_get = origin_get
        self.origin_set = origin_set
        self.list_init = list_init
        self.counter_get = counter_get
        self.presence_get = presence_get
        self.parse_program = None

    def __repr__(self) -> str:
        return (
            f"CodecPlan({self.graph_name!r}, terminals={len(self.terminals)}, "
            f"length_slots={len(self.length_slots)}, "
            f"counters={len(self.counter_sources)})"
        )


def compile_plan(graph: FormatGraph) -> CodecPlan:
    """Validate ``graph`` and compile it into a fresh :class:`CodecPlan` (no caching).

    An invalid graph raises the validator's
    :class:`~repro.core.errors.GraphError` before anything compiles.
    """
    index = lookup_index(graph)
    by_name = index.by_name
    length_sources = index.length_sources
    counter_sources = {
        ref: (node.name, node.origin) for ref, node in index.counter_sources.items()
    }
    walkers = {}
    presence_get: dict[str, Callable] = {}
    length_slots: dict[str, LengthField] = {}
    terminals: dict[str, TerminalPlan] = {}
    for node in index.nodes:
        if node.origin is not None:
            walkers[node.name] = accessor(node.origin)
        if node.type is NodeType.OPTIONAL:
            if node.presence_ref is not None:
                # Validation gives every presence terminal an origin.
                presence_get[node.name] = accessor(by_name[node.presence_ref].origin).get
            continue
        if node.type is not NodeType.TERMINAL or node.is_pad:
            continue
        delimiter = (
            node.boundary.delimiter or b""
            if node.boundary.kind is BoundaryKind.DELIMITED
            else b""
        )
        encode = _compile_encode(
            node.name, node.value_kind, node.endian,
            node.boundary.size if node.boundary.kind is BoundaryKind.FIXED else None,
            delimiter, node.codec_chain,
        )
        terminals[node.name] = TerminalPlan(
            name=node.name,
            decode=_compile_decode(node),
            encode=encode,
            delimiter=delimiter,
        )
        target = length_sources.get(node.name)
        if target is not None:
            # Validation makes every length field a fixed-size uint.
            length_slots[node.name] = LengthField(
                target=target.name, width=node.boundary.size or 0, resolve=encode,
            )
    return CodecPlan(
        graph_name=graph.name,
        ref_targets=frozenset(length_sources) | frozenset(counter_sources),
        length_slots=length_slots,
        length_targets=frozenset(node.name for node in length_sources.values()),
        counter_sources=counter_sources,
        static_sizes=dict(zip(by_name, index.static_sizes)),
        self_framing=not index.greedy,
        terminals=terminals,
        origin_get={name: walker.get for name, walker in walkers.items()},
        origin_set={name: walker.set for name, walker in walkers.items()},
        list_init={name: walker.init_list for name, walker in walkers.items()},
        counter_get={
            field_name: accessor(origin).get
            for field_name, (_, origin) in counter_sources.items()
        },
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
    """Cached plan of ``graph``; validated and compiled on first use.

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


def cache_stats() -> dict[str, int]:
    """Hit/miss/evict counters of both plan-cache levels (a copy)."""
    return dict(_CACHE_STATS)


def reset_cache_stats() -> None:
    """Zero the cache counters (test isolation and fresh measurement runs)."""
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0
