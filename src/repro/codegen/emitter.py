"""The code generator.

Given a (possibly obfuscated) message format graph, :func:`generate_module`
emits the source code of a standalone Python serialization library: one AST
struct class and one serializer/parser function per graph node, stable
accessors derived from the original specification field names, and a public
``serialize`` / ``parse`` / ``parse_ast`` API.

This mirrors the role of the C code generated by the paper's framework: the
potency metrics of the evaluation (number of lines, number of structures,
call-graph size and depth) are measured on this generated source, and the cost
metrics (parsing and serialization time) are measured by executing it.
"""

from __future__ import annotations

from ..core.boundary import Boundary, BoundaryKind
from ..core.errors import CodegenError
from ..core.fieldpath import INDEX, FieldPath
from ..core.graph import FormatGraph, static_size
from ..core.node import Node, NodeType
from ..core.values import ValueOp
from .naming import accessor_suffix, parser_function, sanitize, serializer_function, struct_class
from .preamble import PREAMBLE

#: Separator between the fixed preamble and the specification-derived code.
#: The potency metrics only measure what follows this marker.
GENERATED_MARKER = "# === generated code (emitted per specification) ==="

#: Version of the emitted module layout.  Stamped into every generated module
#: as ``__emitter_version__``; the loader refuses modules carrying a different
#: version (a stale on-disk cache entry must be regenerated, never run).
#: Bump whenever the emitted API or semantics change incompatibly.
EMITTER_VERSION = "7"


# ---------------------------------------------------------------------------
# literal rendering helpers
# ---------------------------------------------------------------------------


def _path_literal(path: FieldPath | None) -> str:
    if path is None:
        return "None"
    steps = []
    for step in path:
        steps.append('"*"' if step is INDEX else repr(step))
    if len(steps) == 1:
        return f"({steps[0]},)"
    return "(" + ", ".join(steps) + ")"


def _chain_literal(chain: tuple[ValueOp, ...]) -> str:
    if not chain:
        return "()"
    rendered = [
        f"({op.kind.value!r}, {op.constant}, {op.bytewise}, {op.width!r})" for op in chain
    ]
    if len(rendered) == 1:
        return f"({rendered[0]},)"
    return "(" + ", ".join(rendered) + ")"


def _boundary_literal(boundary: Boundary) -> str:
    kind = boundary.kind
    if kind is BoundaryKind.FIXED:
        return f'("fixed", {boundary.size})'
    if kind is BoundaryKind.DELIMITED:
        return f'("delimited", {boundary.delimiter!r})'
    if kind is BoundaryKind.LENGTH:
        return f'("length", {boundary.ref!r})'
    if kind is BoundaryKind.COUNTER:
        return f'("counter", {boundary.ref!r})'
    if kind is BoundaryKind.END:
        return '("end",)'
    return '("delegated",)'


def _value_literal(value: object) -> str:
    return repr(value)


# ---------------------------------------------------------------------------
# per-node emission
# ---------------------------------------------------------------------------


class _ModuleEmitter:
    """Builds the generated module source for one format graph."""

    def __init__(self, graph: FormatGraph, *, plan_fingerprint: str | None = None):
        self.graph = graph
        self.plan_fingerprint = (
            plan_fingerprint if plan_fingerprint is not None
            else getattr(graph, "plan_fingerprint", None)
        )
        self.lines: list[str] = []

    # -- entry point ----------------------------------------------------------

    def emit(self) -> str:
        self._emit_header()
        self.lines.append(PREAMBLE)
        self.lines.append(GENERATED_MARKER)
        self._emit_constants()
        self._emit_structs()
        for node in self.graph.nodes():
            self._emit_serializer(node)
        for node in self.graph.nodes():
            self._emit_parser(node)
        self._emit_accessors()
        self._emit_public_api()
        return "\n".join(self.lines) + "\n"

    # -- sections -------------------------------------------------------------

    def _emit_header(self) -> None:
        stats = self.graph.stats()
        self.lines.append(
            f'"""Generated serialization library for protocol {self.graph.name!r}.\n\n'
            f"Automatically generated by repro.codegen — do not edit.\n"
            f"Graph: {stats.node_count} nodes ({stats.terminal_count} terminals).\n"
            f'"""'
        )
        # Fingerprint of the obfuscation plan this module's format was
        # replayed from (None for plain or unstamped graphs), plus the emitter
        # version and specialization mode.  All live before the
        # GENERATED_MARKER so the potency metrics never count them.
        self.lines.append("")
        self.lines.append(f"__plan_fingerprint__ = {self.plan_fingerprint!r}")
        self.lines.append(f"__emitter_version__ = {EMITTER_VERSION!r}")
        self.lines.append("__specialized__ = False")

    def _emit_constants(self) -> None:
        length_targets: dict[str, str] = {}
        counter_origins: dict[str, str] = {}
        for node in self.graph.nodes():
            if node.boundary.kind is BoundaryKind.LENGTH:
                length_targets[node.boundary.ref or ""] = node.name
            elif node.boundary.kind is BoundaryKind.COUNTER:
                counter_origins.setdefault(node.boundary.ref or "", _path_literal(node.origin))
        rendered_lengths = ", ".join(
            f"{ref!r}: {target!r}" for ref, target in sorted(length_targets.items())
        )
        rendered_counters = ", ".join(
            f"{ref!r}: {origin}" for ref, origin in sorted(counter_origins.items())
        )
        self.lines.append("")
        self.lines.append(f"_LENGTH_TARGETS = {{{rendered_lengths}}}")
        self.lines.append(f"_COUNTER_ORIGINS = {{{rendered_counters}}}")
        self.lines.append("")

    def _emit_structs(self) -> None:
        self.lines.append("")
        self.lines.append("# ---- abstract syntax tree structures ----")
        for node in self.graph.nodes():
            cls = struct_class(node.name)
            if node.type is NodeType.TERMINAL:
                slots, args = ["value"], ["value"]
            elif node.type is NodeType.SEQUENCE:
                slots = [sanitize(child.name) for child in node.children]
                args = slots
            elif node.type is NodeType.OPTIONAL:
                slots, args = ["child"], ["child"]
            else:
                slots, args = ["items"], ["items"]
            slot_literal = ", ".join(f'"{slot}"' for slot in slots)
            self.lines.append("")
            self.lines.append(f"class {cls}:")
            self.lines.append(
                f'    """AST node for {node.name!r} ({node.type.value}, '
                f'{node.boundary.describe()})."""'
            )
            self.lines.append(f"    __slots__ = ({slot_literal},)")
            self.lines.append("")
            self.lines.append(f"    def __init__(self, {', '.join(args)}):")
            for slot, arg in zip(slots, args):
                self.lines.append(f"        self.{slot} = {arg}")
        self.lines.append("")

    # -- serializer functions -------------------------------------------------

    def _terminal_ser_call(self, node: Node, out: str, value_override: str | None = None) -> str:
        override = f", value_override={value_override}" if value_override is not None else ""
        return (
            f"_terminal_ser(ctx, {out}, {node.name!r}, {_path_literal(node.origin)}, "
            f"{node.value_kind.value!r}, {node.endian.value!r}, {_chain_literal(node.codec_chain)}, "
            f"{node.mirrored}, {node.is_pad}, {_boundary_literal(node.boundary)}{override})"
        )

    def _emit_serializer(self, node: Node) -> None:
        name = serializer_function(node.name)
        self.lines.append("")
        self.lines.append(f"def {name}(ctx, out):")
        self.lines.append(f'    """Serialize node {node.name!r} ({node.type.value})."""')
        if node.type is NodeType.TERMINAL:
            self.lines.append(f"    {self._terminal_ser_call(node, 'out')}")
            return
        if node.type is NodeType.SEQUENCE and node.synthesis is not None:
            self._emit_synthesis_serializer(node)
            return
        if node.type is NodeType.SEQUENCE:
            self.lines.append("    sub = []")
            for child in node.children:
                self.lines.append(f"    {serializer_function(child.name)}(ctx, sub)")
            self.lines.append(f"    _close(ctx, out, sub, {node.name!r}, {node.mirrored})")
            return
        if node.type is NodeType.OPTIONAL:
            presence = self.graph.find(node.presence_ref) if node.presence_ref else None
            presence_origin = _path_literal(presence.origin) if presence is not None else "None"
            self.lines.append("    sub = []")
            self.lines.append(
                f"    if _optional_present_ser(ctx, {_path_literal(node.origin)}, "
                f"{presence_origin}, {_value_literal(node.presence_value)}):"
            )
            self.lines.append(f"        {serializer_function(node.children[0].name)}(ctx, sub)")
            self.lines.append(f"    _close(ctx, out, sub, {node.name!r}, False)")
            return
        # Repetition / Tabular
        self.lines.append("    sub = []")
        self.lines.append(
            f"    count = _msg_list_len(ctx['message'], "
            f"_resolve({_path_literal(node.origin)}, ctx['idx']))"
        )
        self.lines.append("    for index in range(count):")
        self.lines.append("        ctx['idx'].append(index)")
        self.lines.append(f"        {serializer_function(node.children[0].name)}(ctx, sub)")
        self.lines.append("        ctx['idx'].pop()")
        if node.type is NodeType.REPETITION and node.boundary.kind is BoundaryKind.DELIMITED:
            self.lines.append(f"    _out_bytes(sub, {node.boundary.delimiter!r})")
        self.lines.append(f"    _close(ctx, out, sub, {node.name!r}, {node.mirrored})")

    def _emit_synthesis_serializer(self, node: Node) -> None:
        synthesis = node.synthesis
        assert synthesis is not None
        derived = self._derived_children(node)
        value_children = [child for child in node.children if child.name not in derived]
        if len(value_children) != 2:
            raise CodegenError(
                f"synthesis node {node.name!r} must have exactly two value children"
            )
        self.lines.append("    sub = []")
        self.lines.append(
            f"    shares = _split_values(ctx, {node.name!r}, {_path_literal(node.origin)}, "
            f"{synthesis.op.value!r}, {synthesis.kind.value!r}, {synthesis.width!r}, "
            f"{node.split_at!r})"
        )
        share_index = 0
        for child in node.children:
            if child.name in derived:
                self.lines.append(f"    {serializer_function(child.name)}(ctx, sub)")
            else:
                self.lines.append(
                    f"    {self._terminal_ser_call(child, 'sub', f'shares[{share_index}]')}"
                )
                share_index += 1
        self.lines.append(f"    _close(ctx, out, sub, {node.name!r}, {node.mirrored})")

    # -- parser functions -----------------------------------------------------

    def _terminal_par_call(self, node: Node, reader: str) -> str:
        return (
            f"_terminal_par({reader}, ctx, {node.name!r}, {node.value_kind.value!r}, "
            f"{node.endian.value!r}, {_chain_literal(node.codec_chain)}, {node.mirrored}, "
            f"{node.is_pad}, {_boundary_literal(node.boundary)})"
        )

    def _window_call(self, node: Node, reader: str) -> str:
        return (
            f"_window_par({reader}, ctx, {_boundary_literal(node.boundary)}, "
            f"{node.mirrored}, {static_size(node)!r})"
        )

    def _emit_parser(self, node: Node) -> None:
        name = parser_function(node.name)
        cls = struct_class(node.name)
        self.lines.append("")
        self.lines.append(f"def {name}(reader, ctx, msg):")
        self.lines.append(f'    """Parse node {node.name!r} ({node.type.value})."""')
        if node.type is NodeType.TERMINAL:
            self.lines.append(f"    value = {self._terminal_par_call(node, 'reader')}")
            self.lines.append(
                f"    _store(ctx, msg, {node.name!r}, {_path_literal(node.origin)}, value)"
            )
            self.lines.append(f"    return {cls}(value)")
            return
        if node.type is NodeType.SEQUENCE and node.synthesis is not None:
            self._emit_synthesis_parser(node)
            return
        if node.type is NodeType.SEQUENCE:
            self.lines.append(f"    inner, strict = {self._window_call(node, 'reader')}")
            child_vars = []
            for index, child in enumerate(node.children):
                var = f"child_{index}"
                child_vars.append(var)
                self.lines.append(f"    {var} = {parser_function(child.name)}(inner, ctx, msg)")
            self.lines.append(f"    _check_consumed(inner, strict, {node.name!r})")
            self.lines.append(f"    return {cls}({', '.join(child_vars)})")
            return
        if node.type is NodeType.OPTIONAL:
            self.lines.append(
                f"    if _opt_present_par(reader, ctx, {node.presence_ref!r}, "
                f"{_value_literal(node.presence_value)}):"
            )
            self.lines.append(
                f"        return {cls}({parser_function(node.children[0].name)}(reader, ctx, msg))"
            )
            self.lines.append(f"    return {cls}(None)")
            return
        # Repetition / Tabular
        child = node.children[0]
        self.lines.append(f"    inner, strict = {self._window_call(node, 'reader')}")
        self.lines.append(
            f"    _init_list(ctx, msg, _resolve({_path_literal(node.origin)}, ctx['idx']))"
        )
        self.lines.append("    items = []")
        kind = node.boundary.kind
        if kind is BoundaryKind.COUNTER:
            self.lines.append(f"    for index in range(_ref_val(ctx, {node.boundary.ref!r})):")
            self.lines.append("        ctx['idx'].append(index)")
            self.lines.append(f"        items.append({parser_function(child.name)}(inner, ctx, msg))")
            self.lines.append("        ctx['idx'].pop()")
        elif kind is BoundaryKind.DELIMITED:
            terminator = node.boundary.delimiter or b""
            self.lines.append("    index = 0")
            self.lines.append(
                f"    while not inner.at_end() and not inner.starts_with({terminator!r}):"
            )
            self.lines.append("        ctx['idx'].append(index)")
            self.lines.append(f"        items.append({parser_function(child.name)}(inner, ctx, msg))")
            self.lines.append("        ctx['idx'].pop()")
            self.lines.append("        index += 1")
            self.lines.append(f"    if inner.starts_with({terminator!r}):")
            self.lines.append(f"        inner.read({len(terminator)})")
        else:  # LENGTH / END (the window is bounded or runs to the end)
            self.lines.append("    index = 0")
            self.lines.append("    while not inner.at_end():")
            self.lines.append("        ctx['idx'].append(index)")
            self.lines.append(f"        items.append({parser_function(child.name)}(inner, ctx, msg))")
            self.lines.append("        ctx['idx'].pop()")
            self.lines.append("        index += 1")
        self.lines.append(f"    _check_consumed(inner, strict, {node.name!r})")
        self.lines.append(f"    return {cls}(items)")

    def _emit_synthesis_parser(self, node: Node) -> None:
        synthesis = node.synthesis
        assert synthesis is not None
        cls = struct_class(node.name)
        derived = self._derived_children(node)
        self.lines.append(f"    inner, strict = {self._window_call(node, 'reader')}")
        child_vars = []
        share_vars = []
        for index, child in enumerate(node.children):
            var = f"child_{index}"
            child_vars.append(var)
            if child.name in derived:
                self.lines.append(f"    {var} = {parser_function(child.name)}(inner, ctx, msg)")
            else:
                self.lines.append(f"    {var} = {self._terminal_par_call(child, 'inner')}")
                self.lines.append(f"    ctx['raw'][{child.name!r}] = {var}")
                share_vars.append(var)
        self.lines.append(
            f"    value = _combine({synthesis.op.value!r}, {synthesis.kind.value!r}, "
            f"{synthesis.width!r}, {share_vars[0]}, {share_vars[1]})"
        )
        self.lines.append(
            f"    _msg_set(msg, _resolve({_path_literal(node.origin)}, ctx['idx']), value)"
        )
        self.lines.append(f"    _check_consumed(inner, strict, {node.name!r})")
        wrapped = ", ".join(
            var if node.children[index].name in derived else f"{struct_class(node.children[index].name)}({var})"
            for index, var in enumerate(child_vars)
        )
        self.lines.append(f"    return {cls}({wrapped})")

    @staticmethod
    def _derived_children(node: Node) -> set[str]:
        """Names of the derived length-prefix children of a synthesis sequence."""
        return {
            child.boundary.ref
            for child in node.children
            if child.boundary.kind is BoundaryKind.LENGTH and child.boundary.ref
        }

    # -- accessors and public API ----------------------------------------------

    def _emit_accessors(self) -> None:
        self.lines.append("")
        self.lines.append("# ---- stable accessors (independent of the obfuscations) ----")
        seen: set[str] = set()
        for node in self.graph.nodes():
            if node.origin is None:
                continue
            carries_value = node.type is NodeType.TERMINAL or node.synthesis is not None
            if not carries_value:
                continue
            suffix = accessor_suffix(node.origin)
            if suffix in seen:
                continue
            seen.add(suffix)
            path = _path_literal(node.origin)
            self.lines.append("")
            self.lines.append(f"def set_{suffix}(message, value, *indices):")
            self.lines.append(
                f'    """Set logical field ``{node.origin}`` (indices bind the [*] markers)."""'
            )
            self.lines.append(f"    _msg_set(message, _resolve({path}, list(indices)), value)")
            self.lines.append("")
            self.lines.append(f"def get_{suffix}(message, *indices):")
            self.lines.append(
                f'    """Get logical field ``{node.origin}`` (indices bind the [*] markers)."""'
            )
            self.lines.append(f"    return _msg_get(message, _resolve({path}, list(indices)))")

    def _emit_public_api(self) -> None:
        root_ser = serializer_function(self.graph.root.name)
        root_par = parser_function(self.graph.root.name)
        self.lines.append("")
        self.lines.append("# ---- public API ----")
        self.lines.append("")
        self.lines.append("_DEFAULT_RNG = _random.Random(0)")
        self.lines.append("")
        self.lines.append("def serialize(message, rng=None):")
        self.lines.append('    """Serialize a logical message (nested dict) into wire bytes."""')
        self.lines.append(
            "    ctx = {'message': message, 'rng': rng if rng is not None else _DEFAULT_RNG,"
            " 'idx': [], 'lengths': {}}"
        )
        self.lines.append("    out = []")
        self.lines.append(f"    {root_ser}(ctx, out)")
        self.lines.append("    return _assemble(out, ctx['lengths'])")
        self.lines.append("")
        self.lines.append("def _run_parse(data):")
        self.lines.append("    reader = _Reader(bytes(data))")
        self.lines.append("    ctx = {'raw': {}, 'idx': []}")
        self.lines.append("    msg = {}")
        self.lines.append(f"    ast = {root_par}(reader, ctx, msg)")
        self.lines.append("    return msg, ast, reader")
        self.lines.append("")
        self.lines.append("def parse(data, strict=True):")
        self.lines.append('    """Parse wire bytes back into the logical message (nested dict)."""')
        self.lines.append("    msg, _ast, reader = _run_parse(data)")
        self.lines.append("    if strict and not reader.at_end():")
        self.lines.append(
            "        raise GeneratedCodecError('%d trailing byte(s)' % reader.remaining())"
        )
        self.lines.append("    return msg")
        self.lines.append("")
        self.lines.append("def parse_ast(data):")
        self.lines.append('    """Parse wire bytes into the generated AST structure classes."""')
        self.lines.append("    _msg, ast, _reader = _run_parse(data)")
        self.lines.append("    return ast")


def generate_module(graph: FormatGraph, *, plan_fingerprint: str | None = None,
                    specialize: bool = False) -> str:
    """Emit the source code of the standalone serialization library for ``graph``.

    The module carries a ``__plan_fingerprint__`` constant naming the
    obfuscation plan its format was replayed from — taken from
    ``graph.plan_fingerprint`` (stamped by the plan layer) unless overridden —
    plus ``__emitter_version__`` and ``__specialized__`` stamps checked by the
    loader.

    With ``specialize=True`` the readable per-node library is replaced by the
    specializing emitter's straight-line form (zero-copy parse over the raw
    buffer, ``struct``-fused fixed runs, inlined codec chains, back-patched
    length slots) — same ``serialize``/``parse`` API, same bytes, same typed
    errors, several times faster.
    """
    if specialize:
        from .specializer import generate_specialized_module

        return generate_specialized_module(graph, plan_fingerprint=plan_fingerprint)
    return _ModuleEmitter(graph, plan_fingerprint=plan_fingerprint).emit()


def generate_module_from_plan(graph: FormatGraph, plan, *,
                              specialize: bool = False) -> str:
    """Emit the library of an obfuscated dialect from *plain spec + plan*.

    ``graph`` is the plain specification graph and ``plan`` the
    :class:`~repro.transforms.plan.ObfuscationPlan` naming the dialect: the
    plan is replayed (source fingerprint checked) and the module emitted from
    the replayed graph, stamped with the plan's fingerprint.  Byte-identical
    to ``generate_module`` run on the originating engine run's graph once that
    run's plan was extracted.  ``specialize=True`` selects the straight-line
    specialized form instead of the readable library.
    """
    replayed = plan.replay(graph)
    if specialize:
        from .specializer import generate_specialized_module

        return generate_specialized_module(replayed,
                                           plan_fingerprint=plan.fingerprint)
    return _ModuleEmitter(replayed, plan_fingerprint=plan.fingerprint).emit()
