"""The specializing code generator (native-speed codec tier).

Where :func:`repro.codegen.emitter.generate_module` emits a *readable mirror*
of the interpreted runtime (one function per graph node, dict-based piece
assembly), this module compiles a format graph into **straight-line code**:
one ``parse`` and one ``serialize`` function with every graph-level decision
resolved at emit time.

* the parser runs over the raw ``bytes`` buffer with explicit offset/limit
  variables instead of :class:`~repro.wire.window.Window` objects; mirrored
  regions are extracted through a ``memoryview`` with a single reversed copy,
* runs of consecutive fixed-size terminals fuse into one
  ``struct.Struct.unpack_from`` / ``pack`` call,
* delimiter scans compile to ``bytes.find`` against pre-encoded terminators,
* codec chains inline as local-variable pipelines — masked int arithmetic for
  integer chains, module-level 256-byte translation tables for byte-wise
  chains,
* serialization appends into one shared ``bytearray``; derived length fields
  are emitted as zero placeholders and back-patched in place once their
  region has been measured (no :class:`~repro.wire.pieces.PieceList`),
* field paths of the one-key, two-key and ``list[i].key`` shapes are walked
  inline; deeper paths call the shared
  :func:`repro.core.fieldpath.accessor` bound as module constants, so the
  emitted module imports :mod:`repro.core.fieldpath`.

The emitted module raises ``GeneratedCodecError`` carrying the *same* raw
message, offset and node identity as the interpreted runtime's
:class:`~repro.core.errors.ParseError`, so the
:class:`~repro.codegen.loader.SpecializedCodec` wrapper can translate
failures into byte-for-byte identical typed errors.
"""

from __future__ import annotations

from ..core.boundary import BoundaryKind
from ..core.errors import CodegenError
from ..core.fieldpath import INDEX, FieldPath
from ..core.graph import FormatGraph
from ..core.node import Node, NodeType
from ..core.values import SynthesisOp, ValueKind, ValueOp, ValueOpKind
from ..wire.plan import _byte_tables, _compute_static_sizes

_UINT_FMT = {1: "B", 2: "H", 4: "I", 8: "Q"}


# ---------------------------------------------------------------------------
# chain folding
# ---------------------------------------------------------------------------


def _int_steps(chain: tuple[ValueOp, ...], *, inverse: bool
               ) -> list[tuple[str, int, int]] | None:
    """``(op, constant, mask)`` steps of a pure-integer chain, or ``None``.

    Mirrors the normalization of :func:`repro.wire.plan._int_chain_fn`:
    subtractions (and inverted additions) become additions of the modular
    complement, so each op is one ``(v + c) & mask`` or ``v ^ c`` step.
    """
    steps: list[tuple[str, int, int]] = []
    ordered = reversed(chain) if inverse else chain
    for op in ordered:
        if op.bytewise or op.width is None:
            return None
        modulus = 1 << (8 * op.width)
        mask = modulus - 1
        constant = op.constant % modulus
        if op.kind is ValueOpKind.XOR:
            steps.append(("xor", constant, mask))
        elif (op.kind is ValueOpKind.ADD) != inverse:
            steps.append(("add", constant, mask))
        else:
            steps.append(("add", (modulus - constant) & mask, mask))
    return steps


def _fold_int_steps(expr: str, steps: list[tuple[str, int, int]]) -> str:
    """Fold integer chain steps around ``expr`` as one nested expression."""
    for op, constant, mask in steps:
        if op == "add":
            expr = f"(({expr} + {constant}) & {mask})"
        else:
            # XOR is applied without a result mask, exactly like ValueOp.
            expr = f"({expr} ^ {constant})"
    return expr


def _chain_literal(chain: tuple[ValueOp, ...]) -> str:
    """Render a chain as op tuples for the generic preamble interpreters."""
    rendered = [
        f"({op.kind.value!r}, {op.constant}, {op.bytewise}, {op.width!r})"
        for op in chain
    ]
    if len(rendered) == 1:
        return f"({rendered[0]},)"
    return "(" + ", ".join(rendered) + ")"


# ---------------------------------------------------------------------------
# emit-time window state
# ---------------------------------------------------------------------------


class _Win:
    """Names of the buffer/offset/limit variables of the current byte window."""

    __slots__ = ("buf", "off", "end", "mv")

    def __init__(self, buf: str, off: str, end: str, mv: str | None = None):
        self.buf = buf
        self.off = off
        self.end = end
        #: name of the buffer's memoryview variable (zero-copy mirrored
        #: region extraction), when one was emitted for this buffer.
        self.mv = mv

    def bounded(self, end: str) -> "_Win":
        return _Win(self.buf, self.off, end, self.mv)


class _SpecEmitter:
    """Builds the specialized module source for one format graph."""

    def __init__(self, graph: FormatGraph, *, plan_fingerprint: str | None = None,
                 codec_key: str | None = None, emitter_version: str = "?"):
        self.graph = graph
        self.fingerprint = (
            plan_fingerprint if plan_fingerprint is not None
            else getattr(graph, "plan_fingerprint", None)
        )
        self.codec_key = codec_key
        self.emitter_version = emitter_version
        self.nodes = list(graph.nodes())
        self.index = {node.name: i for i, node in enumerate(self.nodes)}
        self.node_map = {node.name: node for node in self.nodes}
        # Reference maps, replicating compile_plan's construction order
        # (length: last bounded node per ref wins; counter: first wins).
        self.length_sources: dict[str, str] = {}
        self.counter_sources: dict[str, Node] = {}
        self.presence_refs: set[str] = set()
        for node in self.nodes:
            kind = node.boundary.kind
            if kind is BoundaryKind.LENGTH and node.boundary.ref is not None:
                self.length_sources[node.boundary.ref] = node.name
            elif kind is BoundaryKind.COUNTER and node.boundary.ref is not None:
                self.counter_sources.setdefault(node.boundary.ref, node)
            if node.type is NodeType.OPTIONAL and node.presence_ref is not None:
                self.presence_refs.add(node.presence_ref)
        self.length_targets = frozenset(self.length_sources.values())
        self.ref_targets = frozenset(self.length_sources) | frozenset(self.counter_sources)
        self.static_sizes = _compute_static_sizes(graph.root)
        # -- emission state ---------------------------------------------------
        self.cur: list[str] = []
        self.ind = 0
        self._n = 0
        self._ploops: list[str] = []
        self._sloops: list[str] = []
        self._assigned: set[str] = set()
        self._pdecls: set[str] = set()
        # -- module-level constants (deduplicated) ----------------------------
        self._structs: dict[str, str] = {}
        self._tables: dict[bytes, str] = {}
        self._zeros: set[int] = set()
        self._resolvers: dict[tuple, int] = {}
        self._accessors: dict[FieldPath, str] = {}
        self._needs: set[str] = set()

    # -- writer ---------------------------------------------------------------

    def w(self, line: str = "") -> None:
        self.cur.append("    " * self.ind + line if line else "")

    def var(self, prefix: str) -> str:
        self._n += 1
        return f"{prefix}{self._n}"

    def vvar(self, name: str) -> str:
        """The local variable holding the decoded value of terminal ``name``."""
        return f"v{self.index[name]}"

    # -- constants ------------------------------------------------------------

    def struct_const(self, fmt: str) -> str:
        name = self._structs.get(fmt)
        if name is None:
            name = f"_S{len(self._structs)}"
            self._structs[fmt] = name
        self._needs.add("struct")
        return name

    def table_const(self, table: bytes) -> str:
        name = self._tables.get(table)
        if name is None:
            name = f"_T{len(self._tables)}"
            self._tables[table] = name
        return name

    def zero_const(self, width: int) -> str:
        self._zeros.add(width)
        return f"_Z{width}"

    def accessor_call(self, path: FieldPath, loops: list[str]) -> tuple[str, str]:
        """Module constant holding the shared accessor of ``path``, plus the
        source of the loop indices that bind its INDEX markers."""
        name = self._accessors.get(path)
        if name is None:
            name = f"_A{len(self._accessors)}"
            self._accessors[path] = name
        bound = loops[:path.index_arity()]
        return name, f"({bound[0]},)" if len(bound) == 1 else f"({', '.join(bound)})"

    def resolver_id(self, width: int, endian: str, chain: tuple[ValueOp, ...]) -> int:
        key = (width, endian, chain)
        rid = self._resolvers.get(key)
        if rid is None:
            rid = len(self._resolvers)
            self._resolvers[key] = rid
        return rid

    # -- field paths ----------------------------------------------------------

    def bind_steps(self, path: FieldPath, loops: list[str]) -> list[tuple[str, str]]:
        """Bind the INDEX markers of ``path`` to the enclosing loop variables.

        Returns ``(kind, token)`` pairs: ``("k", repr(key))`` for dict keys,
        ``("i", varname_or_int)`` for list indices.
        """
        bound: list[tuple[str, str]] = []
        cursor = 0
        for step in path.steps:
            if step is INDEX:
                if cursor >= len(loops):
                    raise CodegenError(
                        f"cannot specialize {path}: needs more than "
                        f"{len(loops)} bound repetition indices"
                    )
                bound.append(("i", loops[cursor]))
                cursor += 1
            elif isinstance(step, str):
                bound.append(("k", repr(step)))
            else:
                bound.append(("i", str(step)))
        return bound

    def path_display(self, path: FieldPath, loops: list[str]) -> str:
        """Source of a runtime expression rendering the resolved path string."""
        parts: list[str] = []
        args: list[str] = []
        cursor = 0
        for step in path.steps:
            if isinstance(step, str):
                parts.append(("." if parts else "") + step)
            elif step is INDEX:
                if cursor < len(loops):
                    parts.append("[%d]")
                    args.append(loops[cursor])
                else:  # pragma: no cover - rejected earlier by bind_steps
                    parts.append("[*]")
                cursor += 1
            else:
                parts.append(f"[{step}]")
        literal = repr("".join(parts))
        if args:
            return f"({literal} % ({', '.join(args)},))"
        return literal

    # -- message accessors (inline fast shapes + shared accessor) -------------

    def emit_get(self, dst: str, path: FieldPath, loops: list[str],
                 src: str = "message") -> None:
        """Emit statements assigning ``dst`` the value at ``path`` (or None)."""
        bound = self.bind_steps(path, loops)
        kinds = "".join(kind for kind, _ in bound)
        if kinds == "k":
            self.w(f"{dst} = {src}.get({bound[0][1]})")
            return
        if kinds == "kk":
            c = self.var("c")
            self.w(f"{c} = {src}.get({bound[0][1]})")
            self.w(f"{dst} = {c}.get({bound[1][1]}) if isinstance({c}, dict) else None")
            return
        if kinds == "kik":
            c, d = self.var("c"), self.var("c")
            iv = bound[1][1]
            self.w(f"{c} = {src}.get({bound[0][1]})")
            self.w(f"if isinstance({c}, list) and {iv} < len({c}):")
            self.w(f"    {d} = {c}[{iv}]")
            self.w(f"    {dst} = {d}.get({bound[2][1]}) if isinstance({d}, dict) else None")
            self.w("else:")
            self.w(f"    {dst} = None")
            return
        name, indices = self.accessor_call(path, loops)
        self.w(f"{dst} = {name}.get({src}, {indices})")

    def emit_set(self, path: FieldPath, loops: list[str], value: str,
                 dst: str = "msg") -> None:
        """Emit statements storing ``value`` at ``path`` inside ``dst``."""
        bound = self.bind_steps(path, loops)
        kinds = "".join(kind for kind, _ in bound)
        if kinds == "k":
            self.w(f"{dst}[{bound[0][1]}] = {value}")
            return
        if kinds == "kk":
            c = self.var("c")
            self.w(f"{c} = {dst}.get({bound[0][1]})")
            self.w(f"if not isinstance({c}, dict):")
            self.w(f"    {c} = {{}}")
            self.w(f"    {dst}[{bound[0][1]}] = {c}")
            self.w(f"{c}[{bound[1][1]}] = {value}")
            return
        if kinds == "kik":
            c, d = self.var("c"), self.var("c")
            iv = bound[1][1]
            self.w(f"{c} = {dst}.get({bound[0][1]})")
            self.w(f"if not isinstance({c}, list):")
            self.w(f"    {c} = []")
            self.w(f"    {dst}[{bound[0][1]}] = {c}")
            self.w(f"while len({c}) <= {iv}:")
            self.w(f"    {c}.append(None)")
            self.w(f"{d} = {c}[{iv}]")
            self.w(f"if not isinstance({d}, dict):")
            self.w(f"    {d} = {{}}")
            self.w(f"    {c}[{iv}] = {d}")
            self.w(f"{d}[{bound[2][1]}] = {value}")
            return
        name, indices = self.accessor_call(path, loops)
        self.w(f"{name}.set({dst}, {indices}, {value})")

    def emit_list_init(self, path: FieldPath, loops: list[str],
                       dst: str = "msg") -> None:
        bound = self.bind_steps(path, loops)
        if len(bound) == 1 and bound[0][0] == "k":
            key = bound[0][1]
            self.w(f"if {key} not in {dst}:")
            self.w(f"    {dst}[{key}] = []")
            return
        name, indices = self.accessor_call(path, loops)
        self.w(f"{name}.init_list({dst}, {indices})")

    # ======================================================================
    # parse emission
    # ======================================================================

    def _p_raise(self, msg_expr: str, off_expr: str, node: str | None) -> None:
        self.w(f"raise _E({msg_expr}, {off_expr}, {node!r})")

    def _p_ref_int(self, ref: str, node_name: str, st: _Win, *,
                   wrapped: bool) -> str:
        """Emit the ``ref_value`` checks for ``ref``; return the value expr.

        ``wrapped`` replays the :meth:`Parser._terminal_bytes` rewrapping:
        the inner error string (with its own suffix) becomes the raw message
        and the error carries ``offset=win.cursor``.
        """
        ref_node = self.node_map.get(ref)
        if ref_node is None or ref_node.type is not NodeType.TERMINAL or ref_node.is_pad:
            # The reference can never have been parsed.
            if wrapped:
                raw = f"reference {ref!r} has not been parsed yet [node={node_name!r}]"
                self._p_raise(repr(raw), st.off, node_name)
            else:
                raw = f"reference {ref!r} has not been parsed yet"
                self._p_raise(repr(raw), "None", node_name)
            return "0"
        v = self.vvar(ref)
        if v not in self._assigned:
            self._pdecls.add(v)
            if wrapped:
                raw = f"reference {ref!r} has not been parsed yet [node={node_name!r}]"
                self.w(f"if {v} is None:")
                self.ind += 1
                self._p_raise(repr(raw), st.off, node_name)
                self.ind -= 1
            else:
                raw = f"reference {ref!r} has not been parsed yet"
                self.w(f"if {v} is None:")
                self.ind += 1
                self._p_raise(repr(raw), "None", node_name)
                self.ind -= 1
        if ref_node.value_kind is not ValueKind.UINT:
            if wrapped:
                raw = f"reference {ref!r} is not an integer [node={node_name!r}]"
                self._p_raise(repr(raw), st.off, node_name)
            else:
                raw = f"reference {ref!r} is not an integer"
                self._p_raise(repr(raw), "None", node_name)
        return v

    # -- terminal byte consumption --------------------------------------------

    def _p_fixed_guard(self, st: _Win, size: str | int, node: str | None) -> None:
        """Bounds check replaying Window.read's error through the rewrap."""
        if node is not None:
            self._needs.add("eof")
            self.w(f"if {st.off} + {size} > {st.end}:")
            self.w(f"    _eof({size}, {st.end} - {st.off}, {st.off}, {node!r})")
        else:
            self._needs.add("eof0")
            self.w(f"if {st.off} + {size} > {st.end}:")
            self.w(f"    _eof0({size}, {st.end} - {st.off}, {st.off})")

    def _p_terminal_raw(self, node: Node, st: _Win, prebounded: bool) -> str:
        """Emit consumption of one terminal's wire bytes; return the raw expr.

        The returned expression is a ``bytes`` slice (callers slice lazily:
        pads never materialize it, one-byte uints index instead).
        """
        name = node.name
        if prebounded:
            raw = f"{st.buf}[{st.off}:{st.end}]"
            return raw
        kind = node.boundary.kind
        if kind is BoundaryKind.FIXED:
            size = node.boundary.size or 0
            self._p_fixed_guard(st, size, name)
            return f"{st.buf}[{st.off}:{st.off} + {size}]"
        if kind is BoundaryKind.DELIMITED:
            delim = node.boundary.delimiter or b""
            if not delim:
                self._p_raise(repr("cannot search for an empty delimiter"),
                              st.off, name)
                return "b''"
            p = self.var("p")
            self.w(f"{p} = {st.buf}.find({delim!r}, {st.off}, {st.end})")
            self.w(f"if {p} < 0:")
            template = f"delimiter {delim!r} not found [offset=%d]"
            self.w(f"    raise _E({template!r} % {st.off}, {st.off}, {name!r})")
            return f"{st.buf}[{st.off}:{p}]"
        if kind is BoundaryKind.LENGTH:
            length = self._p_ref_int(node.boundary.ref or "", name, st, wrapped=True)
            self.w(f"if {length} < 0:")
            template = "cannot read a negative number of bytes (%d)"
            self.w(f"    raise _E({template!r} % {length}, {st.off}, {name!r})")
            self._p_fixed_guard(st, length, name)
            return f"{st.buf}[{st.off}:{st.off} + {length}]"
        # END / DELEGATED: the rest of the window.
        return f"{st.buf}[{st.off}:{st.end}]"

    def _p_advance(self, node: Node, st: _Win, prebounded: bool, raw: str) -> None:
        """Advance the offset past the bytes of ``raw`` (kind-specific)."""
        if prebounded:
            self.w(f"{st.off} = {st.end}")
            return
        kind = node.boundary.kind
        if kind is BoundaryKind.FIXED:
            self.w(f"{st.off} += {node.boundary.size or 0}")
        elif kind is BoundaryKind.DELIMITED:
            # raw is buf[off:pN]; the find position is embedded in the expr.
            p = raw.rsplit(":", 1)[1].rstrip("]")
            self.w(f"{st.off} = {p} + {len(node.boundary.delimiter or b'')}")
        elif kind is BoundaryKind.LENGTH:
            length = raw.rsplit("+ ", 1)[1].rstrip("]")
            self.w(f"{st.off} += {length}")
        else:
            self.w(f"{st.off} = {st.end}")

    # -- terminal decoding ----------------------------------------------------

    def _p_decode(self, node: Node, raw: str, dst: str) -> None:
        """Emit the decode of ``raw`` into ``dst`` (chain inversion fused)."""
        kind = node.value_kind
        chain = node.codec_chain
        if kind is ValueKind.UINT:
            base = f"int.from_bytes({raw}, {node.endian.value!r})"
            if not chain:
                self.w(f"{dst} = {base}")
                return
            steps = _int_steps(chain, inverse=True)
            if steps is not None:
                self.w(f"{dst} = {_fold_int_steps(base, steps)}")
                return
            self._needs.add("chains")
            self.w(f"{dst} = _chain_invert({base}, 'uint', {_chain_literal(chain)})")
            return
        if kind is ValueKind.BYTES:
            if not chain:
                self.w(f"{dst} = {raw}")
                return
            if all(op.bytewise for op in chain):
                _, inverse = _byte_tables(chain)
                self.w(f"{dst} = {raw}.translate({self.table_const(inverse)})")
                return
            self._needs.add("chains")
            self.w(f"{dst} = _chain_invert({raw}, 'bytes', {_chain_literal(chain)})")
            return
        # TEXT
        if not chain:
            self.w(f"{dst} = {raw}.decode('latin-1')")
            return
        if all(op.bytewise for op in chain):
            _, inverse = _byte_tables(chain)
            self.w(f"{dst} = {raw}.translate({self.table_const(inverse)})"
                   f".decode('latin-1')")
            return
        self._needs.add("chains")
        self.w(f"{dst} = _chain_invert({raw}.decode('latin-1'), 'text', "
               f"{_chain_literal(chain)})")

    def _p_terminal(self, node: Node, st: _Win, *, prebounded: bool = False,
                    store_origin: bool = True) -> None:
        """Emit parse + store of one terminal (the _parse_terminal path)."""
        if node.is_pad:
            # Pads consume their extent and are discarded: zero-copy skip.
            if prebounded:
                self.w(f"{st.off} = {st.end}")
                return
            kind = node.boundary.kind
            if kind is BoundaryKind.FIXED:
                size = node.boundary.size or 0
                self._p_fixed_guard(st, size, node.name)
                self.w(f"{st.off} += {size}")
                return
            raw = self._p_terminal_raw(node, st, prebounded)
            self._p_advance(node, st, prebounded, raw)
            return
        dst = self.vvar(node.name)
        fixed1 = (not prebounded and node.boundary.kind is BoundaryKind.FIXED
                  and (node.boundary.size or 0) == 1
                  and node.value_kind is ValueKind.UINT)
        if fixed1:
            # One-byte unsigned integer: index the buffer, no slice.
            self._p_fixed_guard(st, 1, node.name)
            base = f"{st.buf}[{st.off}]"
            chain = node.codec_chain
            if not chain:
                self.w(f"{dst} = {base}")
            else:
                steps = _int_steps(chain, inverse=True)
                if steps is not None:
                    self.w(f"{dst} = {_fold_int_steps(base, steps)}")
                else:
                    self._needs.add("chains")
                    self.w(f"{dst} = _chain_invert({base}, 'uint', "
                           f"{_chain_literal(node.codec_chain)})")
            self.w(f"{st.off} += 1")
        else:
            raw = self._p_terminal_raw(node, st, prebounded)
            self._p_decode(node, raw, dst)
            self._p_advance(node, st, prebounded, raw)
        self._assigned.add(dst)
        if store_origin and node.origin is not None:
            self.emit_set(node.origin, self._ploops, dst)

    # -- mirrored regions ------------------------------------------------------

    def _p_region(self, node: Node, st: _Win) -> _Win:
        """Emit extraction of a mirrored node's byte region (reversed).

        Replays :meth:`Parser._extract_region`: errors propagate *unwrapped*.
        Returns the window over the reversed region buffer.
        """
        kind = node.boundary.kind
        name = node.name
        size_expr: str | None
        if kind is BoundaryKind.FIXED:
            size_expr = str(node.boundary.size or 0)
        elif kind is BoundaryKind.LENGTH:
            size_expr = self._p_ref_int(node.boundary.ref or "", name, st,
                                        wrapped=False)
            self.w(f"if {size_expr} < 0:")
            template = "cannot read a negative number of bytes (%d)"
            self.w(f"    raise _E({template!r} % {size_expr}, None, None)")
        elif kind is BoundaryKind.END:
            size_expr = f"{st.end} - {st.off}"
        else:
            static = self.static_sizes.get(name)
            if static is None:
                self._p_raise(
                    repr("mirrored node has no parse-time determinable extent"),
                    "None", name)
                return st
            size_expr = str(static)
        if kind is not BoundaryKind.END:
            self._p_fixed_guard(st, size_expr, None)
        buf = self.var("r")
        if st.mv is not None:
            # Zero-copy: one reversed copy straight off the memoryview.
            self.w(f"{buf} = bytes({st.mv}[{st.off}:{st.off} + {size_expr}][::-1])")
        else:
            self.w(f"{buf} = {st.buf}[{st.off}:{st.off} + {size_expr}][::-1]")
        self.w(f"{st.off} += {size_expr}")
        off, end = self.var("o"), self.var("e")
        self.w(f"{off} = 0")
        self.w(f"{end} = len({buf})")
        return _Win(buf, off, end)

    # -- composite windows -----------------------------------------------------

    def _p_window(self, node: Node, st: _Win, prebounded: bool
                  ) -> tuple[_Win, bool]:
        """Replay :meth:`Parser._composite_window` at emit time."""
        if prebounded:
            return st, True
        if node.boundary.kind is BoundaryKind.LENGTH:
            length = self._p_ref_int(node.boundary.ref or "", node.name, st,
                                     wrapped=False)
            self.w(f"if {length} < 0:")
            template = "negative sub-window length (%d)"
            self.w(f"    raise _E({template!r} % {length}, None, None)")
            self.w(f"if {st.end} - {st.off} < {length}:")
            template = "sub-window of %d byte(s) exceeds the %d remaining byte(s)"
            self.w(f"    raise _E({template!r} % ({length}, {st.end} - {st.off}), "
                   f"{st.off}, None)")
            end = self.var("e")
            self.w(f"{end} = {st.off} + {length}")
            return st.bounded(end), True
        return st, False

    def _p_strict_check(self, node: Node, st: _Win) -> None:
        self.w(f"if {st.off} != {st.end}:")
        template = "%d byte(s) left inside bounded node"
        self.w(f"    raise _E({template!r} % ({st.end} - {st.off}), "
               f"{st.off}, {node.name!r})")

    # -- node dispatch ---------------------------------------------------------

    def _p_node(self, node: Node, st: _Win, *, prebounded: bool = False) -> None:
        if node.mirrored and not prebounded:
            sub = self._p_region(node, st)
            if sub is not st:
                self._p_node(node, sub, prebounded=True)
            return
        if node.type is NodeType.TERMINAL:
            self._p_terminal(node, st, prebounded=prebounded)
            return
        inner, strict = self._p_window(node, st, prebounded)
        if node.type is NodeType.SEQUENCE:
            if node.synthesis is not None:
                self._p_synthesis(node, inner)
            else:
                self._p_sequence(node, inner)
        elif node.type is NodeType.OPTIONAL:
            self._p_optional(node, inner)
        else:  # REPETITION / TABULAR
            self._p_repetition(node, inner, prebounded=prebounded)
        if strict:
            self._p_strict_check(node, inner)

    # -- sequences with struct-run fusion --------------------------------------

    def _p_run_member(self, child: Node) -> tuple[str, str] | None:
        """``(struct format, endian)`` of a fusable child, or ``None``."""
        if child.type is not NodeType.TERMINAL or child.mirrored:
            return None
        if child.boundary.kind is not BoundaryKind.FIXED:
            return None
        size = child.boundary.size or 0
        if size <= 0:
            return None
        if child.is_pad:
            return f"{size}x", ""
        if child.value_kind is ValueKind.UINT:
            fmt = _UINT_FMT.get(size)
            if fmt is None:
                return None
            endian = "" if size == 1 else child.endian.value
            return fmt, endian
        return f"{size}s", ""

    def _p_sequence(self, node: Node, st: _Win) -> None:
        children = node.children
        i = 0
        while i < len(children):
            run: list[tuple[Node, str, str]] = []
            endian = ""
            j = i
            while j < len(children):
                member = self._p_run_member(children[j])
                if member is None:
                    break
                fmt, member_endian = member
                if member_endian and endian and member_endian != endian:
                    break
                run.append((children[j], fmt, member_endian))
                if member_endian:
                    endian = member_endian
                j += 1
            if len(run) >= 2:
                self._p_emit_run(run, endian or "big", st)
                i = j
                continue
            child = children[i]
            self._p_node(child, st)
            i += 1

    def _p_emit_run(self, run: list[tuple[Node, str, str]], endian: str,
                    st: _Win) -> None:
        """Fuse a run of fixed-size terminals into one unpack_from call."""
        fmt = (">" if endian == "big" else "<") + "".join(f for _, f, _ in run)
        total = sum((child.boundary.size or 0) for child, _, _ in run)
        parts = ", ".join(
            f"({child.name!r}, {child.boundary.size or 0})" for child, _, _ in run
        )
        self._needs.add("runfail")
        self.w(f"if {st.off} + {total} > {st.end}:")
        self.w(f"    _run_fail({st.off}, {st.end} - {st.off}, ({parts}))")
        struct_name = self.struct_const(fmt)
        targets: list[str] = []
        post: list[tuple[Node, str]] = []
        for child, _, _ in run:
            if child.is_pad:
                continue
            dst = self.vvar(child.name)
            if child.value_kind is ValueKind.UINT and not child.codec_chain:
                targets.append(dst)
            else:
                tmp = self.var("u")
                targets.append(tmp)
                post.append((child, tmp))
        if targets:
            head = ", ".join(targets) + ("," if len(targets) == 1 else "")
            self.w(f"{head} = {struct_name}.unpack_from({st.buf}, {st.off})")
        self.w(f"{st.off} += {total}")
        for child, tmp in post:
            dst = self.vvar(child.name)
            kind = child.value_kind
            chain = child.codec_chain
            if kind is ValueKind.UINT:
                steps = _int_steps(chain, inverse=True)
                if steps is not None:
                    self.w(f"{dst} = {_fold_int_steps(tmp, steps)}")
                else:
                    self._needs.add("chains")
                    self.w(f"{dst} = _chain_invert({tmp}, 'uint', "
                           f"{_chain_literal(chain)})")
            elif kind is ValueKind.BYTES:
                self._p_decode(child, tmp, dst)
            else:  # TEXT: unpack produced bytes
                self._p_decode(child, tmp, dst)
        for child, _, _ in run:
            if child.is_pad:
                continue
            dst = self.vvar(child.name)
            self._assigned.add(dst)
            if child.origin is not None:
                self.emit_set(child.origin, self._ploops, dst)

    # -- synthesis --------------------------------------------------------------

    def _p_synthesis(self, node: Node, st: _Win) -> None:
        shares: list[Node] = []
        for child in node.children:
            if child.name in self.ref_targets:
                self._p_node(child, st)
                continue
            shares.append(child)
            if child.mirrored:
                sub = self._p_region(child, st)
                if sub is not st:
                    self._p_terminal(child, sub, prebounded=True,
                                     store_origin=False)
            else:
                self._p_terminal(child, st, store_origin=False)
        if len(shares) != 2:
            raw = (f"synthesis node {node.name!r} expected two value children, "
                   f"found {len(shares)}")
            self._p_raise(repr(raw), "None", None)
            return
        synthesis = node.synthesis
        assert synthesis is not None
        first, second = self.vvar(shares[0].name), self.vvar(shares[1].name)
        combined = self.var("y")
        if synthesis.op is SynthesisOp.CAT:
            self._p_emit_cat(synthesis, shares, first, second, combined)
        else:
            if synthesis.width is None:
                raise CodegenError(
                    f"synthesis node {node.name!r} carries no width"
                )
            modulus = 1 << (8 * synthesis.width)
            if synthesis.op is SynthesisOp.ADD:
                self.w(f"{combined} = ({first} + {second}) % {modulus}")
            elif synthesis.op is SynthesisOp.SUB:
                self.w(f"{combined} = ({first} - {second}) % {modulus}")
            else:
                self.w(f"{combined} = {first} ^ {second}")
        if node.origin is None:
            raw = f"synthesis node {node.name!r} has no logical origin"
            self._p_raise(repr(raw), "None", None)
            return
        self.emit_set(node.origin, self._ploops, combined)

    def _p_emit_cat(self, synthesis, shares: list[Node], first: str,
                    second: str, combined: str) -> None:
        """Inline Synthesis.combine for CAT with statically known child kinds."""
        kinds = [child.value_kind for child in shares]
        if kinds == [ValueKind.TEXT, ValueKind.TEXT]:
            self.w(f"{combined} = {first} + {second}")
            return
        left = (f"{first}.encode('latin-1')"
                if kinds[0] is ValueKind.TEXT else first)
        right = (f"{second}.encode('latin-1')"
                 if kinds[1] is ValueKind.TEXT else second)
        if synthesis.kind is ValueKind.TEXT:
            self.w(f"{combined} = ({left} + {right}).decode('latin-1')")
        else:
            self.w(f"{combined} = {left} + {right}")

    # -- optionals ---------------------------------------------------------------

    def _p_optional(self, node: Node, st: _Win) -> None:
        if node.presence_ref is not None:
            ref = node.presence_ref
            ref_node = self.node_map.get(ref)
            v = self.vvar(ref) if ref_node is not None else None
            if v is None or v not in self._assigned:
                if v is not None:
                    self._pdecls.add(v)
                raw = f"presence reference {ref!r} has not been parsed yet"
                if v is None:
                    self._p_raise(repr(raw), "None", node.name)
                    return
                self.w(f"if {v} is None:")
                self.ind += 1
                self._p_raise(repr(raw), "None", node.name)
                self.ind -= 1
            self.w(f"if {v} == {node.presence_value!r}:")
        else:
            self.w(f"if {st.off} < {st.end}:")
        self.ind += 1
        snapshot = set(self._assigned)
        self._p_node(node.children[0], st)
        self._assigned = snapshot
        self.ind -= 1

    # -- repetitions -------------------------------------------------------------

    def _p_repetition(self, node: Node, st: _Win, *, prebounded: bool) -> None:
        if node.origin is None:
            raw = f"repeated node {node.name!r} has no logical origin"
            self._p_raise(repr(raw), "None", None)
            return
        self.emit_list_init(node.origin, self._ploops)
        child = node.children[0]
        kind = node.boundary.kind
        loop = f"i{len(self._ploops)}"
        snapshot = set(self._assigned)
        if kind is BoundaryKind.COUNTER:
            count = self._p_ref_int(node.boundary.ref or "", node.name, st,
                                    wrapped=False)
            self.w(f"for {loop} in range({count}):")
            self.ind += 1
            self._ploops.append(loop)
            self._p_node(child, st)
            self._ploops.pop()
            self.ind -= 1
        elif kind is BoundaryKind.DELIMITED:
            term = node.boundary.delimiter or b""
            self.w(f"{loop} = 0")
            self.w(f"while {st.off} < {st.end} and not "
                   f"{st.buf}.startswith({term!r}, {st.off}, {st.end}):")
            self.ind += 1
            self._ploops.append(loop)
            self._p_node(child, st)
            self.w(f"{loop} += 1")
            self._ploops.pop()
            self.ind -= 1
            self.w(f"if {st.buf}.startswith({term!r}, {st.off}, {st.end}):")
            self.w(f"    {st.off} += {len(term)}")
        else:
            # LENGTH / END / prebounded: consume the (bounded) window.
            self.w(f"{loop} = 0")
            self.w(f"while {st.off} < {st.end}:")
            self.ind += 1
            self._ploops.append(loop)
            self._p_node(child, st)
            self.w(f"{loop} += 1")
            self._ploops.pop()
            self.ind -= 1
        self._assigned = snapshot

    # ======================================================================
    # serialize emission
    # ======================================================================

    def _region_tid(self, name: str) -> int:
        if not hasattr(self, "_tids"):
            self._tids: dict[str, int] = {}
        tid = self._tids.get(name)
        if tid is None:
            tid = len(self._tids)
            self._tids[name] = tid
        return tid

    def _region_key(self, name: str) -> str:
        tid = self._region_tid(name)
        if self._sloops:
            return f"({tid}, {', '.join(self._sloops)})"
        return f"({tid},)"

    def _s_missing(self, node: Node, value: str, label: str) -> None:
        """None-check replaying the missing-field SerializationError."""
        assert node.origin is not None
        path = self.path_display(node.origin, self._sloops)
        self.w(f"if {value} is None:")
        template = f"logical message is missing field %s ({label} %r)"
        self.w(f"    raise _E({template!r} % ({path}, {node.name!r}))")

    def _s_node(self, node: Node) -> None:
        measured = node.name in self.length_targets
        mark = None
        if measured or node.mirrored:
            mark = self.var("m")
            self.w(f"{mark} = len(out)")
        if node.type is NodeType.TERMINAL:
            self._s_terminal(node)
        elif node.type is NodeType.SEQUENCE:
            if node.synthesis is not None:
                self._s_synthesis(node)
            else:
                self._s_sequence(node)
        elif node.type is NodeType.OPTIONAL:
            self._s_optional(node)
        else:
            self._s_repetition(node)
        if node.mirrored:
            self._needs.add("mirror")
            self.w(f"_mirror(out, {mark}, pend)")
        if measured:
            self.w(f"lens[{self._region_key(node.name)}] = len(out) - {mark}")

    # -- terminals ----------------------------------------------------------

    def _s_terminal(self, node: Node, value_override: str | None = None) -> None:
        if node.is_pad:
            size = node.boundary.size or 0
            self.w(f"out += bytes(rng.randrange(256) for _ in range({size}))")
            return
        if value_override is None:
            if node.name in self.length_sources:
                self._s_length_slot(node)
                return
            counted = self.counter_sources.get(node.name)
            if counted is not None:
                self._s_counter(node, counted)
                return
        x = self.var("x")
        if value_override is not None:
            self.w(f"{x} = {value_override}")
        else:
            if node.origin is None:
                template = (f"terminal {node.name!r} carries no logical origin "
                            f"and no derived value")
                self.w(f"raise _E({template!r})")
                return
            self.emit_get(x, node.origin, self._sloops)
            self._s_missing(node, x, "terminal")
        self._s_encode(node, x)

    def _s_length_slot(self, node: Node) -> None:
        width = node.boundary.size or 0
        rid = self.resolver_id(width, node.endian.value, node.codec_chain)
        target = self.length_sources[node.name]
        key = self._region_key(target)
        self._needs.add("slots")
        self.w(f"pend.append([len(out), {width}, False, {rid}, {key}])")
        self.w(f"out += {self.zero_const(width)}")

    def _s_counter(self, node: Node, counted: Node) -> None:
        if counted.origin is None:
            template = f"counted node {counted.name!r} carries no logical origin"
            self.w(f"raise _E({template!r})")
            return
        x = self.var("x")
        self.emit_get(x, counted.origin, self._sloops)
        path = self.path_display(counted.origin, self._sloops)
        self.w(f"if {x} is None:")
        self.w(f"    {x} = 0")
        self.w(f"elif isinstance({x}, list):")
        self.w(f"    {x} = len({x})")
        self.w("else:")
        template = "field %s is not a list"
        self.w(f"    raise _E({template!r} % ({path},))")
        self._s_encode(node, x)

    def _s_encode(self, node: Node, x: str) -> None:
        """Emit wire encoding of the value in ``x`` (chain + checks fused)."""
        kind = node.value_kind
        chain = node.codec_chain
        size = (node.boundary.size
                if node.boundary.kind is BoundaryKind.FIXED else None)
        delim = (node.boundary.delimiter or b""
                 if node.boundary.kind is BoundaryKind.DELIMITED else b"")
        if kind is ValueKind.UINT:
            steps = _int_steps(chain, inverse=False) if chain else []
            if steps is None:
                self._s_encode_generic(node, x, size, delim)
                return
            if size is None or size <= 0:
                # UINT without a fixed size fails in encode_value; replicate.
                self._s_encode_generic(node, x, size, delim)
                return
            modulus = 1 << (8 * size)
            if not steps:
                self.w(f"{x} = int({x})")
            else:
                self.w(f"{x} = {_fold_int_steps(f'int({x})', steps)}")
            # A chain whose final mask fits the field never overflows it.
            if not steps or steps[-1][2] >= modulus or steps[-1][0] == "xor":
                self.w(f"if not 0 <= {x} < {modulus}:")
                template = f"terminal {node.name!r}: value %d does not fit in {size} byte(s)"
                self.w(f"    raise _E({template!r} % {x})")
            if size == 1:
                self.w(f"out.append({x})")
            else:
                self.w(f"out += {x}.to_bytes({size}, {node.endian.value!r})")
        else:
            label = "bytes" if kind is ValueKind.BYTES else "text"
            if chain and all(op.bytewise for op in chain):
                forward, _ = _byte_tables(chain)
                # ValueOp.apply encodes the value before translating; an
                # encode failure here is *unwrapped* (no terminal prefix).
                self.w(f"if isinstance({x}, bytes):")
                self.w("    pass")
                self.w(f"elif isinstance({x}, bytearray):")
                self.w(f"    {x} = bytes({x})")
                self.w(f"elif isinstance({x}, str):")
                self.w(f"    {x} = {x}.encode('latin-1')")
                self.w("else:")
                template = f"cannot encode %s as {label}"
                self.w(f"    raise _E({template!r} % type({x}).__name__)")
                self.w(f"{x} = {x}.translate({self.table_const(forward)})")
                if size is not None:
                    self.w(f"if len({x}) != {size}:")
                    template = (f"terminal {node.name!r}: fixed-size field expects "
                                f"{size} byte(s), value has %d")
                    self.w(f"    raise _E({template!r} % len({x}))")
            elif chain:
                self._s_encode_generic(node, x, size, delim)
                return
            else:
                self.w(f"if isinstance({x}, str):")
                self.w(f"    {x} = {x}.encode('latin-1')")
                self.w(f"elif isinstance({x}, (bytes, bytearray)):")
                self.w(f"    {x} = bytes({x})")
                self.w("else:")
                template = f"terminal {node.name!r}: cannot encode %s as {label}"
                self.w(f"    raise _E({template!r} % type({x}).__name__)")
                if size is not None:
                    self.w(f"if len({x}) != {size}:")
                    template = (f"terminal {node.name!r}: fixed-size field expects "
                                f"{size} byte(s), value has %d")
                    self.w(f"    raise _E({template!r} % len({x}))")
            if delim:
                self.w(f"if {delim!r} in {x}:")
                template = (f"value of delimited terminal {node.name!r} contains "
                            f"its delimiter {delim!r}")
                self.w(f"    raise _E({template!r})")
            self.w(f"out += {x}")
        if delim:
            self.w(f"out += {delim!r}")

    def _s_encode_generic(self, node: Node, x: str, size: int | None,
                          delim: bytes) -> None:
        """Exotic chains / sizeless uints: defer to the generic preamble path."""
        self._needs.add("chains")
        self._needs.add("encval")
        if node.codec_chain:
            self.w(f"{x} = _chain_apply({x}, {node.value_kind.value!r}, "
                   f"{_chain_literal(node.codec_chain)})")
        self.w(f"out += _enc_value({x}, {node.value_kind.value!r}, {size!r}, "
               f"{node.endian.value!r}, {node.name!r}, {delim!r})")
        if delim:
            self.w(f"out += {delim!r}")

    # -- sequences with pack-run fusion ---------------------------------------

    def _s_run_member(self, child: Node) -> bool:
        if child.type is not NodeType.TERMINAL or child.mirrored or child.is_pad:
            return False
        if child.name in self.length_sources or child.name in self.counter_sources:
            return False
        if child.name in self.length_targets:
            return False
        if child.origin is None or child.value_kind is not ValueKind.UINT:
            return False
        if child.boundary.kind is not BoundaryKind.FIXED:
            return False
        if (child.boundary.size or 0) not in _UINT_FMT:
            return False
        if child.codec_chain and _int_steps(child.codec_chain, inverse=False) is None:
            return False
        return True

    def _s_sequence(self, node: Node) -> None:
        children = node.children
        i = 0
        while i < len(children):
            run: list[Node] = []
            endian = ""
            j = i
            while j < len(children) and self._s_run_member(children[j]):
                child_endian = ("" if (children[j].boundary.size or 0) == 1
                                else children[j].endian.value)
                if child_endian and endian and child_endian != endian:
                    break
                run.append(children[j])
                if child_endian:
                    endian = child_endian
                j += 1
            if len(run) >= 2:
                self._s_emit_run(run, endian or "big")
                i = j
                continue
            child = children[i]
            if (child.type is NodeType.TERMINAL and not child.mirrored
                    and child.name not in self.length_targets):
                self._s_terminal(child)
            else:
                self._s_node(child)
            i += 1

    def _s_emit_run(self, run: list[Node], endian: str) -> None:
        """Fuse a run of plain fixed-width uints into one struct pack call."""
        fmt = (">" if endian == "big" else "<") + "".join(
            _UINT_FMT[child.boundary.size or 0] for child in run
        )
        struct_name = self.struct_const(fmt)
        names: list[str] = []
        for child in run:
            x = self.var("x")
            names.append(x)
            assert child.origin is not None
            self.emit_get(x, child.origin, self._sloops)
            self._s_missing(child, x, "terminal")
            steps = _int_steps(child.codec_chain, inverse=False) or []
            if steps:
                self.w(f"{x} = {_fold_int_steps(f'int({x})', steps)}")
            else:
                self.w(f"{x} = int({x})")
        self._needs.add("packfail")
        self.w("try:")
        self.w(f"    out += {struct_name}.pack({', '.join(names)})")
        self.w("except Exception:")
        entries = ", ".join(
            f"({x}, {child.boundary.size or 0}, {child.name!r})"
            for x, child in zip(names, run)
        )
        self.w(f"    _pack_fail(({entries}))")

    # -- synthesis --------------------------------------------------------------

    def _s_synthesis(self, node: Node) -> None:
        if node.origin is None:
            template = f"synthesis node {node.name!r} has no logical origin"
            self.w(f"raise _E({template!r})")
            return
        x = self.var("x")
        self.emit_get(x, node.origin, self._sloops)
        self._s_missing(node, x, "synthesis node")
        synthesis = node.synthesis
        assert synthesis is not None
        s1, s2 = self.var("x"), self.var("x")
        if synthesis.op is SynthesisOp.CAT:
            d = self.var("x")
            self.w(f"{d} = {x} if isinstance({x}, (bytes, str)) else bytes({x})")
            cut = self.var("x")
            if node.split_at is None:
                self.w(f"{cut} = rng.randint(0, len({d}))")
            else:
                self.w(f"{cut} = max(0, min({node.split_at}, len({d})))")
            self.w(f"{s1} = {d}[:{cut}]")
            self.w(f"{s2} = {d}[{cut}:]")
        else:
            if synthesis.width is None:
                raise CodegenError(f"synthesis node {node.name!r} carries no width")
            modulus = 1 << (8 * synthesis.width)
            logical = self.var("x")
            self.w(f"{logical} = int({x}) % {modulus}")
            self.w(f"{s1} = rng.randrange({modulus})")
            if synthesis.op is SynthesisOp.ADD:
                self.w(f"{s2} = ({logical} - {s1}) % {modulus}")
            elif synthesis.op is SynthesisOp.SUB:
                self.w(f"{s2} = ({s1} - {logical}) % {modulus}")
            else:
                self.w(f"{s2} = {logical} ^ {s1}")
        shares = [s1, s2]
        value_children = [
            child for child in node.children
            if child.name not in self.length_sources
        ]
        if len(value_children) != 2:
            template = (f"synthesis node {node.name!r} has "
                        f"{'more' if len(value_children) > 2 else 'fewer'} "
                        f"value children than shares")
            self.w(f"raise _E({template!r})")
            return
        for child in node.children:
            if child.name in self.length_sources:
                self._s_node(child)
                continue
            share = shares.pop(0)
            self._s_split_child(child, share)

    def _s_split_child(self, child: Node, share: str) -> None:
        measured = child.name in self.length_targets
        mark = None
        if measured or child.mirrored:
            mark = self.var("m")
            self.w(f"{mark} = len(out)")
        self._s_terminal(child, value_override=share)
        if child.mirrored:
            self._needs.add("mirror")
            self.w(f"_mirror(out, {mark}, pend)")
        if measured:
            self.w(f"lens[{self._region_key(child.name)}] = len(out) - {mark}")

    # -- optionals ----------------------------------------------------------------

    def _s_optional(self, node: Node) -> None:
        presence_origin = None
        if node.presence_ref is not None:
            ref_node = self.node_map.get(node.presence_ref)
            if ref_node is not None and ref_node.origin is not None:
                presence_origin = ref_node.origin
        if presence_origin is not None:
            x = self.var("x")
            self.emit_get(x, presence_origin, self._sloops)
            self.w(f"if {x} == {node.presence_value!r}:")
        elif node.origin is None:
            return
        else:
            x = self.var("x")
            self.emit_get(x, node.origin, self._sloops)
            self.w(f"if {x} is not None:")
        self.ind += 1
        self._s_node(node.children[0])
        self.ind -= 1

    # -- repetitions ---------------------------------------------------------------

    def _s_repetition(self, node: Node) -> None:
        if node.origin is None:
            template = f"repeated node {node.name!r} has no logical origin"
            self.w(f"raise _E({template!r})")
            return
        x = self.var("x")
        self.emit_get(x, node.origin, self._sloops)
        path = self.path_display(node.origin, self._sloops)
        n = self.var("n")
        self.w(f"if {x} is None:")
        self.w(f"    {n} = 0")
        self.w(f"elif isinstance({x}, list):")
        self.w(f"    {n} = len({x})")
        self.w("else:")
        template = "field %s is not a list"
        self.w(f"    raise _E({template!r} % ({path},))")
        loop = f"i{len(self._sloops)}"
        self.w(f"for {loop} in range({n}):")
        self.ind += 1
        self._sloops.append(loop)
        self._s_node(node.children[0])
        self._sloops.pop()
        self.ind -= 1
        if (node.type is NodeType.REPETITION
                and node.boundary.kind is BoundaryKind.DELIMITED):
            self.w(f"out += {node.boundary.delimiter or b''!r}")

    # ======================================================================
    # module assembly
    # ======================================================================

    def emit(self) -> str:
        parse_body = self._emit_parse_body()
        serialize_body = self._emit_serialize_body()
        lines: list[str] = []
        stats = self.graph.stats()
        lines.append(
            f'"""Specialized serialization library for protocol '
            f"{self.graph.name!r}.\n\n"
            f"Automatically generated by repro.codegen (specializing emitter) "
            f"— do not edit.\n"
            f"Graph: {stats.node_count} nodes ({stats.terminal_count} "
            f'terminals), fully inlined.\n"""'
        )
        lines.append("")
        lines.append(f"__plan_fingerprint__ = {self.fingerprint!r}")
        lines.append(f"__emitter_version__ = {self.emitter_version!r}")
        lines.append("__specialized__ = True")
        lines.append(f"__codec_key__ = {self.codec_key!r}")
        lines.append(self._emit_preamble())
        lines.append("# === generated code (emitted per specification) ===")
        lines.append(self._emit_constants())
        lines.extend(parse_body)
        lines.append("")
        lines.extend(serialize_body)
        lines.append("")
        return "\n".join(lines) + "\n"

    def _emit_parse_body(self) -> list[str]:
        self.cur = []
        self.ind = 1
        self._assigned = set()
        self._pdecls = set()
        mv = None
        if any(node.mirrored for node in self.nodes):
            mv = "mv"
        root_state = _Win("data", "o", "e", mv)
        self._p_node(self.graph.root, root_state)
        body = self.cur
        out = ["", ""]
        out.append("def parse(data, strict=True):")
        out.append('    """Parse wire bytes back into the logical message '
                   '(nested dict)."""')
        out.append("    if type(data) is not bytes:")
        out.append("        data = bytes(data)")
        out.append("    o = 0")
        out.append("    e = len(data)")
        if mv is not None:
            out.append("    mv = memoryview(data)")
        out.append("    msg = {}")
        for decl in sorted(self._pdecls):
            out.append(f"    {decl} = None")
        out.extend(body)
        out.append("    if strict and o != e:")
        out.append("        raise _E('%d trailing byte(s) after the message'"
                   " % (e - o), o, None)")
        out.append("    return msg")
        return out

    def _emit_serialize_body(self) -> list[str]:
        self.cur = []
        self.ind = 1
        self._s_node(self.graph.root)
        body = self.cur
        has_slots = "slots" in self._needs
        out = []
        out.append("def serialize(message, rng=None):")
        out.append('    """Serialize a logical message (nested dict) into '
                   'wire bytes."""')
        out.append("    if rng is None:")
        out.append("        rng = _random.Random(0)")
        out.append("    out = bytearray()")
        if has_slots or "mirror" in self._needs:
            out.append("    pend = []")
        if has_slots:
            out.append("    lens = {}")
        out.extend(body)
        if has_slots:
            out.append("    for _s in pend:")
            out.append("        _b = _RES[_s[3]](lens.get(_s[4], 0))")
            out.append("        if _s[2]:")
            out.append("            _b = _b[::-1]")
            out.append("        out[_s[0]:_s[0] + _s[1]] = _b")
        out.append("    return bytes(out)")
        return out

    # -- preamble (conditional helper sections) --------------------------------

    def _emit_preamble(self) -> str:
        needs = self._needs
        chunks = ["", "import random as _random"]
        if "struct" in needs:
            chunks.append("import struct as _struct")
        if self._accessors:
            chunks.append("")
            chunks.append("from repro.core.fieldpath import INDEX as _INDEX")
            chunks.append("from repro.core.fieldpath import accessor as _accessor")
        chunks.append("""

class GeneratedCodecError(Exception):
    \"\"\"Codec failure carrying the interpreted runtime's error identity.\"\"\"

    def __init__(self, message, offset=None, node=None):
        details = []
        if node is not None:
            details.append("node=%r" % (node,))
        if offset is not None:
            details.append("offset=%d" % (offset,))
        suffix = " [%s]" % ", ".join(details) if details else ""
        super().__init__(message + suffix)
        self.raw = message
        self.offset = offset
        self.node = node


_E = GeneratedCodecError""")
        if "eof" in needs or "runfail" in needs:
            chunks.append("""

def _eof(needed, avail, off, node):
    raise _E(
        "unexpected end of data: needed %d byte(s), %d available [offset=%d]"
        % (needed, avail, off), off, node)""")
        if "eof0" in needs:
            chunks.append("""

def _eof0(needed, avail, off):
    raise _E("unexpected end of data: needed %d byte(s), %d available"
             % (needed, avail), off, None)""")
        if "runfail" in needs:
            chunks.append("""

def _run_fail(off, avail, parts):
    # Replay a fused read's per-terminal bounds checks: the error must name
    # the first terminal that does not fit, exactly like the one-by-one path.
    used = 0
    for name, size in parts:
        if used + size > avail:
            _eof(size, avail - used, off + used, name)
        used += size
    raise _E("fused read failed", off, None)  # pragma: no cover""")
        if "packfail" in needs:
            chunks.append("""

def _pack_fail(entries):
    # Replay a fused pack's per-terminal range checks in emission order.
    for value, size, name in entries:
        value = int(value)
        if not 0 <= value < (1 << (8 * size)):
            raise _E("terminal %r: value %d does not fit in %d byte(s)"
                     % (name, value, size))
    raise _E("fused pack failed")  # pragma: no cover""")
        if "mirror" in needs:
            chunks.append("""

def _mirror(out, mark, pend):
    # Byte-reverse the region appended since ``mark`` and remap the pending
    # length slots inside it (their resolved bytes flip with the region).
    seg = out[mark:]
    seg.reverse()
    out[mark:] = seg
    end = len(out)
    for slot in pend:
        position = slot[0]
        if position >= mark:
            slot[0] = mark + end - position - slot[1]
            slot[2] = not slot[2]""")
        if "chains" in needs:
            chunks.append("""

def _chain_step(value, kind, op, inverse):
    op_kind, constant, bytewise, width = op
    if bytewise:
        if isinstance(value, int):
            raise _E("non-bytewise value operations only apply to UINT terminals")
        data = value.encode("latin-1") if isinstance(value, str) else bytes(value)
        out = bytearray()
        for byte in data:
            c = constant & 0xFF
            if op_kind == "xor":
                out.append(byte ^ c)
            elif (op_kind == "add") != inverse:
                out.append((byte + c) % 256)
            else:
                out.append((byte - c) % 256)
        result = bytes(out)
        return result.decode("latin-1") if kind == "text" else result
    if kind != "uint":
        raise _E("non-bytewise value operations only apply to UINT terminals")
    if width is None:
        raise _E("integer value operations require a width")
    modulus = 1 << (8 * width)
    c = constant % modulus
    if op_kind == "xor":
        return value ^ c
    if (op_kind == "add") != inverse:
        return (value + c) % modulus
    return (value - c) % modulus


def _chain_apply(value, kind, chain):
    for op in chain:
        value = _chain_step(value, kind, op, False)
    return value


def _chain_invert(value, kind, chain):
    for op in reversed(chain):
        value = _chain_step(value, kind, op, True)
    return value""")
        if "encval" in needs:
            chunks.append("""

def _enc_value(value, kind, size, endian, name, delimiter):
    if kind == "uint":
        if size is None:
            raise _E("terminal %r: UINT terminals require a fixed size" % (name,))
        value = int(value)
        if not 0 <= value < (1 << (8 * size)):
            raise _E("terminal %r: value %d does not fit in %d byte(s)"
                     % (name, value, size))
        return value.to_bytes(size, endian)
    if isinstance(value, str):
        data = value.encode("latin-1")
    elif isinstance(value, (bytes, bytearray)):
        data = bytes(value)
    else:
        raise _E("terminal %r: cannot encode %s as %s"
                 % (name, type(value).__name__, kind))
    if size is not None and len(data) != size:
        raise _E("terminal %r: fixed-size field expects %d byte(s), "
                 "value has %d" % (name, size, len(data)))
    if delimiter and delimiter in data:
        raise _E("value of delimited terminal %r contains its delimiter %r"
                 % (name, delimiter))
    return data""")
        return "\n".join(chunks) + "\n"

    def _emit_constants(self) -> str:
        lines = [""]
        for fmt, name in self._structs.items():
            lines.append(f"{name} = _struct.Struct({fmt!r})")
        for table, name in self._tables.items():
            lines.append(f"{name} = {table!r}")
        for width in sorted(self._zeros):
            lines.append(f"_Z{width} = bytes({width})")
        for path, name in self._accessors.items():
            tokens = ["_INDEX" if step is INDEX else repr(step) for step in path]
            steps = f"({tokens[0]},)" if len(tokens) == 1 else f"({', '.join(tokens)})"
            lines.append(f"{name} = _accessor({steps})")
        if self._resolvers:
            lines.append("")
            lines.append("# Length-slot resolvers: chain applied, value reduced")
            lines.append("# modulo the slot width, encoded at the slot's endianness.")
            rendered = []
            for (width, endian, chain), _ in sorted(
                    self._resolvers.items(), key=lambda item: item[1]):
                expr = "L"
                steps = _int_steps(chain, inverse=False)
                if steps is None and chain:
                    # Exotic slot chains defer to the generic interpreter.
                    self._needs.add("chains")
                    expr = f"_chain_apply(L, 'uint', {_chain_literal(chain)})"
                elif steps:
                    expr = _fold_int_steps(expr, steps)
                modulus = 1 << (8 * width)
                rendered.append(
                    f"    lambda L: (({expr}) % {modulus})"
                    f".to_bytes({width}, {endian!r}),"
                )
            lines.append("_RES = (")
            lines.extend(rendered)
            lines.append(")")
        lines.append("")
        return "\n".join(lines)


def generate_specialized_module(graph: FormatGraph, *,
                                plan_fingerprint: str | None = None,
                                codec_key: str | None = None,
                                emitter_version: str | None = None) -> str:
    """Emit the specialized (straight-line, struct-fused) codec for ``graph``.

    The module exposes the same ``serialize(message, rng=None)`` /
    ``parse(data, strict=True)`` API as the readable generated library, is
    stamped with ``__specialized__ = True`` plus the emitter version, and
    raises ``GeneratedCodecError`` with the interpreted runtime's exact error
    message, offset and node identity.
    """
    from .emitter import EMITTER_VERSION

    return _SpecEmitter(
        graph,
        plan_fingerprint=plan_fingerprint,
        codec_key=codec_key,
        emitter_version=(
            emitter_version if emitter_version is not None else EMITTER_VERSION
        ),
    ).emit()
