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
  region has been measured, as the interpreted serializer does,
* every field path is walked inline, with the shared accessors' exact
  reads, writes and errors; each container a walk reaches stays in a local
  variable for the rest of its block, so paths under one prefix share one
  walk (see :meth:`_SpecEmitter.open_block`),
* random draws call ``rng.getrandbits`` directly: pads through
  :func:`repro.core.values.draw_pad`, split shares and cuts through an
  inlined copy of :func:`~repro.core.values.draw_below`'s loop, which
  draw what ``randrange``/``randint`` draw.

The emitted module imports only :mod:`repro.core.errors`, whose classes it
raises with the interpreted tier's exact text (and, for
:class:`~repro.core.errors.ParseError`, offset and node), so no wrapper
translates failures, and, when the graph has pads, ``draw_pad``.

Only valid graphs are compiled: :func:`generate_specialized_module` runs
:func:`repro.core.validate.lookup_index` first, and the emitter reads its
node order, length/counter maps and static sizes from the record that
returns.  So every uint is a
fixed-size terminal whose chain folds into integer steps, every bytes/text
chain folds into one translation table, every LENGTH/COUNTER or presence
reference names a terminal parsed before it is read, every repeated node
and every value carries a logical origin, and every synthesis node has two
shares; no emitted path replays errors that only invalid graphs could raise.
"""

from __future__ import annotations

from ..core.boundary import BoundaryKind
from ..core.errors import CodegenError
from ..core.fieldpath import INDEX, FieldPath
from ..core.graph import FormatGraph
from ..core.node import Node, NodeType
from ..core.validate import GraphIndex, lookup_index
from ..core.values import SynthesisOp, ValueKind, ValueOp
from ..wire.plan import _byte_tables, _int_chain_steps
from .emitter import EMITTER_VERSION

_UINT_FMT = {1: "B", 2: "H", 4: "I", 8: "Q"}


# ---------------------------------------------------------------------------
# chain folding
# ---------------------------------------------------------------------------


def _fold_int_steps(expr: str, steps: list[tuple[bool, int, int]]) -> str:
    """Fold normalized integer chain steps around ``expr`` as one expression."""
    for is_add, constant, mask in steps:
        if is_add:
            expr = f"(({expr} + {constant}) & {mask})"
        else:
            # XOR is applied without a result mask, exactly like ValueOp.
            expr = f"({expr} ^ {constant})"
    return expr


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

    def __init__(self, graph: FormatGraph, index: GraphIndex, *,
                 plan_fingerprint: str | None = None):
        self.graph = graph
        self.fingerprint = (
            plan_fingerprint if plan_fingerprint is not None
            else getattr(graph, "plan_fingerprint", None)
        )
        self.nodes = index.nodes
        self.position = {name: i for i, name in enumerate(index.by_name)}
        self.node_map = index.by_name
        self.length_sources = index.length_sources
        self.counter_sources = index.counter_sources
        self.length_targets = frozenset(
            node.name for node in self.length_sources.values())
        self.ref_targets = frozenset(self.length_sources) | frozenset(self.counter_sources)
        self.static_sizes = index.static_sizes
        # -- emission state ---------------------------------------------------
        self.cur: list[str] = []
        self.ind = 0
        self._n = 0
        self._ploops: list[str] = []
        self._sloops: list[str] = []
        # -- module-level constants (deduplicated) ----------------------------
        self._structs: dict[str, str] = {}
        self._tables: dict[bytes, str] = {}
        self._zeros: set[int] = set()
        self._resolvers: dict[tuple, int] = {}
        self._needs: set[str] = set()
        # -- remembered walk prefixes (see open_block) -------------------------
        self._memo: dict[tuple, tuple[str, str | None]] = {}
        self._blocks: list[list[tuple]] = [[]]

    # -- writer ---------------------------------------------------------------

    def w(self, line: str = "") -> None:
        self.cur.append("    " * self.ind + line if line else "")

    def var(self, prefix: str) -> str:
        self._n += 1
        return f"{prefix}{self._n}"

    def vvar(self, name: str) -> str:
        """The local variable holding the decoded value of terminal ``name``."""
        return f"v{self.position[name]}"

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

    # -- inline field-path walks ----------------------------------------------
    #
    # Every container a walk reaches stays in a local variable, remembered
    # under its bound prefix for the rest of the current block and the blocks
    # nested in it (an optional's ``if`` and a repetition's loop body open
    # blocks), so later paths under the same prefix start from it.  That is
    # sound: ``serialize`` never writes to the caller's message, and ``parse``
    # only adds to the containers it built, because validation refuses a
    # value whose origin is a strict prefix of another node's origin.

    def open_block(self) -> None:
        self._blocks.append([])

    def close_block(self) -> None:
        for key, previous in reversed(self._blocks.pop()):
            if previous is None:
                del self._memo[key]
            else:
                self._memo[key] = previous

    def remember(self, key: tuple, entry: tuple[str, str | None]) -> None:
        """Remember ``entry`` under the bound prefix ``key`` in this block.

        Serialize entries are ``(variable, "value")`` for the value at the
        prefix (or None) and ``(expression, "element")`` for the element of a
        list being iterated; parse entries are ``(variable, kind)`` for a
        container whose type is ``kind`` (``"dict"``, ``"list"`` or None when
        it is not known).
        """
        self._blocks[-1].append((key, self._memo.get(key)))
        self._memo[key] = entry

    def recall(self, bound: list[tuple[str, str]], longest: int
               ) -> tuple[int, tuple[str, str | None] | None]:
        """The longest remembered prefix of ``bound`` of at most ``longest``
        steps: its length and entry, or ``(0, None)``."""
        for size in range(longest, 0, -1):
            entry = self._memo.get(tuple(bound[:size]))
            if entry is not None:
                return size, entry
        return 0, None

    def emit_get(self, dst: str, path: FieldPath, loops: list[str]) -> tuple:
        """Emit statements assigning ``dst`` the value at ``path`` (or None),
        as :meth:`Accessor.get <repro.core.fieldpath.Accessor>` reads it.
        Returns the bound path, the key a caller remembers ``dst`` under."""
        bound = self.bind_steps(path, loops)
        size, entry = self.recall(bound, len(bound))
        if entry is not None and entry[1] == "element" and size == len(bound):
            self.w(f"{dst} = {entry[0]}")
            return tuple(bound)
        src = "message"
        if entry is not None:
            src = entry[0]
            if entry[1] == "element":
                # The element of the list being iterated: always in range.
                src = self.var("c")
                self.w(f"{src} = {entry[0]}")
                self.remember(tuple(bound[:size]), (src, "value"))
        if size == len(bound):
            self.w(f"{dst} = {src}")
            return tuple(bound)
        for position in range(size, len(bound)):
            target = dst if position == len(bound) - 1 else self.var("c")
            kind, token = bound[position]
            if kind == "k":
                if src == "message":
                    expr = f"message.get({token})"
                else:
                    expr = f"{src}.get({token}) if isinstance({src}, dict) else None"
            elif token.startswith("-"):
                expr = "None"
            else:
                expr = (f"{src}[{token}] if isinstance({src}, list) "
                        f"and {token} < len({src}) else None")
            self.w(f"{target} = {expr}")
            if position < len(bound) - 1:
                self.remember(tuple(bound[:position + 1]), (target, "value"))
            src = target
        return tuple(bound)

    def _mismatch(self, bound: list[tuple[str, str]], position: int,
                  kind: str) -> None:
        """Emit the raise of :func:`repro.core.fieldpath._mismatch`."""
        tokens = [token for _, token in bound[:position]]
        prefix = f"({tokens[0]},)" if len(tokens) == 1 else f"({', '.join(tokens)})"
        template = f"expected a {kind} at %r"
        self.w(f"raise MessageError({template!r} % ({prefix},))")

    def _require(self, container: str, known: str | None,
                 bound: list[tuple[str, str]], position: int) -> None:
        """Emit the type check of ``container`` before step ``position``
        (skipped when its type is known) and remember the checked type."""
        need = "dict" if bound[position][0] == "k" else "list"
        if known == need:
            return
        self.w(f"if not isinstance({container}, {need}):")
        self.ind += 1
        self._mismatch(bound, position, need)
        self.ind -= 1
        if position:
            self.remember(tuple(bound[:position]), (container, need))

    def _descend(self, bound: list[tuple[str, str]]) -> tuple[str, str | None]:
        """Emit the creating walk of :meth:`Accessor.set
        <repro.core.fieldpath.Accessor>` down to the container of the last
        step; return its variable and known type."""
        size, entry = self.recall(bound, len(bound) - 1)
        container, known = entry if entry is not None else ("msg", "dict")
        for position in range(size, len(bound) - 1):
            self._require(container, known, bound, position)
            kind, token = bound[position]
            child = self.var("c")
            if kind == "k":
                self.w(f"{child} = {container}.get({token})")
            else:
                self.w(f"while len({container}) <= {token}:")
                self.w(f"    {container}.append(None)")
                self.w(f"{child} = {container}[{token}]")
            need, other = (("dict", "list") if bound[position + 1][0] == "k"
                           else ("list", "dict"))
            self.w(f"if not isinstance({child}, {need}):")
            self.ind += 1
            self.w(f"if isinstance({child}, {other}):")
            self.ind += 1
            self._mismatch(bound, position + 1, need)
            self.ind -= 1
            self.w(f"{child} = {{}}" if need == "dict" else f"{child} = []")
            self.w(f"{container}[{token}] = {child}")
            self.ind -= 1
            self.remember(tuple(bound[:position + 1]), (child, need))
            container, known = child, need
        return container, known

    def emit_set(self, path: FieldPath, loops: list[str], value: str) -> None:
        """Emit statements storing ``value`` at ``path`` inside ``msg``."""
        bound = self.bind_steps(path, loops)
        if not bound:
            self.w("raise MessageError('cannot assign the message root; "
                   "use from_dict instead')")
            return
        container, known = self._descend(bound)
        self._require(container, known, bound, len(bound) - 1)
        kind, token = bound[-1]
        if kind == "i":
            self.w(f"while len({container}) <= {token}:")
            self.w(f"    {container}.append(None)")
        self.w(f"{container}[{token}] = {value}")

    def emit_list_init(self, path: FieldPath, loops: list[str]) -> None:
        """Emit ``init_list``: store ``[]`` at ``path`` unless a value is
        there, and remember the value at ``path``."""
        bound = self.bind_steps(path, loops)
        if not bound or self.recall(bound, len(bound))[0] == len(bound):
            return  # a remembered container is present
        container, known = self._descend(bound)
        self._require(container, known, bound, len(bound) - 1)
        kind, token = bound[-1]
        value = self.var("c")
        if kind == "k":
            self.w(f"{value} = {container}.setdefault({token}, [])")
        else:
            if token.startswith("-"):
                self.w(f"{container}[{token}] = []")
            else:
                self.w(f"if {token} >= len({container}):")
                self.w(f"    while len({container}) < {token}:")
                self.w(f"        {container}.append(None)")
                self.w(f"    {container}.append([])")
            self.w(f"{value} = {container}[{token}]")
        self.remember(tuple(bound), (value, None))

    # ======================================================================
    # parse emission
    # ======================================================================

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
            delim = node.boundary.delimiter
            p = self.var("p")
            self.w(f"{p} = {st.buf}.find({delim!r}, {st.off}, {st.end})")
            self.w(f"if {p} < 0:")
            template = f"delimiter {delim!r} not found [offset=%d]"
            self.w(f"    raise ParseError({template!r} % {st.off}, {st.off}, {name!r})")
            return f"{st.buf}[{st.off}:{p}]"
        if kind is BoundaryKind.LENGTH:
            length = self.vvar(node.boundary.ref)
            self.w(f"if {length} < 0:")
            template = "cannot read a negative number of bytes (%d)"
            self.w(f"    raise ParseError({template!r} % {length}, {st.off}, {name!r})")
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

    def _p_uint(self, base: str, chain: tuple[ValueOp, ...]) -> str:
        """``base`` with the inverted integer chain folded in."""
        return _fold_int_steps(base, _int_chain_steps(chain, inverse=True))

    def _p_decode(self, node: Node, raw: str, dst: str) -> None:
        """Emit the decode of ``raw`` into ``dst`` (chain inversion fused)."""
        kind = node.value_kind
        chain = node.codec_chain
        if kind is ValueKind.UINT:
            base = f"int.from_bytes({raw}, {node.endian.value!r})"
            self.w(f"{dst} = {self._p_uint(base, chain)}")
            return
        if chain:  # validation leaves bytes/text chains byte-wise only
            _, inverse = _byte_tables(chain)
            raw = f"{raw}.translate({self.table_const(inverse)})"
        text = kind is ValueKind.TEXT
        self.w(f"{dst} = {raw}.decode('latin-1')" if text else f"{dst} = {raw}")

    def _p_terminal(self, node: Node, st: _Win, *, prebounded: bool = False,
                    store_origin: bool = True) -> None:
        """Emit parse + store of one terminal (the _parse_terminal path)."""
        if node.is_pad:
            # Pads (fixed-size, by validation) consume their extent and are
            # discarded: zero-copy skip.
            if prebounded:
                self.w(f"{st.off} = {st.end}")
                return
            size = node.boundary.size
            self._p_fixed_guard(st, size, node.name)
            self.w(f"{st.off} += {size}")
            return
        dst = self.vvar(node.name)
        fixed1 = (not prebounded and node.boundary.kind is BoundaryKind.FIXED
                  and (node.boundary.size or 0) == 1
                  and node.value_kind is ValueKind.UINT)
        if fixed1:
            # One-byte unsigned integer: index the buffer, no slice.
            self._p_fixed_guard(st, 1, node.name)
            base = f"{st.buf}[{st.off}]"
            self.w(f"{dst} = {self._p_uint(base, node.codec_chain)}")
            self.w(f"{st.off} += 1")
        else:
            raw = self._p_terminal_raw(node, st, prebounded)
            self._p_decode(node, raw, dst)
            self._p_advance(node, st, prebounded, raw)
        if store_origin and node.origin is not None:
            self.emit_set(node.origin, self._ploops, dst)

    # -- mirrored regions ------------------------------------------------------

    def _p_region(self, node: Node, st: _Win) -> _Win:
        """Emit extraction of a mirrored node's byte region (reversed).

        Replays :meth:`Parser._extract_region`: errors propagate *unwrapped*.
        Returns the window over the reversed region buffer.  Validation gives
        every mirrored node a parse-time determinable extent: a FIXED, LENGTH
        or END boundary, or a static size.
        """
        kind = node.boundary.kind
        if kind is BoundaryKind.FIXED:
            size_expr = str(node.boundary.size)
        elif kind is BoundaryKind.LENGTH:
            size_expr = self.vvar(node.boundary.ref)
            self.w(f"if {size_expr} < 0:")
            template = "cannot read a negative number of bytes (%d)"
            self.w(f"    raise ParseError({template!r} % {size_expr}, None, None)")
        elif kind is BoundaryKind.END:
            size_expr = f"{st.end} - {st.off}"
        else:
            size_expr = str(self.static_sizes[self.position[node.name]])
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
            length = self.vvar(node.boundary.ref)
            self.w(f"if {length} < 0:")
            template = "negative sub-window length (%d)"
            self.w(f"    raise ParseError({template!r} % {length}, None, None)")
            self.w(f"if {st.end} - {st.off} < {length}:")
            template = "sub-window of %d byte(s) exceeds the %d remaining byte(s)"
            self.w(f"    raise ParseError({template!r} % ({length}, {st.end} - {st.off}), "
                   f"{st.off}, None)")
            end = self.var("e")
            self.w(f"{end} = {st.off} + {length}")
            return st.bounded(end), True
        return st, False

    def _p_strict_check(self, node: Node, st: _Win) -> None:
        self.w(f"if {st.off} != {st.end}:")
        template = "%d byte(s) left inside bounded node"
        self.w(f"    raise ParseError({template!r} % ({st.end} - {st.off}), "
               f"{st.off}, {node.name!r})")

    # -- node dispatch ---------------------------------------------------------

    def _p_node(self, node: Node, st: _Win, *, prebounded: bool = False) -> None:
        if node.mirrored and not prebounded:
            self._p_node(node, self._p_region(node, st), prebounded=True)
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
            if child.value_kind is ValueKind.UINT:
                self.w(f"{dst} = {self._p_uint(tmp, child.codec_chain)}")
            else:  # BYTES / TEXT: unpack produced bytes
                self._p_decode(child, tmp, dst)
        for child, _, _ in run:
            if not child.is_pad and child.origin is not None:
                self.emit_set(child.origin, self._ploops, self.vvar(child.name))

    # -- synthesis --------------------------------------------------------------

    def _p_synthesis(self, node: Node, st: _Win) -> None:
        shares: list[Node] = []
        for child in node.children:
            if child.name in self.ref_targets:
                self._p_node(child, st)
                continue
            shares.append(child)
            if child.mirrored:
                self._p_terminal(child, self._p_region(child, st), prebounded=True,
                                 store_origin=False)
            else:
                self._p_terminal(child, st, store_origin=False)
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
            self.w(f"if {self.vvar(node.presence_ref)} == {node.presence_value!r}:")
        else:
            self.w(f"if {st.off} < {st.end}:")
        self.ind += 1
        self.open_block()
        self._p_node(node.children[0], st)
        self.close_block()
        self.ind -= 1

    # -- repetitions -------------------------------------------------------------

    def _p_repetition(self, node: Node, st: _Win, *, prebounded: bool) -> None:
        self.emit_list_init(node.origin, self._ploops)
        child = node.children[0]
        kind = node.boundary.kind
        loop = f"i{len(self._ploops)}"
        if kind is BoundaryKind.COUNTER:
            self.w(f"for {loop} in range({self.vvar(node.boundary.ref)}):")
        elif kind is BoundaryKind.DELIMITED:
            term = node.boundary.delimiter or b""
            self.w(f"{loop} = 0")
            self.w(f"while {st.off} < {st.end} and not "
                   f"{st.buf}.startswith({term!r}, {st.off}, {st.end}):")
        else:
            # LENGTH / END / prebounded: consume the (bounded) window.
            self.w(f"{loop} = 0")
            self.w(f"while {st.off} < {st.end}:")
        self.ind += 1
        self.open_block()
        self._ploops.append(loop)
        self._p_node(child, st)
        if kind is not BoundaryKind.COUNTER:
            self.w(f"{loop} += 1")
        self._ploops.pop()
        self.close_block()
        self.ind -= 1
        if kind is BoundaryKind.DELIMITED:
            self.w(f"if {st.buf}.startswith({term!r}, {st.off}, {st.end}):")
            self.w(f"    {st.off} += {len(term)}")

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
        self.w(f"    raise SerializationError({template!r} % ({path}, {node.name!r}))")

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
            self._needs.add("draw")
            self._needs.add("pad")
            self.w(f"out += _draw_pad(_gb, {node.boundary.size or 0})")
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
            self.emit_get(x, node.origin, self._sloops)
            self._s_missing(node, x, "terminal")
        self._s_encode(node, x)

    def _s_length_slot(self, node: Node) -> None:
        width = node.boundary.size or 0
        rid = self.resolver_id(width, node.endian.value, node.codec_chain)
        key = self._region_key(self.length_sources[node.name].name)
        self._needs.update(("slots", "fit"))
        self.w(f"pend.append([len(out), {width}, False, {rid}, {key}, {node.name!r}])")
        self.w(f"out += {self.zero_const(width)}")

    def _s_counter(self, node: Node, counted: Node) -> None:
        x = self.var("x")
        self.emit_get(x, counted.origin, self._sloops)
        path = self.path_display(counted.origin, self._sloops)
        self.w(f"if {x} is None:")
        self.w(f"    {x} = 0")
        self.w(f"elif isinstance({x}, list):")
        self.w(f"    {x} = len({x})")
        self.w("else:")
        template = "field %s is not a list"
        self.w(f"    raise MessageError({template!r} % ({path},))")
        self._s_encode(node, x)

    def _s_encode(self, node: Node, x: str) -> None:
        """Emit wire encoding of the value in ``x`` (chain + checks fused)."""
        kind = node.value_kind
        chain = node.codec_chain
        size = (node.boundary.size
                if node.boundary.kind is BoundaryKind.FIXED else None)
        delim = (node.boundary.delimiter
                 if node.boundary.kind is BoundaryKind.DELIMITED else b"")
        if kind is ValueKind.UINT:
            self._s_uint(node, x)
            if size == 1:
                self.w(f"out.append({x})")
            else:
                self.w(f"out += {x}.to_bytes({size}, {node.endian.value!r})")
        else:
            label = "bytes" if kind is ValueKind.BYTES else "text"
            if chain:  # validation leaves bytes/text chains byte-wise only
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
                self.w(f"    raise SerializationError({template!r} % type({x}).__name__)")
                self.w(f"{x} = {x}.translate({self.table_const(forward)})")
            else:
                self.w(f"if isinstance({x}, str):")
                self.w(f"    {x} = {x}.encode('latin-1')")
                self.w(f"elif isinstance({x}, (bytes, bytearray)):")
                self.w(f"    {x} = bytes({x})")
                self.w("else:")
                template = f"terminal {node.name!r}: cannot encode %s as {label}"
                self.w(f"    raise SerializationError({template!r} % type({x}).__name__)")
            if size is not None:
                self.w(f"if len({x}) != {size}:")
                template = (f"terminal {node.name!r}: fixed-size field expects "
                            f"{size} byte(s), value has %d")
                self.w(f"    raise SerializationError({template!r} % len({x}))")
            if delim:
                self.w(f"if {delim!r} in {x}:")
                template = (f"value of delimited terminal {node.name!r} contains "
                            f"its delimiter {delim!r}")
                self.w(f"    raise SerializationError({template!r})")
            self.w(f"out += {x}")
            if delim:
                self.w(f"out += {delim!r}")

    def _s_uint(self, node: Node, x: str) -> None:
        """Range-check the logical uint in ``x``, then fold its chain in.

        Validated uints are fixed-size, with integer ops of their width, so
        the masked additions and in-range xors keep a checked value in range.
        """
        size = node.boundary.size or 0
        self._needs.add("fit")
        self.w(f"if not 0 <= ({x} := int({x})) < {1 << (8 * size)}:")
        self.w(f"    _fit({x}, {size}, {node.name!r})")
        steps = _int_chain_steps(node.codec_chain, inverse=False)
        if steps:
            self.w(f"{x} = {_fold_int_steps(x, steps)}")

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
        # Validated uints are fixed-size and their chains fold.
        return child.boundary.size in _UINT_FMT

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
            self._s_uint(child, x)
        # Every member was checked in order above, so the pack cannot fail.
        self.w(f"out += {struct_name}.pack({', '.join(names)})")

    # -- synthesis --------------------------------------------------------------

    def _s_synthesis(self, node: Node) -> None:
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
                # randint(0, len) draws below len + 1.
                n, bits = self.var("n"), self.var("k")
                self.w(f"{n} = len({d}) + 1")
                self.w(f"{bits} = {n}.bit_length()")
                self._emit_draw(cut, n, bits)
            else:
                self.w(f"{cut} = max(0, min({node.split_at}, len({d})))")
            self.w(f"{s1} = {d}[:{cut}]")
            self.w(f"{s2} = {d}[{cut}:]")
        else:
            if synthesis.width is None:
                raise CodegenError(f"synthesis node {node.name!r} carries no width")
            modulus = 1 << (8 * synthesis.width)
            logical = self.var("x")
            self.w(f"{logical} = int({x})")
            self.w(f"if not 0 <= {logical} < {modulus}:")
            template = (f"synthesis node {node.name!r}: value %d does not fit in "
                        f"{synthesis.width} byte(s)")
            self.w(f"    raise SerializationError({template!r} % {logical})")
            self._emit_draw(s1, str(modulus), str(modulus.bit_length()))
            if synthesis.op is SynthesisOp.ADD:
                self.w(f"{s2} = ({logical} - {s1}) % {modulus}")
            elif synthesis.op is SynthesisOp.SUB:
                self.w(f"{s2} = ({s1} - {logical}) % {modulus}")
            else:
                self.w(f"{s2} = {logical} ^ {s1}")
        shares = [s1, s2]
        for child in node.children:
            if child.name in self.length_sources:
                self._s_node(child)
                continue
            share = shares.pop(0)
            self._s_split_child(child, share)

    def _emit_draw(self, dst: str, n: str, bits: str) -> None:
        """Inline :func:`repro.core.values.draw_below`: ``rng.randrange(n)``,
        where ``bits`` is ``n.bit_length()``."""
        self._needs.add("draw")
        self.w(f"{dst} = _gb({bits})")
        self.w(f"while {dst} >= {n}:")
        self.w(f"    {dst} = _gb({bits})")

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
        if node.presence_ref is not None:
            path = self.node_map[node.presence_ref].origin
            test = f"== {node.presence_value!r}"
        elif node.origin is None:
            return
        else:
            path, test = node.origin, "is not None"
        x = self.var("x")
        key = self.emit_get(x, path, self._sloops)
        self.w(f"if {x} {test}:")
        self.remember(key, (x, "value"))
        self.ind += 1
        self.open_block()
        self._s_node(node.children[0])
        self.close_block()
        self.ind -= 1

    # -- repetitions ---------------------------------------------------------------

    def _s_repetition(self, node: Node) -> None:
        x = self.var("x")
        key = self.emit_get(x, node.origin, self._sloops)
        self.remember(key, (x, "value"))
        path = self.path_display(node.origin, self._sloops)
        n = self.var("n")
        self.w(f"if {x} is None:")
        self.w(f"    {n} = 0")
        self.w(f"elif isinstance({x}, list):")
        self.w(f"    {n} = len({x})")
        self.w("else:")
        template = "field %s is not a list"
        self.w(f"    raise MessageError({template!r} % ({path},))")
        loop = f"i{len(self._sloops)}"
        self.w(f"for {loop} in range({n}):")
        self.ind += 1
        self.open_block()
        # Inside the loop the value is a list and the index is in range.
        self.remember(key + (("i", loop),), (f"{x}[{loop}]", "element"))
        self._sloops.append(loop)
        self._s_node(node.children[0])
        self._sloops.pop()
        self.close_block()
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
        constants = self._emit_constants()
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
        lines.append(f"__emitter_version__ = {EMITTER_VERSION!r}")
        lines.append("__specialized__ = True")
        lines.append(self._emit_preamble())
        lines.append("# === generated code (emitted per specification) ===")
        lines.append(constants)
        lines.extend(parse_body)
        lines.append("")
        lines.extend(serialize_body)
        lines.append("")
        return "\n".join(lines) + "\n"

    def _emit_parse_body(self) -> list[str]:
        self.cur = []
        self.ind = 1
        self._memo, self._blocks = {}, [[]]
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
        out.extend(body)
        out.append("    if strict and o != e:")
        out.append("        raise ParseError('%d trailing byte(s) after the message'"
                   " % (e - o), o, None)")
        out.append("    return msg")
        return out

    def _emit_serialize_body(self) -> list[str]:
        self.cur = []
        self.ind = 1
        self._memo, self._blocks = {}, [[]]
        self._s_node(self.graph.root)
        body = self.cur
        has_slots = "slots" in self._needs
        out = []
        out.append("def serialize(message, rng=None):")
        out.append('    """Serialize a logical message (nested dict) into '
                   'wire bytes."""')
        out.append("    if rng is None:")
        out.append("        rng = _random.Random(0)")
        if "draw" in self._needs:
            out.append("    _gb = rng.getrandbits")
        out.append("    out = bytearray()")
        if has_slots or "mirror" in self._needs:
            out.append("    pend = []")
        if has_slots:
            out.append("    lens = {}")
        out.extend(body)
        if has_slots:
            # A measured length is range-checked before its resolver folds
            # the chain in, as the interpreted tier's length encoders do.
            out.append("    for _s in pend:")
            out.append("        _L = lens.get(_s[4], 0)")
            out.append("        if _L >> 8 * _s[1]:")
            out.append("            _fit(_L, _s[1], _s[5])")
            out.append("        _b = _RES[_s[3]](_L)")
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
        chunks.append("")
        chunks.append("from repro.core.errors import MessageError, ParseError, "
                      "SerializationError")
        if "pad" in needs:
            chunks.append("from repro.core.values import draw_pad as _draw_pad")
        if "eof" in needs or "runfail" in needs:
            chunks.append("""

def _eof(needed, avail, off, node):
    raise ParseError(
        "unexpected end of data: needed %d byte(s), %d available [offset=%d]"
        % (needed, avail, off), off, node)""")
        if "eof0" in needs:
            chunks.append("""

def _eof0(needed, avail, off):
    raise ParseError("unexpected end of data: needed %d byte(s), %d available"
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
    raise ParseError("fused read failed", off, None)  # pragma: no cover""")
        if "fit" in needs:
            chunks.append("""

def _fit(value, size, name):
    raise SerializationError("terminal %r: value %d does not fit in %d byte(s)"
                             % (name, value, size))""")
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
        return "\n".join(chunks) + "\n"

    def _emit_constants(self) -> str:
        lines = [""]
        for fmt, name in self._structs.items():
            lines.append(f"{name} = _struct.Struct({fmt!r})")
        for table, name in self._tables.items():
            lines.append(f"{name} = {table!r}")
        for width in sorted(self._zeros):
            lines.append(f"_Z{width} = bytes({width})")
        if self._resolvers:
            lines.append("")
            lines.append("# Length-slot resolvers: chain folded into the range-checked")
            lines.append("# length, encoded at the slot's endianness.")
            lines.append("_RES = (")
            for width, endian, chain in self._resolvers:
                expr = _fold_int_steps("L", _int_chain_steps(chain, inverse=False))
                lines.append(f"    lambda L: {expr}.to_bytes({width}, {endian!r}),")
            lines.append(")")
        lines.append("")
        return "\n".join(lines)


def generate_specialized_module(graph: FormatGraph, *,
                                plan_fingerprint: str | None = None) -> str:
    """Emit the specialized (straight-line, struct-fused) codec for ``graph``.

    The module exposes the same ``serialize(message, rng=None)`` /
    ``parse(data, strict=True)`` API as the readable generated library, is
    stamped with ``__specialized__ = True`` plus the emitter version, and
    raises the interpreted runtime's typed errors with the same text, offset
    and node identity.  ``graph`` is validated first: an invalid graph raises
    the validator's :class:`~repro.core.errors.GraphError`.
    """
    index = lookup_index(graph)
    return _SpecEmitter(graph, index, plan_fingerprint=plan_fingerprint).emit()
