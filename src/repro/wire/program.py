"""Parse programs: a format graph lowered to flat, resumable parse steps.

The recursive :class:`~repro.wire.parser.Parser` needs a whole message in one
buffer.  A stream delivers bytes in arbitrary chunks, so the streaming decoder
runs a *parse program* instead: :func:`program_for` lowers a graph once per
:class:`~repro.wire.plan.CodecPlan` into a flat tuple of steps with the plan's
fused decoders and origin setters bound in, and :meth:`ParseProgram.run`
executes them over the bytes received so far.  When an answer depends on a
byte that has not arrived, ``run`` saves the step index, the cursor and the
stacks in the message's :class:`ParseRun` and returns; the next call resumes
at that step, so a message dripped one byte at a time is parsed once, not
once per byte.

Each step is a tuple whose first item is its opcode:

* ``(READ_FIXED, size, node, label, decode, setter)`` reads ``size`` bytes;
  ``READ_LENGTH`` reads as many as the length field its second item names
  declares, ``READ_REST`` reads to the window's end and ``READ_UNTIL`` reads
  up to its delimiter, which it consumes;
* ``(ENTER,)`` parses the reversed copy of the bytes just read (a mirrored
  node) until ``(LEAVE, node)`` checks that the region is used up;
* ``(OPEN, ref, node)`` opens a LENGTH window and ``(CLOSE, node)`` checks
  that it is used up;
* an optional is ``(PRESENT, ref, value, jump)`` or ``(AT_END, jump)``,
  which jump past its child when it is absent;
* a repetition is ``(LOOP, list_init)``, then a head that jumps to the
  closing ``(POP,)`` when no element follows — ``(COUNTED, ref, jump)``, or
  ``(AT_END, jump)`` and, for a delimited repetition,
  ``(TERMINATOR, terminator, jump)``, which consumes the terminator — then
  the element's steps and ``(NEXT, head)``;
* ``(COMBINE, first, second, combine, setter)`` combines two synthesis
  shares.

A read stores the decoded value of every non-pad terminal under its node name
(the references and synthesis shares later steps read) and hands it to the
terminal's origin setter; ``decode`` is ``None`` for pads and for the region
of a mirrored composite.  ``label`` is the node name a failed read reports,
``None`` for the bytes of a mirrored region, as in :class:`Parser`.

Every answer the parser gives, the program gives with the same errors,
offsets and nodes.  A bounded window answers as :class:`Window` does; the open
window at the root of a message, whose end is not known, waits for the bytes
any answer depends on, and at end of stream a wait raises
:class:`~repro.core.errors.StreamError`.  A mirrored region is a complete
reversed copy, so no step suspends inside one.  ``max_declared_bytes`` is
checked at each length declaration, before any byte is awaited toward it.
"""

from __future__ import annotations

import sys
from typing import Callable

from ..core.errors import BudgetExceeded, ParseError, StreamError
from ..core.graph import FormatGraph
from ..core.message import Message
from ..core.node import Node
from .parser import (
    _COUNTER,
    _DELIMITED,
    _END,
    _FIXED,
    _LENGTH,
    _OPTIONAL,
    _SEQUENCE,
    _TERMINAL,
)
from .plan import CodecPlan

# Opcodes.  Reads come first so one comparison routes every read.
READ_FIXED, READ_LENGTH, READ_REST, READ_UNTIL = 0, 1, 2, 3
NEXT, AT_END, COUNTED, TERMINATOR, LOOP, POP = 4, 5, 6, 7, 8, 9
OPEN, CLOSE, COMBINE, PRESENT, ENTER, LEAVE = 10, 11, 12, 13, 14, 15

#: End of the open window at the root of a message: past every byte.
_OPEN_END = sys.maxsize


class ParseRun:
    """Where the parse of one message stands, enough to resume it.

    ``pc`` is the next step and ``cursor`` the next byte, counted from the
    message's first byte; ``end`` is the current window's end and ``ends``
    the enclosing windows'.  ``scan`` is where a suspended delimiter scan
    resumes.  ``values`` holds every decoded terminal value by node name and
    ``indices`` the repetition indices, innermost last; ``data`` is the
    logical message under construction.
    """

    __slots__ = ("pc", "cursor", "end", "ends", "scan", "values", "indices",
                 "data", "message")

    def __init__(self) -> None:
        self.pc = 0
        self.cursor = 0
        self.end = _OPEN_END
        self.ends: list[int] = []
        self.scan = 0
        self.values: dict = {}
        self.indices: list[int] = []
        self.data: dict = {}
        self.message = Message(self.data)


def _labelled(error: ParseError, label: str | None) -> ParseError:
    """``error`` as a failed terminal read reports it (``Parser._terminal_bytes``)."""
    if label is None:
        return error
    return ParseError(str(error), node=label, offset=error.offset)


class ParseProgram:
    """The flat parse steps of one graph (see the module docstring)."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[tuple, ...]):
        self.steps = steps

    def run(self, state: ParseRun, data: bytearray, eof: bool, base: int,
            declared: int | None) -> bool:
        """Run ``state`` over ``data``, the message's bytes received so far.

        Returns True when the message is complete (``state.cursor`` is then
        its length) and False when it waits for more bytes.  ``eof`` says no
        byte follows ``data``; ``base`` is the stream offset of its first
        byte, which errors report offsets from; ``declared`` is the budget's
        ``max_declared_bytes``.
        """
        steps = self.steps
        last = len(steps)
        pc, cursor, end, scan = state.pc, state.cursor, state.end, state.scan
        ends, values, indices, fields = state.ends, state.values, state.indices, state.data
        avail = len(data)
        regions: list[tuple] = []
        raw = b""
        while pc < last:
            step = steps[pc]
            op = step[0]
            if op <= READ_UNTIL:
                _, arg, node, label, decode, setter = step
                if op == READ_UNTIL:
                    limit = avail if avail < end else end
                    found = data.find(arg, scan if scan > cursor else cursor, limit)
                    if found < 0:
                        if limit == end:
                            raise _labelled(ParseError(
                                f"delimiter {arg!r} not found", offset=base + cursor,
                            ), label)
                        if eof:
                            raise StreamError(
                                f"stream ended before delimiter {arg!r} was found",
                                offset=base + cursor,
                            )
                        # A delimiter may straddle the next chunk: rescan
                        # only from where it could start.
                        scan = max(cursor, limit - len(arg) + 1)
                        break
                    scan = 0
                    raw = data[cursor:found]
                    cursor = found + len(arg)
                else:
                    if op == READ_FIXED:
                        count = arg
                    elif op == READ_LENGTH:
                        count = values[arg]
                        if declared is not None and count > declared:
                            raise BudgetExceeded("declared_bytes", limit=declared,
                                                 actual=count, node=node)
                    elif end != _OPEN_END:
                        count = end - cursor
                    elif eof:
                        count = avail - cursor
                    else:
                        break
                    target = cursor + count
                    if target > end:
                        raise _labelled(ParseError(
                            f"unexpected end of data: needed {count} byte(s), "
                            f"{end - cursor} available", offset=base + cursor,
                        ), label)
                    if target > avail:
                        if eof:
                            raise StreamError(
                                f"stream ended {target - avail} byte(s) short of a "
                                f"{count}-byte read", offset=base + cursor,
                            )
                        break
                    raw = data[cursor:target]
                    cursor = target
                if decode is not None:
                    value = decode(raw)
                    values[node] = value
                    if setter is not None:
                        setter(fields, indices, value)
                pc += 1
            elif op == NEXT:
                indices[-1] += 1
                pc = step[1]
            elif op == AT_END:
                if cursor < end and (cursor < avail or end != _OPEN_END):
                    pc += 1
                elif cursor >= end or eof:
                    pc = step[1]
                else:
                    break
            elif op == COUNTED:
                pc = pc + 1 if indices[-1] < values[step[1]] else step[2]
            elif op == TERMINATOR:
                target = cursor + len(step[1])
                if target > end:
                    pc += 1
                elif target > avail:
                    if not eof:
                        break
                    if end != _OPEN_END:
                        raise StreamError("stream ended inside a bounded window",
                                          offset=base + cursor)
                    pc += 1
                elif data.startswith(step[1], cursor, target):
                    cursor = target
                    pc = step[2]
                else:
                    pc += 1
            elif op == LOOP:
                step[1](fields, indices)
                indices.append(0)
                pc += 1
            elif op == POP:
                indices.pop()
                pc += 1
            elif op == OPEN:
                count = values[step[1]]
                if declared is not None and count > declared:
                    raise BudgetExceeded("declared_bytes", limit=declared,
                                         actual=count, node=step[2])
                if cursor + count > end:
                    raise ParseError(
                        f"sub-window of {count} byte(s) exceeds the "
                        f"{end - cursor} remaining byte(s)", offset=base + cursor,
                    )
                ends.append(end)
                end = cursor + count
                pc += 1
            elif op == CLOSE or op == LEAVE:
                if cursor < end:
                    raise ParseError(
                        f"{end - cursor} byte(s) left inside bounded node",
                        node=step[1], offset=base + cursor,
                    )
                if op == CLOSE:
                    end = ends.pop()
                else:
                    data, avail, cursor, end, eof, base = regions.pop()
                pc += 1
            elif op == COMBINE:
                _, first, second, combine, setter = step
                setter(fields, indices, combine(values[first], values[second]))
                pc += 1
            elif op == PRESENT:
                pc = pc + 1 if values[step[1]] == step[2] else step[3]
            else:  # ENTER
                regions.append((data, avail, cursor, end, eof, base))
                data = raw[::-1]
                avail = end = len(data)
                cursor = base = 0
                eof = True
                pc += 1
        else:
            state.cursor = cursor
            return True
        state.pc, state.cursor, state.end, state.scan = pc, cursor, end, scan
        return False


def compile_program(graph: FormatGraph, plan: CodecPlan) -> ParseProgram:
    """Lower ``graph``, already compiled into ``plan``, to its parse program."""
    steps: list[tuple] = []
    ref_targets = plan.ref_targets
    terminals = plan.terminals
    origin_set = plan.origin_set

    def region_read(node: Node) -> tuple[int, object]:
        # Parser._extract_region: validation gives every mirrored node that
        # is not FIXED, LENGTH or END bounded a static size.
        kind = node.boundary.kind
        if kind is _FIXED:
            return READ_FIXED, node.boundary.size or 0
        if kind is _LENGTH:
            return READ_LENGTH, node.boundary.ref
        if kind is _END:
            return READ_REST, None
        return READ_FIXED, plan.static_sizes[node.name]

    def terminal_read(node: Node, *, share: bool = False) -> None:
        if node.mirrored:
            op, arg = region_read(node)
            label = None
        else:
            label = node.name
            kind = node.boundary.kind
            if kind is _FIXED:
                op, arg = READ_FIXED, node.boundary.size or 0
            elif kind is _DELIMITED:
                op, arg = READ_UNTIL, node.boundary.delimiter
            elif kind is _LENGTH:
                op, arg = READ_LENGTH, node.boundary.ref
            else:
                op, arg = READ_REST, None
        decode = setter = None
        if not node.is_pad:
            decode = terminals[node.name].decode
            if node.mirrored:
                decode = _reversed(decode)
            if not share:
                setter = origin_set.get(node.name)
        steps.append((op, arg, node.name, label, decode, setter))

    def jump_here(at: int) -> None:
        steps[at] = steps[at][:-1] + (len(steps),)

    def emit(node: Node) -> None:
        if node.type is _TERMINAL:
            terminal_read(node)
            return
        if node.mirrored:
            op, arg = region_read(node)
            steps.append((op, arg, node.name, None, None, None))
            steps.append((ENTER,))
            emit_body(node)
            steps.append((LEAVE, node.name))
            return
        bounded = node.boundary.kind is _LENGTH
        if bounded:
            steps.append((OPEN, node.boundary.ref, node.name))
        emit_body(node)
        if bounded:
            steps.append((CLOSE, node.name))

    def emit_body(node: Node) -> None:
        if node.type is _SEQUENCE:
            if node.synthesis is None:
                for child in node.children:
                    emit(child)
                return
            shares = []
            for child in node.children:
                if child.name in ref_targets:
                    emit(child)  # the derived length prefix of a SplitCat
                else:
                    terminal_read(child, share=True)
                    shares.append(child.name)
            steps.append((COMBINE, shares[0], shares[1], node.synthesis.combine,
                          origin_set[node.name]))
            return
        if node.type is _OPTIONAL:
            test = len(steps)
            if node.presence_ref is not None:
                steps.append((PRESENT, node.presence_ref, node.presence_value, None))
            else:
                steps.append((AT_END, None))
            emit(node.children[0])
            jump_here(test)
            return
        # REPETITION / TABULAR
        steps.append((LOOP, plan.list_init[node.name]))
        head = len(steps)
        kind = node.boundary.kind
        if kind is _COUNTER:
            steps.append((COUNTED, node.boundary.ref, None))
        else:
            steps.append((AT_END, None))
            if kind is _DELIMITED:
                steps.append((TERMINATOR, node.boundary.delimiter, None))
        emit(node.children[0])
        steps.append((NEXT, head))
        jump_here(head)
        if kind is _DELIMITED:
            jump_here(head + 1)
        steps.append((POP,))

    emit(graph.root)
    return ParseProgram(tuple(steps))


def _reversed(decode: Callable) -> Callable:
    """Decoder of a mirrored terminal: its region is read back to front."""
    return lambda raw: decode(raw[::-1])


def program_for(graph: FormatGraph, plan: CodecPlan) -> ParseProgram:
    """The parse program of ``graph``, compiled on first use and kept on ``plan``."""
    program = plan.parse_program
    if program is None:
        program = plan.parse_program = compile_program(graph, plan)
    return program
