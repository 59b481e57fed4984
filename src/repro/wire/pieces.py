"""Serialization pieces.

The serializer works in two passes.  The first pass walks the (possibly
obfuscated) format graph and produces a flat list of *pieces*: literal byte
chunks and fixed-width *length slots* standing in for derived length fields
whose value is only known once the covered region has been measured.  The
second pass resolves the slots and concatenates everything.

This piece model is what makes the paper's transformations composable: a
length field can itself be value-obfuscated (ConstAdd/Sub/Xor) or mirrored
(ReadFromEnd) because the slot records the codec chain and mirroring flag and
applies them when the final value is written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import SerializationError
from ..core.fieldpath import FieldPath
from ..core.values import Endian, ValueKind, ValueOp, apply_chain, encode_uint

_UINT = ValueKind.UINT  # bound once: enum attribute lookups are slow on 3.10/3.11


class Chunk:
    """A literal run of bytes, optionally labelled with the terminal that produced it.

    A plain ``__slots__`` class rather than a dataclass: chunks are allocated
    once per emitted field per message, making construction cost part of the
    serialization hot path.
    """

    __slots__ = ("data", "node", "origin")

    def __init__(self, data: bytes, node: str | None = None,
                 origin: FieldPath | None = None):
        self.data = data
        self.node = node
        self.origin = origin

    def byte_length(self) -> int:
        return len(self.data)

    def mirrored(self) -> "Chunk":
        """Byte-reversed copy (labels are preserved: the extent is unchanged)."""
        return Chunk(self.data[::-1], node=self.node, origin=self.origin)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Chunk):
            return (self.data, self.node, self.origin) == (
                other.data, other.node, other.origin
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"Chunk(data={self.data!r}, node={self.node!r}, origin={self.origin!r})"


@dataclass
class LengthSlot:
    """A fixed-width placeholder for a derived length field.

    ``target`` is the name of the node whose serialized byte length must be
    written here once known; ``context`` is the repetition index stack active
    when the slot was emitted, so that a length field inside a repeated
    element refers to the element instance it belongs to.  ``codec_chain`` and
    ``mirrored`` reproduce the obfuscations applied to the length terminal
    itself.
    """

    node: str
    target: str
    width: int
    endian: Endian = Endian.BIG
    codec_chain: tuple[ValueOp, ...] = ()
    mirrored: bool = False
    origin: FieldPath | None = None
    context: tuple[int, ...] = ()

    def byte_length(self) -> int:
        return self.width

    def mirror_toggled(self) -> "LengthSlot":
        """Copy with the mirroring flag flipped (mirroring twice cancels out)."""
        return LengthSlot(
            node=self.node,
            target=self.target,
            width=self.width,
            endian=self.endian,
            codec_chain=self.codec_chain,
            mirrored=not self.mirrored,
            origin=self.origin,
            context=self.context,
        )

    def resolve(self, length: int) -> bytes:
        """Encode the measured ``length`` of the target region."""
        value = apply_chain(length, _UINT, self.codec_chain)
        if not isinstance(value, int):  # pragma: no cover - chains keep ints
            raise SerializationError("length field codec chain produced a non-integer")
        data = encode_uint(value % (1 << (8 * self.width)), self.width, self.endian)
        return data[::-1] if self.mirrored else data


Piece = Chunk | LengthSlot


@dataclass
class PieceList:
    """An ordered list of pieces with helpers for measurement and mirroring.

    The total byte length is maintained incrementally as pieces are appended:
    every composite node records its region length after serializing, so a
    re-summing :meth:`byte_length` would be quadratic in the piece count.
    """

    pieces: list[Piece] = field(default_factory=list)
    _length: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.pieces:
            self._length = sum(piece.byte_length() for piece in self.pieces)

    # -- construction ---------------------------------------------------------

    def add_bytes(self, data: bytes, *, node: str | None = None,
                  origin: FieldPath | None = None) -> None:
        """Append a literal chunk (empty chunks are dropped)."""
        if data:
            self.pieces.append(Chunk(bytes(data), node=node, origin=origin))
            self._length += len(data)

    def add_slot(self, slot: LengthSlot) -> None:
        """Append a length slot."""
        self.pieces.append(slot)
        self._length += slot.width

    def extend(self, other: "PieceList") -> None:
        """Append every piece of ``other``."""
        self.pieces.extend(other.pieces)
        self._length += other._length

    # -- measurement ----------------------------------------------------------

    def byte_length(self) -> int:
        """Total serialized length (slots count for their fixed width)."""
        return self._length

    # -- transformations ------------------------------------------------------

    def mirrored(self) -> "PieceList":
        """Piece list whose assembled bytes are the byte-reversal of this one."""
        reversed_pieces: list[Piece] = []
        for piece in reversed(self.pieces):
            if isinstance(piece, Chunk):
                reversed_pieces.append(piece.mirrored())
            else:
                reversed_pieces.append(piece.mirror_toggled())
        return PieceList(reversed_pieces)

    def mirror_from(self, index: int) -> None:
        """Mirror the pieces appended since ``index`` in place (ReadFromEnd).

        Equivalent to replacing ``pieces[index:]`` with its :meth:`mirrored`
        counterpart; used by the serializer to mirror one node's region inside
        the shared accumulator.  The pieces are mutated directly — the
        serializer owns every piece it appends, they are never shared — so no
        intermediate piece list or piece copies are built.  The total byte
        length is unchanged.
        """
        tail = self.pieces[index:]
        tail.reverse()
        for piece in tail:
            if isinstance(piece, Chunk):
                piece.data = piece.data[::-1]
            else:
                piece.mirrored = not piece.mirrored
        self.pieces[index:] = tail

    # -- assembly -------------------------------------------------------------

    def assemble(self, region_lengths: dict[tuple[str, tuple[int, ...]], int],
                 *, with_spans: bool = True
                 ) -> tuple[bytes, list[tuple[str | None, FieldPath | None, int, int]]]:
        """Resolve slots and concatenate all pieces.

        ``region_lengths`` maps ``(node name, repetition index context)`` to
        the measured serialized length of that node instance.  Returns the
        final byte string and the list of labelled spans
        ``(node, origin, start, end)`` for pieces that carry a node label
        (empty when ``with_spans`` is False — the plain ``serialize()`` path
        does not pay for span bookkeeping it discards).

        The output buffer is preallocated from the incrementally maintained
        total length instead of grown chunk by chunk.
        """
        if not with_spans:
            return b"".join(
                piece.data if type(piece) is Chunk
                else piece.resolve(region_lengths.get((piece.target, piece.context), 0))
                for piece in self.pieces
            ), []
        output = bytearray(self._length)
        spans: list[tuple[str | None, FieldPath | None, int, int]] = []
        position = 0
        for piece in self.pieces:
            if isinstance(piece, Chunk):
                data = piece.data
            else:
                length = region_lengths.get((piece.target, piece.context), 0)
                data = piece.resolve(length)
            end = position + len(data)
            output[position:end] = data
            if piece.node is not None:
                spans.append((piece.node, piece.origin, position, end))
            position = end
        if position != len(output):
            del output[position:]
        return bytes(output), spans
