"""Terminal value kinds, byte-level codecs and invertible value operations.

Terminal nodes of a message format graph carry values of one of three kinds:

* ``UINT`` — fixed-width unsigned integers (big or little endian),
* ``BYTES`` — raw byte strings,
* ``TEXT`` — textual fields, stored as ``str`` and encoded with Latin-1 so
  that any byte value round-trips (real protocols in the evaluation, Modbus
  and HTTP, only use ASCII).

Aggregation transformations of the paper (ConstAdd, ConstSub, ConstXor and the
value-combination half of SplitAdd/SplitSub/SplitXor/SplitCat) operate on
these values.  :class:`ValueOp` is the invertible per-value operation attached
to a terminal's *codec chain*, and :class:`Synthesis` implements the two-way
value synthesis used by the Split* transformations.  :func:`draw_below` and
:func:`draw_pad` are the random draws every codec tier makes while
serializing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random
from typing import Callable, Union

from .errors import SerializationError

Value = Union[int, bytes, str]


class ValueKind(str, enum.Enum):
    """Kind of the value carried by a Terminal node."""

    UINT = "uint"
    BYTES = "bytes"
    TEXT = "text"


class Endian(str, enum.Enum):
    """Byte order of UINT terminals."""

    BIG = "big"
    LITTLE = "little"


_TEXT_ENCODING = "latin-1"

# Enum members compared against per value, bound once: on CPython 3.10/3.11
# ``EnumType.__getattr__`` makes every ``ValueKind.UINT`` a slow lookup.
_UINT = ValueKind.UINT
_BYTES = ValueKind.BYTES
_TEXT = ValueKind.TEXT


# ---------------------------------------------------------------------------
# raw encode / decode
# ---------------------------------------------------------------------------


def encode_uint(value: int, size: int, endian: Endian = Endian.BIG) -> bytes:
    """Encode an unsigned integer on ``size`` bytes."""
    if size <= 0:
        raise SerializationError(f"uint size must be positive, got {size}")
    if not isinstance(value, int):
        raise SerializationError(f"expected an int, got {type(value).__name__}")
    modulus = 1 << (8 * size)
    if not 0 <= value < modulus:
        raise SerializationError(f"value {value} does not fit in {size} byte(s)")
    # ``Endian`` members are ``str`` instances spelling the byte order, so
    # they pass straight through without a slow ``.value`` read.
    return value.to_bytes(size, endian)


def decode_uint(data: bytes, endian: Endian = Endian.BIG) -> int:
    """Decode an unsigned integer from its byte representation."""
    return int.from_bytes(data, endian)


def encode_value(value: Value, kind: ValueKind, *, size: int | None = None,
                 endian: Endian = Endian.BIG) -> bytes:
    """Encode a logical value of the given ``kind`` into bytes.

    ``size`` is mandatory for ``UINT`` values and optional for the others (it
    is only used to check fixed-size constraints).
    """
    if kind is _UINT:
        if size is None:
            raise SerializationError("UINT terminals require a fixed size")
        return encode_uint(int(value), size, endian)
    if kind is _BYTES:
        if isinstance(value, (bytes, bytearray)):
            data = bytes(value)
        elif isinstance(value, str):
            data = value.encode(_TEXT_ENCODING)
        else:
            raise SerializationError(f"cannot encode {type(value).__name__} as bytes")
    elif kind is _TEXT:
        if isinstance(value, str):
            data = value.encode(_TEXT_ENCODING)
        elif isinstance(value, (bytes, bytearray)):
            data = bytes(value)
        else:
            raise SerializationError(f"cannot encode {type(value).__name__} as text")
    else:  # pragma: no cover - exhaustive enum
        raise SerializationError(f"unknown value kind {kind!r}")
    if size is not None and len(data) != size:
        raise SerializationError(
            f"fixed-size field expects {size} byte(s), value has {len(data)}"
        )
    return data


def decode_value(data: bytes, kind: ValueKind, *, endian: Endian = Endian.BIG) -> Value:
    """Decode bytes into a logical value of the given ``kind``."""
    if kind is _UINT:
        return decode_uint(data, endian)
    if kind is _BYTES:
        return bytes(data)
    if kind is _TEXT:
        return data.decode(_TEXT_ENCODING)
    raise SerializationError(f"unknown value kind {kind!r}")  # pragma: no cover


def default_value(kind: ValueKind) -> Value:
    """Neutral value used for padding-free defaults of a kind."""
    if kind is _UINT:
        return 0
    if kind is _BYTES:
        return b""
    return ""


# ---------------------------------------------------------------------------
# invertible value operations (codec chain of aggregation transformations)
# ---------------------------------------------------------------------------


class ValueOpKind(str, enum.Enum):
    """Arithmetic family of a :class:`ValueOp`."""

    ADD = "add"
    SUB = "sub"
    XOR = "xor"


_OP_ADD = ValueOpKind.ADD
_OP_XOR = ValueOpKind.XOR


@dataclass(frozen=True)
class ValueOp:
    """One invertible value operation of a terminal's codec chain.

    ``bytewise`` operations apply the constant to each byte modulo 256 and are
    used for BYTES/TEXT terminals; non-bytewise operations apply the constant
    to the whole unsigned integer modulo ``2**(8*width)``.
    """

    kind: ValueOpKind
    constant: int
    bytewise: bool = False
    width: int | None = None

    def apply(self, value: Value, value_kind: ValueKind) -> Value:
        """Obfuscating direction (applied before encoding the value)."""
        return self._run(value, value_kind, inverse=False)

    def invert(self, value: Value, value_kind: ValueKind) -> Value:
        """Deobfuscating direction (applied after decoding the value)."""
        return self._run(value, value_kind, inverse=True)

    # -- internals ----------------------------------------------------------

    def _run(self, value: Value, value_kind: ValueKind, *, inverse: bool) -> Value:
        if self.bytewise:
            data = encode_value(value, value_kind)
            out = bytes(self._byte_op(byte, inverse) for byte in data)
            return decode_value(out, value_kind)
        if value_kind is not _UINT:
            raise SerializationError(
                "non-bytewise value operations only apply to UINT terminals"
            )
        if self.width is None:
            raise SerializationError("integer value operations require a width")
        modulus = 1 << (8 * self.width)
        return self._int_op(int(value), modulus, inverse)

    def _byte_op(self, byte: int, inverse: bool) -> int:
        constant = self.constant & 0xFF
        if self.kind is _OP_XOR:
            return byte ^ constant
        if self.kind is _OP_ADD:
            return (byte - constant) % 256 if inverse else (byte + constant) % 256
        # SUB
        return (byte + constant) % 256 if inverse else (byte - constant) % 256

    def _int_op(self, value: int, modulus: int, inverse: bool) -> int:
        constant = self.constant % modulus
        if self.kind is _OP_XOR:
            return value ^ constant
        if self.kind is _OP_ADD:
            return (value - constant) % modulus if inverse else (value + constant) % modulus
        # SUB
        return (value + constant) % modulus if inverse else (value - constant) % modulus


def apply_chain(value: Value, value_kind: ValueKind, chain: tuple[ValueOp, ...]) -> Value:
    """Apply a codec chain in obfuscating order."""
    for op in chain:
        value = op.apply(value, value_kind)
    return value


def invert_chain(value: Value, value_kind: ValueKind, chain: tuple[ValueOp, ...]) -> Value:
    """Invert a codec chain (deobfuscating order: last applied, first undone)."""
    for op in reversed(chain):
        value = op.invert(value, value_kind)
    return value


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------
#
# On CPython, ``Random.randrange(n)`` with one positive argument and
# ``Random.randint(0, n - 1)`` both return ``_randbelow_with_getrandbits(n)``:
# draw ``getrandbits(n.bit_length())`` and draw again while the result is
# ``>= n``.  The helpers below make exactly those calls on the generator's
# bound ``getrandbits``, so they return the same values and leave the
# generator in the same state, without randrange's argument handling.  The
# interpreted serializer and :meth:`Synthesis.split` draw through them, and
# the specialized modules call :func:`draw_pad` and inline
# :func:`draw_below`'s loop, so every tier still draws identical values.


def draw_below(getrandbits: Callable[[int], int], n: int) -> int:
    """``Random.randrange(n)`` for ``n > 0``, drawn through ``getrandbits``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def draw_pad(getrandbits: Callable[[int], int], size: int) -> bytes:
    """``bytes(rng.randrange(256) for _ in range(size))``, drawn through
    ``getrandbits``."""
    out = []
    for _ in range(size):
        r = getrandbits(9)
        while r > 255:
            r = getrandbits(9)
        out.append(r)
    return bytes(out)


# ---------------------------------------------------------------------------
# Split* value synthesis
# ---------------------------------------------------------------------------


class SynthesisOp(str, enum.Enum):
    """How a Split* transformation combines two wire values into one logical value."""

    ADD = "add"
    SUB = "sub"
    XOR = "xor"
    CAT = "cat"


_SYN_ADD = SynthesisOp.ADD
_SYN_SUB = SynthesisOp.SUB
_SYN_CAT = SynthesisOp.CAT


@dataclass(frozen=True)
class Synthesis:
    """Value-combination rule attached to a Sequence node created by a Split*.

    The sequence has exactly two terminal children.  During serialization the
    first child receives a randomly drawn share and the second child the value
    that makes the combination reconstruct the logical value; during parsing
    the combination is evaluated and stored at the node's origin path.
    """

    op: SynthesisOp
    kind: ValueKind
    width: int | None = None

    def combine(self, first: Value, second: Value) -> Value:
        """Recompute the logical value from the two wire values (parse side)."""
        if self.op is _SYN_CAT:
            left = first if isinstance(first, (bytes, str)) else bytes(first)
            right = second if isinstance(second, (bytes, str)) else bytes(second)
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            left_b = left.encode(_TEXT_ENCODING) if isinstance(left, str) else bytes(left)
            right_b = right.encode(_TEXT_ENCODING) if isinstance(right, str) else bytes(right)
            merged = left_b + right_b
            return merged.decode(_TEXT_ENCODING) if self.kind is _TEXT else merged
        if self.width is None:
            raise SerializationError("integer synthesis requires a width")
        modulus = 1 << (8 * self.width)
        a, b = int(first), int(second)
        if self.op is _SYN_ADD:
            return (a + b) % modulus
        if self.op is _SYN_SUB:
            return (a - b) % modulus
        return a ^ b

    def split(self, value: Value, rng: Random, *, split_at: int | None = None
              ) -> tuple[Value, Value]:
        """Draw the two wire values reconstructing ``value`` (serialize side).

        For integer syntheses the first share is drawn uniformly at random,
        after checking that ``value`` fits in the synthesis width (a value
        that does not raises :class:`SerializationError` rather than being
        reduced modulo the width); for concatenation the cut position is
        either ``split_at`` (fixed-size splits decided at transform time) or
        drawn at random.
        """
        if self.op is _SYN_CAT:
            data = value if isinstance(value, (bytes, str)) else bytes(value)
            if split_at is None:
                split_at = draw_below(rng.getrandbits, len(data) + 1)
            split_at = max(0, min(split_at, len(data)))
            return data[:split_at], data[split_at:]
        if self.width is None:
            raise SerializationError("integer synthesis requires a width")
        modulus = 1 << (8 * self.width)
        logical = int(value)
        if not 0 <= logical < modulus:
            raise SerializationError(
                f"value {logical} does not fit in {self.width} byte(s)")
        share = draw_below(rng.getrandbits, modulus)
        if self.op is _SYN_ADD:
            return share, (logical - share) % modulus
        if self.op is _SYN_SUB:
            return share, (share - logical) % modulus
        return share, logical ^ share
