"""Tests of value kinds, codecs, value operations and Split* synthesis."""

from __future__ import annotations

from random import Random

import pytest

from repro.core import (
    Endian,
    SerializationError,
    Synthesis,
    SynthesisOp,
    ValueKind,
    ValueOp,
    ValueOpKind,
    apply_chain,
    decode_uint,
    decode_value,
    default_value,
    encode_uint,
    encode_value,
    invert_chain,
)
from repro.core.values import draw_below, draw_pad


class TestUintCodec:
    def test_encode_decode_big_endian(self):
        assert encode_uint(0x1234, 2, Endian.BIG) == b"\x12\x34"
        assert decode_uint(b"\x12\x34", Endian.BIG) == 0x1234

    def test_encode_decode_little_endian(self):
        assert encode_uint(0x1234, 2, Endian.LITTLE) == b"\x34\x12"
        assert decode_uint(b"\x34\x12", Endian.LITTLE) == 0x1234

    def test_encode_rejects_overflow(self):
        with pytest.raises(SerializationError):
            encode_uint(256, 1)

    def test_encode_rejects_negative(self):
        with pytest.raises(SerializationError):
            encode_uint(-1, 2)

    def test_encode_rejects_bad_size(self):
        with pytest.raises(SerializationError):
            encode_uint(1, 0)

    def test_encode_rejects_non_int(self):
        with pytest.raises(SerializationError):
            encode_uint("x", 2)  # type: ignore[arg-type]


class TestValueCodec:
    def test_uint_requires_size(self):
        with pytest.raises(SerializationError):
            encode_value(3, ValueKind.UINT)

    def test_bytes_round_trip(self):
        assert decode_value(encode_value(b"abc", ValueKind.BYTES), ValueKind.BYTES) == b"abc"

    def test_text_round_trip(self):
        assert decode_value(encode_value("héllo", ValueKind.TEXT), ValueKind.TEXT) == "héllo"

    def test_text_accepts_bytes_input(self):
        assert encode_value(b"abc", ValueKind.TEXT) == b"abc"

    def test_bytes_accepts_str_input(self):
        assert encode_value("abc", ValueKind.BYTES) == b"abc"

    def test_fixed_size_mismatch_rejected(self):
        with pytest.raises(SerializationError):
            encode_value(b"abc", ValueKind.BYTES, size=2)

    def test_invalid_type_rejected(self):
        with pytest.raises(SerializationError):
            encode_value(3.5, ValueKind.BYTES)  # type: ignore[arg-type]

    def test_default_values(self):
        assert default_value(ValueKind.UINT) == 0
        assert default_value(ValueKind.BYTES) == b""
        assert default_value(ValueKind.TEXT) == ""


class TestValueOps:
    @pytest.mark.parametrize("kind", list(ValueOpKind))
    @pytest.mark.parametrize("value", [0, 1, 0x1234, 0xFFFF])
    def test_integer_op_invertible(self, kind, value):
        op = ValueOp(kind, constant=0x5A5A, bytewise=False, width=2)
        assert op.invert(op.apply(value, ValueKind.UINT), ValueKind.UINT) == value

    @pytest.mark.parametrize("kind", list(ValueOpKind))
    def test_bytewise_op_invertible_on_bytes(self, kind):
        op = ValueOp(kind, constant=77, bytewise=True)
        value = b"\x00\x01binary\xff"
        assert op.invert(op.apply(value, ValueKind.BYTES), ValueKind.BYTES) == value

    @pytest.mark.parametrize("kind", list(ValueOpKind))
    def test_bytewise_op_invertible_on_text(self, kind):
        op = ValueOp(kind, constant=200, bytewise=True)
        assert op.invert(op.apply("GET", ValueKind.TEXT), ValueKind.TEXT) == "GET"

    def test_integer_op_requires_width(self):
        op = ValueOp(ValueOpKind.ADD, constant=1, bytewise=False, width=None)
        with pytest.raises(SerializationError):
            op.apply(1, ValueKind.UINT)

    def test_integer_op_rejects_non_uint(self):
        op = ValueOp(ValueOpKind.ADD, constant=1, bytewise=False, width=2)
        with pytest.raises(SerializationError):
            op.apply(b"ab", ValueKind.BYTES)

    def test_add_wraps_modulo(self):
        op = ValueOp(ValueOpKind.ADD, constant=10, bytewise=False, width=1)
        assert op.apply(250, ValueKind.UINT) == 4

    def test_chain_apply_then_invert_is_identity(self):
        chain = (
            ValueOp(ValueOpKind.ADD, constant=3, bytewise=False, width=2),
            ValueOp(ValueOpKind.XOR, constant=0xABCD, bytewise=False, width=2),
            ValueOp(ValueOpKind.SUB, constant=100, bytewise=False, width=2),
        )
        for value in (0, 1, 500, 65535):
            assert invert_chain(apply_chain(value, ValueKind.UINT, chain), ValueKind.UINT, chain) == value

    def test_chain_order_matters(self):
        chain = (
            ValueOp(ValueOpKind.ADD, constant=1, bytewise=False, width=1),
            ValueOp(ValueOpKind.XOR, constant=0xF0, bytewise=False, width=1),
        )
        assert apply_chain(2, ValueKind.UINT, chain) == (2 + 1) ^ 0xF0


class TestSynthesis:
    @pytest.mark.parametrize("op", [SynthesisOp.ADD, SynthesisOp.SUB, SynthesisOp.XOR])
    @pytest.mark.parametrize("value", [0, 1, 0x7FFF, 0xFFFF])
    def test_integer_split_combine_round_trip(self, op, value):
        synthesis = Synthesis(op, ValueKind.UINT, width=2)
        rng = Random(0)
        for _ in range(20):
            first, second = synthesis.split(value, rng)
            assert 0 <= first < 0x10000 and 0 <= second < 0x10000
            assert synthesis.combine(first, second) == value

    def test_integer_split_requires_width(self):
        synthesis = Synthesis(SynthesisOp.ADD, ValueKind.UINT, width=None)
        with pytest.raises(SerializationError):
            synthesis.split(3, Random(0))
        with pytest.raises(SerializationError):
            synthesis.combine(1, 2)

    def test_cat_split_combine_bytes(self):
        synthesis = Synthesis(SynthesisOp.CAT, ValueKind.BYTES)
        rng = Random(1)
        value = b"hello world"
        for _ in range(10):
            first, second = synthesis.split(value, rng)
            assert synthesis.combine(first, second) == value

    def test_cat_split_fixed_position(self):
        synthesis = Synthesis(SynthesisOp.CAT, ValueKind.TEXT)
        first, second = synthesis.split("abcdef", Random(0), split_at=2)
        assert (first, second) == ("ab", "cdef")

    def test_cat_split_position_clamped(self):
        synthesis = Synthesis(SynthesisOp.CAT, ValueKind.TEXT)
        first, second = synthesis.split("ab", Random(0), split_at=99)
        assert (first, second) == ("ab", "")

    def test_cat_combine_mixed_types(self):
        synthesis = Synthesis(SynthesisOp.CAT, ValueKind.TEXT)
        assert synthesis.combine("ab", b"cd") == "abcd"
        binary = Synthesis(SynthesisOp.CAT, ValueKind.BYTES)
        assert binary.combine(b"ab", b"cd") == b"abcd"

    def test_split_shares_differ_across_draws(self):
        synthesis = Synthesis(SynthesisOp.ADD, ValueKind.UINT, width=2)
        rng = Random(2)
        shares = {synthesis.split(1000, rng)[0] for _ in range(16)}
        assert len(shares) > 1, "splits must draw random shares per message"


class TestDraws:
    """The draw helpers return what ``Random.randrange``/``randint`` return
    and leave the generator in the same state, on every supported CPython."""

    DRAWS = 2000

    @pytest.mark.parametrize("size", range(1, 9))
    def test_pad_matches_randrange(self, size):
        ours, reference = Random(size), Random(size)
        for _ in range(self.DRAWS):
            expected = bytes(reference.randrange(256) for _ in range(size))
            assert draw_pad(ours.getrandbits, size) == expected
        assert ours.getstate() == reference.getstate()

    @pytest.mark.parametrize("bits", [8, 16, 32])
    def test_share_matches_randrange(self, bits):
        ours, reference = Random(bits), Random(bits)
        for _ in range(self.DRAWS):
            assert draw_below(ours.getrandbits, 1 << bits) == reference.randrange(1 << bits)
        assert ours.getstate() == reference.getstate()

    def test_cut_matches_randint(self):
        for n in range(1, 65):
            ours, reference = Random(n), Random(n)
            for _ in range(self.DRAWS):
                assert draw_below(ours.getrandbits, n) == reference.randint(0, n - 1)
            assert ours.getstate() == reference.getstate()

    def test_split_draws_through_the_helpers(self):
        ours, reference = Random(7), Random(7)
        add = Synthesis(SynthesisOp.ADD, ValueKind.UINT, width=2)
        cat = Synthesis(SynthesisOp.CAT, ValueKind.BYTES)
        for _ in range(100):
            share = reference.randrange(1 << 16)
            assert add.split(1234, ours) == (share, (1234 - share) % (1 << 16))
            cut = reference.randint(0, 5)
            assert cat.split(b"hello", ours) == (b"hello"[:cut], b"hello"[cut:])
        assert ours.getstate() == reference.getstate()
