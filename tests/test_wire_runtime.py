"""Tests of the wire runtime: windows, pieces, serializer, parser, spans."""

from __future__ import annotations

from random import Random

import pytest

from repro.core import (
    Boundary,
    Endian,
    FieldPath,
    Message,
    ParseError,
    SerializationError,
    ValueOp,
    ValueOpKind,
    build_graph,
    delimited_text,
    fixed_bytes,
    optional,
    remaining_bytes,
    repetition,
    sequence,
    tabular,
    uint,
)
from repro.wire import Chunk, LengthSlot, PieceList, WireCodec, Window, boundaries, serialize
from repro.wire.parser import parse
from repro.wire.window import OpenWindow
from repro.wire.serializer import serialize_with_spans


class TestWindow:
    def test_read_and_remaining(self):
        window = Window(b"abcdef")
        assert window.read(2) == b"ab"
        assert window.remaining() == 4
        assert not window.at_end()
        assert window.read_rest() == b"cdef"
        assert window.at_end()

    def test_read_past_end_raises(self):
        with pytest.raises(ParseError):
            Window(b"ab").read(3)

    def test_read_negative_raises(self):
        with pytest.raises(ParseError):
            Window(b"ab").read(-1)

    def test_read_until_consumes_delimiter(self):
        window = Window(b"name: value\r\nrest")
        assert window.read_until(b": ") == b"name"
        assert window.read_until(b"\r\n") == b"value"
        assert window.read_rest() == b"rest"

    def test_read_until_missing_delimiter_raises(self):
        with pytest.raises(ParseError):
            Window(b"abc").read_until(b"|")

    def test_read_until_empty_delimiter_raises(self):
        with pytest.raises(ParseError):
            Window(b"abc").read_until(b"")

    def test_peek_and_starts_with(self):
        window = Window(b"abc")
        assert window.peek(2) == b"ab"
        assert window.starts_with(b"ab")
        assert not window.starts_with(b"bc")
        assert window.remaining() == 3

    def test_subwindow_bounds_reads(self):
        window = Window(b"abcdef")
        sub = window.subwindow(3)
        assert sub.read_rest() == b"abc"
        assert window.read_rest() == b"def"

    def test_subwindow_too_large_raises(self):
        with pytest.raises(ParseError):
            Window(b"ab").subwindow(5)

    def test_invalid_bounds_raise(self):
        with pytest.raises(ParseError):
            Window(b"ab", start=3)

    def test_skip(self):
        window = Window(b"abcd")
        window.skip(2)
        assert window.read_rest() == b"cd"

    def test_open_window_refuses_answers_past_its_end(self):
        window = OpenWindow(b"abcdef", 0, 4)
        assert not window.at_end()
        assert window.starts_with(b"abcd")
        assert not window.starts_with(b"abx")
        with pytest.raises(ParseError):
            window.starts_with(b"abcde")
        with pytest.raises(ParseError):
            window.read_rest()
        assert window.subwindow(2).read_rest() == b"ab"
        assert window.read(2) == b"cd"
        with pytest.raises(ParseError):
            window.at_end()
        with pytest.raises(ParseError):
            window.read(1)


class TestPieces:
    def test_byte_length_counts_slots(self):
        pieces = PieceList()
        pieces.add_bytes(b"abc")
        pieces.add_slot(LengthSlot(node="len", target="data", width=2))
        assert pieces.byte_length() == 5

    def test_empty_chunks_are_dropped(self):
        pieces = PieceList()
        pieces.add_bytes(b"")
        assert pieces.pieces == []

    def test_assemble_resolves_slots(self):
        pieces = PieceList()
        pieces.add_slot(LengthSlot(node="len", target="data", width=2, context=()))
        pieces.add_bytes(b"abcd", node="data")
        data, spans = pieces.assemble({("data", ()): 4})
        assert data == b"\x00\x04abcd"
        assert ("len", None, 0, 2) in spans
        assert ("data", None, 2, 6) in spans

    def test_assemble_missing_length_defaults_to_zero(self):
        pieces = PieceList()
        pieces.add_slot(LengthSlot(node="len", target="gone", width=2))
        data, _ = pieces.assemble({})
        assert data == b"\x00\x00"

    def test_mirrored_reverses_bytes_and_toggles_slots(self):
        pieces = PieceList()
        pieces.add_bytes(b"ab")
        pieces.add_slot(LengthSlot(node="len", target="data", width=2))
        mirrored = pieces.mirrored()
        assert isinstance(mirrored.pieces[0], LengthSlot)
        assert mirrored.pieces[0].mirrored is True
        assert mirrored.pieces[1].data == b"ba"
        restored = mirrored.mirrored()
        assert restored.pieces[0].data == b"ab"
        assert restored.pieces[1].mirrored is False

    def test_slot_codec_chain_applied(self):
        slot = LengthSlot(
            node="len", target="data", width=2,
            codec_chain=(ValueOp(ValueOpKind.ADD, 1, bytewise=False, width=2),),
        )
        assert slot.resolve(4) == b"\x00\x05"

    def test_slot_mirrored_resolution(self):
        slot = LengthSlot(node="len", target="data", width=2, mirrored=True)
        assert slot.resolve(0x0102) == b"\x02\x01"


def _demo_graph():
    """A small synthetic specification exercising every node type."""
    header = sequence(
        "header",
        [
            uint("kind", 1),
            uint("payload_len", 2),
        ],
    )
    items = tabular("items", sequence("item", [uint("hi", 1), uint("lo", 1)]),
                    counter="item_count")
    payload = sequence(
        "payload",
        [
            uint("item_count", 1),
            items,
            delimited_text("note", b"\x00"),
        ],
        boundary=Boundary.length("payload_len"),
    )
    root = sequence(
        "demo",
        [header, payload, optional("trailer", remaining_bytes("extra"))],
    )
    return build_graph(root, "demo")


def _demo_message(with_trailer: bool = True) -> Message:
    message = Message.from_dict(
        {
            "header": {"kind": 7},
            "payload": {
                "items": [{"hi": 1, "lo": 2}, {"hi": 3, "lo": 4}],
                "note": "ok",
            },
        }
    )
    if with_trailer:
        message.set("trailer", b"TRAIL")
    return message


class TestSerializer:
    def test_round_trip_with_all_node_types(self):
        codec = WireCodec(_demo_graph(), seed=0)
        for with_trailer in (True, False):
            message = _demo_message(with_trailer)
            assert codec.parse(codec.serialize(message)) == message

    def test_derived_fields_are_computed(self):
        codec = WireCodec(_demo_graph(), seed=0)
        data = codec.serialize(_demo_message(False))
        # kind, then payload_len == len(payload) == 1 + 4 + 3
        assert data[0] == 7
        assert int.from_bytes(data[1:3], "big") == 8
        assert data[3] == 2  # item count

    def test_missing_field_raises(self):
        codec = WireCodec(_demo_graph(), seed=0)
        message = _demo_message()
        message.delete("payload.note")
        with pytest.raises(SerializationError):
            codec.serialize(message)

    def test_delimiter_collision_detected(self):
        codec = WireCodec(_demo_graph(), seed=0)
        message = _demo_message()
        message.set("payload.note", "bad\x00note")
        with pytest.raises(SerializationError):
            codec.serialize(message)

    def test_fixed_size_mismatch_detected(self):
        graph = build_graph(sequence("root", [fixed_bytes("raw", 4)]), "demo")
        codec = WireCodec(graph, seed=0)
        with pytest.raises(SerializationError):
            codec.serialize({"raw": b"toolong"})

    def test_uint_overflow_detected(self):
        graph = build_graph(sequence("root", [uint("small", 1)]), "demo")
        with pytest.raises(SerializationError):
            WireCodec(graph, seed=0).serialize({"small": 300})

    def test_serialize_accepts_plain_dicts(self):
        graph = build_graph(sequence("root", [uint("a", 1)]), "demo")
        assert serialize(graph, {"a": 5}) == b"\x05"

    def test_little_endian_terminal(self):
        graph = build_graph(
            sequence("root", [uint("value", 2, endian=Endian.LITTLE)]), "demo"
        )
        assert WireCodec(graph, seed=0).serialize({"value": 0x1234}) == b"\x34\x12"

    def test_spans_cover_terminals(self):
        graph = _demo_graph()
        data, spans = serialize_with_spans(graph, _demo_message(), rng=Random(0))
        by_node = {span.node: span for span in spans}
        assert by_node["kind"].start == 0 and by_node["kind"].end == 1
        assert by_node["extra"].end == len(data)
        cut_points = boundaries(spans, total_length=len(data))
        assert 1 in cut_points
        assert 0 not in cut_points and len(data) not in cut_points

    def test_span_overlap_helper(self):
        graph = _demo_graph()
        _, spans = serialize_with_spans(graph, _demo_message(), rng=Random(0))
        assert spans[0].overlaps(spans[0])
        assert not spans[0].overlaps(spans[1])
        assert spans[0].length == spans[0].end - spans[0].start
        assert "kind" in repr(by := spans[0]) or by.node


class TestParser:
    def test_trailing_bytes_rejected_in_strict_mode(self):
        graph = build_graph(sequence("root", [uint("a", 1)]), "demo")
        codec = WireCodec(graph, seed=0)
        with pytest.raises(ParseError):
            codec.parse(b"\x01\x02")
        assert codec.parse(b"\x01\x02", strict=False) == {"a": 1}

    def test_truncated_message_rejected(self):
        codec = WireCodec(_demo_graph(), seed=0)
        data = codec.serialize(_demo_message(False))
        with pytest.raises(ParseError):
            codec.parse(data[:-2])

    def test_corrupted_length_detected(self):
        codec = WireCodec(_demo_graph(), seed=0)
        data = bytearray(codec.serialize(_demo_message(False)))
        data[2] += 5  # inflate payload_len beyond the buffer
        with pytest.raises(ParseError):
            codec.parse(bytes(data))

    def test_parse_module_function(self):
        graph = build_graph(sequence("root", [uint("a", 1)]), "demo")
        assert parse(graph, b"\x09") == {"a": 9}

    def test_empty_repetition_round_trips(self):
        graph = build_graph(
            sequence(
                "root",
                [uint("count", 1), tabular("items", uint("x", 1), counter="count")],
            ),
            "demo",
        )
        codec = WireCodec(graph, seed=0)
        message = {"items": []}
        assert codec.parse(codec.serialize(message)) == message

    def test_optional_with_presence_ref(self):
        graph = build_graph(
            sequence(
                "root",
                [
                    uint("flag", 1),
                    optional("extra", uint("value", 2), presence_ref="flag",
                             presence_value=1),
                    remaining_bytes("rest"),
                ],
            ),
            "demo",
        )
        codec = WireCodec(graph, seed=0)
        present = {"flag": 1, "extra": 500, "rest": b"xy"}
        absent = {"flag": 0, "rest": b"xy"}
        assert codec.parse(codec.serialize(present)) == present
        assert codec.parse(codec.serialize(absent)) == absent

    def test_delimited_repetition_with_terminator(self):
        graph = build_graph(
            sequence(
                "root",
                [
                    repetition(
                        "lines",
                        delimited_text("line", b"\n"),
                        boundary=Boundary.delimited(b"\n"),
                    ),
                    remaining_bytes("rest"),
                ],
            ),
            "demo",
        )
        codec = WireCodec(graph, seed=0)
        message = {"lines": ["a", "bb", "ccc"], "rest": b"tail"}
        data = codec.serialize(message)
        assert data == b"a\nbb\nccc\n\ntail"
        assert codec.parse(data) == message

    def test_round_trips_helper(self):
        codec = WireCodec(_demo_graph(), seed=3)
        assert codec.round_trips(_demo_message())
