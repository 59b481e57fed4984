"""Tests of the wire runtime: windows, serializer, parser, spans."""

from __future__ import annotations

import hashlib
from random import Random

import pytest

from repro.codegen import SpecializedCodec
from repro.core import (
    Boundary,
    Endian,
    FieldPath,
    Message,
    ParseError,
    SerializationError,
    build_graph,
    bytes_field,
    delimited_text,
    fixed_bytes,
    optional,
    remaining_bytes,
    repetition,
    sequence,
    tabular,
    uint,
)
from repro.core.validate import validate_graph
from repro.protocols import registry
from repro.transforms import Obfuscator
from repro.transforms.split import SplitAdd
from repro.wire import WireCodec, Window, boundaries, serialize
from repro.wire.parser import Parser, parse
from repro.wire.serializer import Serializer, serialize_with_spans


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


def _registry_dialects():
    """Every registry graph at levels 0-4 under two obfuscation seeds."""
    for setup in registry.setups():
        for direction, graph_factory, generator in setup.directions():
            for level in range(5):
                for seed in (1, 104729):
                    graph = graph_factory()
                    if level:
                        graph = Obfuscator(seed=seed).obfuscate(graph, level).graph
                    yield f"{setup.key}/{direction}/{level}/{seed}", graph, generator, seed


#: SHA-256 of the serializer's output over :func:`_registry_dialects`,
#: recorded before the serializer first wrote messages in place.
SERIALIZER_DIGEST = "5767fb82f5d4d331cb0a8db98120439bd6bdb4f80e72a34cf281883861836cc0"


class TestSerializerDigest:
    def test_bytes_and_spans_match_recorded_digest(self):
        """Bytes and spans of every registry dialect, with plain serializes
        interleaved on the same RNG, so random draws stay in step too."""
        digest = hashlib.sha256()
        for label, graph, generator, seed in _registry_dialects():
            serializer = Serializer(graph, rng=Random(seed))
            messages = Random(seed + int(label.split("/")[2]))
            for index in range(12):
                message = generator(messages)
                digest.update(f"{label}/{index}".encode())
                if index % 3 == 2:
                    digest.update(serializer.serialize(message))
                    continue
                wire, spans = serializer.serialize_with_spans(message)
                digest.update(wire)
                for span in spans:
                    digest.update(
                        f"|{span.node}|{span.origin}|{span.start}|{span.end}".encode())
        assert digest.hexdigest() == SERIALIZER_DIGEST


def _shape(name: str, graph):
    """``(name, validated graph)`` after ``graph`` was edited by hand."""
    validate_graph(graph)
    return name, graph


def _mirror(graph, *names: str):
    for name in names:
        graph.find(name).mirrored = True
    return graph


def _split_graph(mirrored_share: int):
    graph = build_graph(sequence("root", [uint("tid", 2), uint("unit", 1)]), "split")
    SplitAdd().apply(graph, graph.find("tid"), Random(0))
    share = graph.find("root").children[0].children[mirrored_share]
    share.mirrored = True
    return graph


def _hand_built_shapes():
    """Shapes the registry dialects may not reach, with their messages."""
    region = sequence(
        "body",
        [uint("len", 1), bytes_field("data", Boundary.length("len")), uint("tail", 2)],
        boundary=Boundary.end(),
    )
    yield _shape("mirrored length field and target", _mirror(
        build_graph(sequence("root", [uint("kind", 1), region]), "mirror"), "body",
    )), [{"kind": 1, "body": {"data": b"abcdef", "tail": 0x1234}},
         {"kind": 2, "body": {"data": b"", "tail": 7}}]
    inner = sequence("inner", [uint("a", 1), uint("b", 2)])
    outer = sequence(
        "outer",
        [uint("len", 1), inner, bytes_field("data", Boundary.length("len")),
         remaining_bytes("rest")],
        boundary=Boundary.end(),
    )
    yield _shape("nested mirrors", _mirror(
        build_graph(sequence("root", [uint("kind", 1), outer]), "nested"),
        "inner", "outer", "data",
    )), [{"kind": 1, "outer": {"inner": {"a": 1, "b": 0x0203}, "data": b"xyz",
                               "rest": b"tail"}}]
    for share in (0, 1):
        yield _shape(f"mirrored split child {share}", _split_graph(share)), [
            {"tid": 0x1234, "unit": 9}, {"tid": 0, "unit": 0}]
    lines = repetition("lines", delimited_text("line", b"\n"),
                       boundary=Boundary.delimited(b"\n"))
    yield _shape("delimited repetition inside a mirrored region", _mirror(
        build_graph(sequence("root", [
            uint("len", 2),
            sequence("region", [lines, uint("after", 1)],
                     boundary=Boundary.length("len")),
            remaining_bytes("rest"),
        ]), "delimited"), "region",
    )), [{"region": {"lines": ["a", "bb", "ccc"], "after": 5}, "rest": b"!"},
         {"region": {"lines": [], "after": 0}, "rest": b""}]
    yield _shape("length field of an absent optional", build_graph(sequence("root", [
        uint("flag", 1),
        uint("len", 1),
        optional("opt", bytes_field("data", Boundary.length("len")),
                 presence_ref="flag", presence_value=1),
        uint("tail", 1),
    ]), "absent")), [{"flag": 0, "tail": 3}, {"flag": 1, "opt": b"abc", "tail": 3}]
    yield _shape("empty value", build_graph(sequence("root", [
        uint("len", 1), bytes_field("data", Boundary.length("len")),
        delimited_text("note", b";"), uint("tail", 1),
    ]), "empty")), [{"data": b"", "note": "", "tail": 1}]


HAND_BUILT = [(name, graph, messages) for (name, graph), messages in _hand_built_shapes()]


class TestHandBuiltShapes:
    @pytest.mark.parametrize("name,graph,messages", HAND_BUILT,
                             ids=[case[0] for case in HAND_BUILT])
    def test_bytes_match_specialized_tier_and_spans_stay_in_wire_order(
            self, name, graph, messages):
        specialized = SpecializedCodec(graph, seed=5)
        plain = Serializer(graph, rng=Random(5))
        spanned = Serializer(graph, rng=Random(5))
        for message in messages:
            wire = specialized.serialize(message)
            assert plain.serialize(message) == wire
            data, spans = spanned.serialize_with_spans(message)
            assert data == wire
            assert all(span.start < span.end for span in spans)
            assert all(left.end <= right.start for left, right in zip(spans, spans[1:]))
            assert Parser(graph).parse(wire) == message

    def test_mirrored_region_spans_are_remapped(self):
        (_, graph, messages), = [case for case in HAND_BUILT
                                 if case[0] == "mirrored length field and target"]
        data, spans = Serializer(graph).serialize_with_spans(messages[0])
        assert data == b"\x01" + (b"\x06abcdef\x12\x34")[::-1]
        assert [(span.node, span.start, span.end) for span in spans] == [
            ("kind", 0, 1), ("tail", 1, 3), ("data", 3, 9), ("len", 9, 10)]

    def test_length_of_an_absent_target_is_zero(self):
        (_, graph, messages), = [case for case in HAND_BUILT
                                 if case[0] == "length field of an absent optional"]
        assert Serializer(graph).serialize(messages[0]) == b"\x00\x00\x03"

    def test_empty_value_has_no_span(self):
        (_, graph, messages), = [case for case in HAND_BUILT if case[0] == "empty value"]
        data, spans = Serializer(graph).serialize_with_spans(messages[0])
        assert data == b"\x00;\x01"
        assert [span.node for span in spans] == ["len", "tail"]


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
