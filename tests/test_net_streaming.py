"""Streaming wire decoding: equivalence with whole-message parse and framing.

The core guarantee of the incremental decoder is *exact* equivalence with
``parse()``: for every registry protocol, at every obfuscation level 0-4,
under arbitrary chunk boundaries, the streamed result must be byte- and
structure-identical to parsing the whole buffer at once.  On top of that the
suite pins the stream-only behaviours: back-to-back framing, NEED_MORE
reporting, clean :class:`StreamError` on mid-message EOF and on trailing
garbage, and the self-framing analysis that decides the session framing.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from repro.core.errors import StreamError
from repro.net.framing import RecordDecoder, encode_record, resolve_framing
from repro.protocols import registry
from repro.protocols.dns.app import build_query
from repro.transforms.engine import Obfuscator
from repro.wire import WireCodec
from repro.wire.plan import compile_plan
from repro.wire.streaming import (
    StreamingDecoder,
    decode_stream,
    is_self_framing,
    stream_greedy_nodes,
)


def random_chunks(data: bytes, rng: Random, *, max_chunk: int = 9) -> list[bytes]:
    """Split ``data`` at random boundaries (chunks of 1..max_chunk bytes)."""
    chunks, cursor = [], 0
    while cursor < len(data):
        size = rng.randrange(1, max_chunk + 1)
        chunks.append(data[cursor : cursor + size])
        cursor += size
    return chunks


# ---------------------------------------------------------------------------
# equivalence with whole-message parse
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("passes", [0, 1, 2, 3, 4])
def test_streaming_equals_whole_message_parse(protocol_case, passes):
    """Fuzzed chunk splits: streamed == parse() for every protocol x level."""
    name, graph_factory, generator = protocol_case
    graph = graph_factory()
    if passes:
        graph = Obfuscator(seed=1000 + passes).obfuscate(graph, passes).graph
    codec = WireCodec(graph, seed=7)
    rng = Random(f"{name}-{passes}")
    split_rng = Random(passes * 31 + 5)
    for _ in range(3):
        message = generator(rng)
        data = codec.serialize(message)
        reference = codec.parse(data)
        for _ in range(2):
            decoded = decode_stream(graph, random_chunks(data, split_rng))
            assert len(decoded) == 1
            assert decoded[0].raw == data
            assert decoded[0].start == 0 and decoded[0].end == len(data)
            assert decoded[0].message == reference


def test_one_byte_chunk_feed(protocol_case):
    """The degenerate 1-byte-per-feed split decodes identically."""
    name, graph_factory, generator = protocol_case
    graph = graph_factory()
    codec = WireCodec(graph, seed=3)
    message = generator(Random(42))
    data = codec.serialize(message)
    decoded = decode_stream(graph, (bytes([byte]) for byte in data))
    assert len(decoded) == 1
    assert decoded[0].raw == data
    assert decoded[0].message == codec.parse(data)


def test_one_byte_drip_decodes_each_terminal_once():
    """Drip-feeding costs the same terminal decodes as one whole feed.

    The decoder resumes where it suspended instead of re-parsing from the
    message start, so a 2,017-byte DNS query of 1,000 one-character labels,
    fed one byte at a time, decodes each of its terminals exactly once.  A
    re-parse per arriving byte would grow with the square of the length.
    """
    graph = registry.get("dns").graph_factory()
    query = build_query([(".".join(["a"] * 1000), 1, 1)], query_id=7)
    data = WireCodec(graph, seed=0).serialize(query)
    assert len(data) == 2017

    def decode_count(chunks) -> int:
        plan = compile_plan(graph)
        calls = [0]

        def counted(decode):
            def wrapper(raw):
                calls[0] += 1
                return decode(raw)
            return wrapper

        for name, terminal in plan.terminals.items():
            plan.terminals[name] = replace(terminal, decode=counted(terminal.decode))
        decoder = StreamingDecoder(graph, plan=plan)
        decoded = [event for chunk in chunks for event in decoder.feed(chunk)]
        assert len(decoded) == 1 and decoded[0].raw == data
        return calls[0]

    whole = decode_count([data])
    assert whole == 2008
    assert decode_count(data[offset:offset + 1] for offset in range(len(data))) == whole


def test_split_inside_length_and_counter_fields():
    """Chunk boundaries falling inside derived fields suspend cleanly.

    The Modbus MBAP length field occupies bytes [4, 6) and the DNS qdcount
    bytes [4, 6): feeding exactly one of the two bytes must leave the decoder
    suspended (NEED_MORE), and completing the field must resume in place.
    """
    for key, cut in (("modbus", 5), ("dns", 5), ("mqtt", 2)):
        setup = registry.get(key)
        graph = setup.graph_factory()
        codec = WireCodec(graph, seed=1)
        data = codec.serialize(setup.message_generator(Random(8)))
        decoder = StreamingDecoder(graph)
        assert decoder.feed(data[:cut]) == []
        assert decoder.needs_more, f"{key}: decoder should be suspended mid-field"
        completed = decoder.feed(data[cut:])
        assert len(completed) == 1
        assert completed[0].raw == data
        assert not decoder.needs_more


# ---------------------------------------------------------------------------
# back-to-back framing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", ["modbus", "dns", "mqtt"])
@pytest.mark.parametrize("passes", [0, 2])
def test_back_to_back_framing(key, passes):
    """Self-framing graphs split a concatenated stream at exact extents."""
    setup = registry.get(key)
    graph = setup.graph_factory()
    if passes:
        graph = Obfuscator(seed=50 + passes).obfuscate(graph, passes).graph
    if not is_self_framing(graph):
        pytest.skip(f"{key} became stream-greedy at {passes} passes")
    codec = WireCodec(graph, seed=4)
    rng = Random(21)
    wires = [codec.serialize(setup.message_generator(rng)) for _ in range(6)]
    stream = b"".join(wires)
    decoder = StreamingDecoder(graph)
    decoded = []
    for chunk in random_chunks(stream, Random(passes + 77), max_chunk=13):
        decoded.extend(decoder.feed(chunk))
    decoded.extend(decoder.feed_eof())
    assert [frame.raw for frame in decoded] == wires
    assert [frame.message for frame in decoded] == [codec.parse(w) for w in wires]
    assert decoder.decoded_count == 6
    # extents tile the stream exactly
    cursor = 0
    for frame in decoded:
        assert frame.start == cursor
        cursor = frame.end
    assert cursor == len(stream)


def test_one_chunk_completes_multiple_messages():
    setup = registry.get("modbus")
    graph = setup.graph_factory()
    codec = WireCodec(graph, seed=2)
    rng = Random(5)
    wires = [codec.serialize(setup.message_generator(rng)) for _ in range(4)]
    decoder = StreamingDecoder(graph)
    completed = decoder.feed(b"".join(wires))
    assert len(completed) == 4


# ---------------------------------------------------------------------------
# stream errors
# ---------------------------------------------------------------------------


def test_abrupt_mid_message_eof_raises_stream_error(protocol_case):
    name, graph_factory, generator = protocol_case
    graph = graph_factory()
    codec = WireCodec(graph, seed=6)
    data = codec.serialize(generator(Random(17)))
    # On a self-framing graph *every* proper prefix is mid-message; on a
    # stream-greedy one (HTTP) a truncated END-bounded body still reads as a
    # complete, shorter message — only cuts inside the leading structure are
    # guaranteed abrupt.
    cuts = {1, len(data) // 2, len(data) - 1} if is_self_framing(graph) else {1}
    for cut in cuts:
        decoder = StreamingDecoder(graph)
        decoder.feed(data[:cut])
        with pytest.raises(StreamError):
            decoder.feed_eof()


def test_trailing_garbage_raises_stream_error():
    setup = registry.get("modbus")
    graph = setup.graph_factory()
    codec = WireCodec(graph, seed=9)
    good = codec.serialize(setup.message_generator(Random(1)))
    decoder = StreamingDecoder(graph)
    assert len(decoder.feed(good)) == 1
    with pytest.raises(StreamError) as excinfo:
        # An MBAP header claiming a huge length, then EOF mid-"payload".
        decoder.feed(b"\x00\x01\x00\x00\x00\x04\x01")
        decoder.feed_eof()
    assert excinfo.value.message_index == 1


def test_failed_decoder_refuses_further_feeds():
    setup = registry.get("modbus")
    graph = setup.graph_factory()
    decoder = StreamingDecoder(graph)
    decoder.feed(b"\x00\x01\x00")
    with pytest.raises(StreamError):
        decoder.feed_eof()
    with pytest.raises(StreamError):
        decoder.feed(b"\x00")


def test_needs_more_reporting():
    setup = registry.get("dns")
    graph = setup.graph_factory()
    codec = WireCodec(graph, seed=0)
    data = codec.serialize(setup.message_generator(Random(3)))
    decoder = StreamingDecoder(graph)
    assert not decoder.needs_more
    decoder.feed(data[:4])
    assert decoder.needs_more and decoder.buffered == 4
    decoder.feed(data[4:])
    assert not decoder.needs_more and decoder.buffered == 0
    assert decoder.feed_eof() == []


# ---------------------------------------------------------------------------
# self-framing analysis and record framing
# ---------------------------------------------------------------------------


def test_self_framing_analysis():
    http = registry.get("http")
    assert not is_self_framing(http.graph_factory())
    assert not is_self_framing(http.response_graph_factory())
    greedy = stream_greedy_nodes(http.graph_factory())
    assert "request_body" in greedy  # the END-bounded optional body
    for key in ("modbus", "dns", "mqtt"):
        setup = registry.get(key)
        assert is_self_framing(setup.graph_factory()), key


def test_resolve_framing_modes():
    http_graph = registry.get("http").graph_factory()
    modbus_graph = registry.get("modbus").graph_factory()
    assert resolve_framing(http_graph, "auto") == "record"
    assert resolve_framing(modbus_graph, "auto") == "native"
    assert resolve_framing(modbus_graph, "record") == "record"
    with pytest.raises(StreamError):
        resolve_framing(http_graph, "native")
    with pytest.raises(ValueError):
        resolve_framing(http_graph, "tunnel")


def test_record_decoder_round_trip():
    setup = registry.get("http")
    graph = setup.graph_factory()
    codec = WireCodec(graph, seed=1)
    rng = Random(12)
    wires = [codec.serialize(setup.message_generator(rng)) for _ in range(5)]
    stream = b"".join(encode_record(wire) for wire in wires)
    decoder = RecordDecoder(graph)
    decoded = []
    for chunk in random_chunks(stream, Random(55), max_chunk=7):
        decoded.extend(decoder.feed(chunk))
    decoded.extend(decoder.feed_eof())
    assert [frame.raw for frame in decoded] == wires
    assert [frame.message for frame in decoded] == [codec.parse(w) for w in wires]


def test_record_decoder_truncated_record_raises():
    graph = registry.get("http").graph_factory()
    decoder = RecordDecoder(graph)
    decoder.feed(encode_record(b"GET / HTTP/1.1\r\n\r\n")[:-3])
    with pytest.raises(StreamError):
        decoder.feed_eof()


def test_record_decoder_oversized_record_raises():
    graph = registry.get("http").graph_factory()
    decoder = RecordDecoder(graph)
    with pytest.raises(StreamError):
        decoder.feed((1 << 25).to_bytes(4, "big") + b"x" * 16)
