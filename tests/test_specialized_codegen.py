"""Tests of the specializing code generator (the native-speed codec tier).

ISSUE 10 acceptance: specialized modules are property-tested identical to
the interpreted runtime — bytes, logical structure and typed errors — for
every registered protocol × obfuscation levels 0–4 × replayed plans, the
module cache shares one compiled module per dialect fingerprint, and the
loader refuses stale-emitter-version modules.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import hashlib
import os
import re
import subprocess
import sys
import textwrap
import time
import types
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from copy import deepcopy
from pathlib import Path
from random import Random

import pytest

from repro.codegen import (
    EMITTER_VERSION,
    GeneratedCodec,
    SpecializedCodec,
    cache,
    cached_module,
    clear_module_cache,
    generate_module,
    generate_module_from_plan,
    generate_specialized_module,
    load_source,
    module_cache_stats,
    module_poll,
)
from repro.core.boundary import Boundary
from repro.core.builder import (
    build_graph,
    bytes_field,
    delimited_text,
    optional,
    remaining_bytes,
    repetition,
    sequence,
    tabular,
    text_field,
    uint,
)
from repro.core.errors import (
    CodegenError,
    GraphError,
    MessageError,
    ParseError,
    SerializationError,
)
from repro.core.fieldpath import FieldPath
from repro.core.node import Node, NodeType
from repro.core.values import Synthesis, SynthesisOp, ValueKind, ValueOp, ValueOpKind
from repro.net import Capture, ObfuscatedClient, ObfuscatedServer
from repro.net.framing import RecordDecoder
from repro.protocols import registry
from repro.transforms import (
    ConstAdd,
    ConstSub,
    ConstXor,
    Obfuscator,
    SplitAdd,
    SplitSub,
    SplitXor,
)
from repro.wire import StreamingDecoder, WireCodec, compile_plan
from repro.wire.parser import Parser
from repro.wire.plan import plan_for
from repro.wire.serializer import Serializer

LEVELS = [0, 1, 2, 3, 4]

#: Values put in place of each leaf and each list of a valid message.
MUTANTS = (None, -1, 2**70, "x\r\n", bytes(300), [1], {"a": 1}, 3.5, "", b"")
_DELETE = object()


def dialect(graph_factory, level: int, *, seed: int = 1234):
    """Obfuscated dialect graph of one level (0 = the plain graph)."""
    graph = graph_factory()
    if level == 0:
        return graph
    return Obfuscator(seed=seed + level).obfuscate(graph, level).graph


def outcome(call, *args):
    """``("ok", result)`` or the raised exception's ``(class, text)``."""
    try:
        return "ok", call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def leaf_and_list_paths(value, path=()):
    """Key/index paths of every leaf and every list inside a logical message."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield from leaf_and_list_paths(child, path + (key,))
        return
    yield path
    if isinstance(value, list):
        for index, child in enumerate(value):
            yield from leaf_and_list_paths(child, path + (index,))


def mutated(message: dict, path: tuple, replacement) -> dict:
    """Copy of ``message`` with the value at ``path`` replaced or deleted."""
    copy = deepcopy(message)
    parent = copy
    for step in path[:-1]:
        parent = parent[step]
    if replacement is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return copy


def unworkable_graph(shape: str):
    """``(graph, validator error)`` of a shape no tier can run.

    The graph is built without validation: a bytewise op on a uint, a
    zero-size uint, a pad measured as a LENGTH field, a terminal or a
    repetition without a logical origin, a synthesis share that also counts
    a tabular, an optional whose presence terminal is a pad, a pad inside a
    synthesis node, a value stored where another path needs a container, or
    a mirrored END-bounded region followed by another field.
    """
    if shape == "mirrored_end_region":
        # Every tier serialized {region: {a: 1, b: 2}, c: 3} as 02 01 03; each
        # parser extracted the region up to the end of the window and raised
        # "1 byte(s) left inside bounded node".
        region = sequence("region", [uint("a", 1), uint("b", 1)], boundary=Boundary.end())
        region.mirrored = True
        return (build_graph(sequence("msg", [region, uint("c", 1)]), shape, validate=False),
                "greedy node 'region' is not in tail position of its window")
    if shape == "pad_in_synthesis":
        # Both tiers serialized {"v_split": 7} as b'\xd7B'; the interpreted
        # parser then found no value in the pad and the specialized one
        # raised a NameError.
        pad = Node("pad0", NodeType.TERMINAL, Boundary.fixed(1),
                   value_kind=ValueKind.BYTES, is_pad=True)
        split = Node("v_split", NodeType.SEQUENCE, Boundary.delegated(),
                     children=[pad, uint("v_share", 1)],
                     synthesis=Synthesis(SynthesisOp.ADD, ValueKind.UINT, width=1))
        graph = build_graph(sequence("msg", [split]), shape, validate=False)
        split.children[1].origin = None  # shares carry no logical origin
        return graph, "synthesis node 'v_split' cannot have the pad child 'pad0'"
    if shape == "value_over_container":
        # Both tiers parsed b'\x05\x06' to {'a': {'b': 6}}, which no tier
        # could serialize again.
        graph = build_graph(sequence("msg", [uint("a", 1), uint("b", 1)]), shape,
                            validate=False)
        graph.root.children[1].origin = FieldPath.parse("a.b")
        return graph, "origin a of 'a' is a strict prefix of the origin a.b of 'b'"
    if shape == "share_counter":
        # The serializer writes 'v_share_1' as a share; a parser reading it
        # as the tabular's counter finds one share where two belong.
        split = Node("v_split", NodeType.SEQUENCE, Boundary.delegated(),
                     children=[uint("v_share_1", 1), uint("v_share_2", 1)],
                     synthesis=Synthesis(SynthesisOp.ADD, ValueKind.UINT, width=1))
        rows = tabular("rows", uint("x", 1), counter="v_share_1")
        graph = build_graph(sequence("msg", [split, rows]), shape, validate=False)
        split.children[1].origin = None  # shares carry no logical origin
        return graph, ("synthesis child 'v_share_1' of 'v_split' may be referenced "
                       "only by a sibling's length boundary, not by 'rows'")
    if shape == "pad_presence":
        pad = Node("pad0", NodeType.TERMINAL, Boundary.fixed(1),
                   value_kind=ValueKind.BYTES, is_pad=True)
        extra = optional("extra", uint("value", 1), presence_ref="pad0",
                         presence_value=b"\x01")
        return (build_graph(sequence("msg", [pad, extra]), shape, validate=False),
                "presence reference 'pad0' of optional 'extra' must carry a logical origin")
    if shape == "repetition_without_origin":
        graph = build_graph(sequence("msg", [repetition("items", uint("item", 1))]),
                            shape, validate=False)
        graph.root.children[0].origin = None
        return graph, "repetition node 'items' must carry a logical origin"
    if shape == "terminal_without_origin":
        graph = build_graph(sequence("msg", [uint("field", 2)]), shape, validate=False)
        graph.root.children[0].origin = None
        return graph, ("terminal 'field' must carry a logical origin: it is no pad, "
                       "length/counter field or synthesis child")
    if shape == "pad_length":
        pad = Node("pad0", NodeType.TERMINAL, Boundary.fixed(2),
                   value_kind=ValueKind.UINT, is_pad=True)
        root = sequence("msg", [pad, bytes_field("body", Boundary.length("pad0"))])
        return (build_graph(root, shape, validate=False),
                "terminal 'pad0' is a length/counter field and cannot be padding")
    field = uint("field", 0 if shape == "sizeless_uint" else 2)
    error = "uint terminal 'field' requires a positive size"
    if shape == "bytewise_uint":
        field.codec_chain = (ValueOp(ValueOpKind.XOR, 0x5A, bytewise=True),)
        error = "bytewise value operation on uint terminal 'field'"
    return build_graph(sequence("msg", [field]), shape, validate=False), error


UNWORKABLE = ("bytewise_uint", "sizeless_uint", "pad_length", "share_counter",
              "pad_presence", "repetition_without_origin", "terminal_without_origin",
              "pad_in_synthesis", "value_over_container", "mirrored_end_region")


def wait_for_module(graph, timeout: float = 60.0) -> types.ModuleType:
    """Poll the background compile of ``graph``'s module until it lands."""
    poll = module_poll(graph)
    deadline = time.monotonic() + timeout
    while (module := poll()) is None:
        assert time.monotonic() < deadline, "the background compile never landed"
        time.sleep(0.005)
    return module


def session_traffic(specialize: bool):
    """Replies and capture records of one seeded record-framed Modbus session."""

    async def traffic():
        capture = Capture()
        server = ObfuscatedServer("modbus", framing="record", seed=5,
                                  capture=capture, capture_received=True,
                                  specialize=specialize)
        client = ObfuscatedClient("modbus", framing="record", seed=5,
                                  specialize=specialize)
        client.connect_memory(server)
        rng = Random(11)
        generator = registry.get("modbus").message_generator
        replies = []
        for _ in range(6):
            reply = await client.request(generator(rng))
            replies.append(reply.raw)
        await client.close()
        return replies, [record.data for record in capture.records]

    return asyncio.run(traffic())


class TestEmittedSource:
    def test_module_compiles_and_has_api(self, http_request_graph):
        source = generate_specialized_module(http_request_graph)
        module = load_source(source)
        assert callable(module.parse)
        assert callable(module.serialize)
        assert module.__specialized__ is True
        assert module.__emitter_version__ == EMITTER_VERSION

    def test_specialize_flag_routes_generate_module(self, modbus_request_graph):
        readable = generate_module(modbus_request_graph)
        specialized = generate_module(modbus_request_graph, specialize=True)
        assert "__specialized__ = False" in readable
        assert "__specialized__ = True" in specialized
        # The specialized form is straight-line: no per-node function zoo.
        assert "def _ser_" not in specialized
        assert "def _par_" not in specialized

    def test_specialized_source_is_deterministic(self, http_request_graph):
        first = generate_specialized_module(http_request_graph)
        second = generate_specialized_module(http_request_graph)
        assert first == second

    def test_generate_module_from_plan_specialized(self):
        setup = registry.get("modbus")
        plan = Obfuscator(seed=5).obfuscate(setup.graph_factory(), 2).plan()
        source = generate_module_from_plan(setup.graph_factory(), plan,
                                           specialize=True)
        module = load_source(source)
        assert module.__plan_fingerprint__ == plan.fingerprint
        assert module.__specialized__ is True
        # Emitting from the replayed graph directly is byte-identical.
        replayed = plan.replay(setup.graph_factory())
        assert source == generate_specialized_module(
            replayed, plan_fingerprint=plan.fingerprint)

    def test_translate_tables_match_recorded_digest(self):
        """The emitted ``_T`` tables of every registry direction at levels
        1-4, seeds 0-2, recorded when each table was built byte by byte
        through ``ValueOp._byte_op``."""
        lines = [
            line
            for setup in registry.setups()
            for _, graph_factory, _ in setup.directions()
            for level in (1, 2, 3, 4)
            for seed in range(3)
            for line in generate_specialized_module(
                Obfuscator(seed=seed).obfuscate(graph_factory(), level).graph
            ).splitlines()
            if re.match(r"_T\d+ = ", line)
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == (
            472, "2e24b5c3630f5145368c86c06acebd04fe701081f71e76bde3a7c90b54187f28")

    def test_sources_match_recorded_digest(self):
        """The specialized and the readable source of every registry
        direction at level 0 and at levels 1-4, seeds 0-4.  An emitter change
        records it again only after diffing the sources it moves."""
        runs = [(0, 0)] + [(level, seed) for level in (1, 2, 3, 4) for seed in range(5)]
        graphs = [
            graph_factory() if level == 0
            else Obfuscator(seed=seed).obfuscate(graph_factory(), level).graph
            for setup in registry.setups()
            for _, graph_factory, _ in setup.directions()
            for level, seed in runs
        ]
        digest = hashlib.sha256()
        for graph in graphs:
            digest.update(generate_specialized_module(graph).encode())
            digest.update(generate_module(graph).encode())
        assert (len(graphs), digest.hexdigest()) == (
            168, "fb222b2c882e6ebad1aac117cc38e00185e587f8ebadc236fb4e2a19f7ea61ba")


class TestEquivalence:
    """Bytes, structure and round-trips match the interpreted runtime."""

    @pytest.mark.parametrize("level", LEVELS)
    def test_byte_and_structure_identity(self, protocol_case, level, rng):
        _, graph_factory, generator = protocol_case
        graph = dialect(graph_factory, level)
        specialized = SpecializedCodec(graph, seed=3)
        interpreted = WireCodec(graph, seed=3)
        parser = Parser(graph)
        for _ in range(8):
            message = generator(rng)
            logical = message.to_dict()
            specialized_bytes = specialized.serialize(message)
            # The module reads the message's own dict and never writes to it.
            assert message.raw == logical
            interpreted_bytes = interpreted.serialize(message)
            assert specialized_bytes == interpreted_bytes
            assert specialized.parse(specialized_bytes) == parser.parse(
                interpreted_bytes)

    @pytest.mark.parametrize("level", [0, 2, 4])
    def test_round_trip(self, protocol_case, level, rng):
        _, graph_factory, generator = protocol_case
        graph = dialect(graph_factory, level, seed=77)
        codec = SpecializedCodec(graph, seed=0)
        for _ in range(5):
            message = generator(rng)
            assert codec.parse(codec.serialize(message)) == message

    def test_replayed_plan_shares_bytes_with_engine_run(self, protocol_case, rng):
        """A dialect replayed from its extracted plan specializes identically."""
        _, graph_factory, generator = protocol_case
        result = Obfuscator(seed=21).obfuscate(graph_factory(), 2)
        replayed = result.plan().replay(graph_factory())
        from_engine = SpecializedCodec(result.graph, seed=9)
        from_replay = SpecializedCodec(replayed, seed=9)
        for _ in range(5):
            message = generator(rng)
            assert from_engine.serialize(message) == from_replay.serialize(message)


class TestErrorParity:
    """Fuzzed malformed inputs raise the interpreted parser's exact error."""

    @pytest.mark.parametrize("level", LEVELS)
    def test_truncated_and_corrupted_inputs(self, protocol_case, level, rng):
        _, graph_factory, generator = protocol_case
        graph = dialect(graph_factory, level)
        specialized = SpecializedCodec(graph, seed=3)
        parser = Parser(graph)
        serializer = Serializer(graph, rng=Random(3))
        fuzz = Random(0xBAD5EED + level)
        wires = []
        for _ in range(4):
            try:
                wires.append(serializer.serialize(generator(rng)))
            except Exception:
                continue
        assert wires, "no serializable messages to fuzz"
        for wire in wires:
            variants = [wire[:cut] for cut in range(len(wire))]
            for _ in range(25):
                if not wire:
                    break
                flipped = bytearray(wire)
                flipped[fuzz.randrange(len(wire))] ^= 1 << fuzz.randrange(8)
                variants.append(bytes(flipped))
            variants.extend(
                wire + bytes(fuzz.randrange(256)
                             for _ in range(fuzz.randrange(1, 4)))
                for _ in range(5)
            )
            for variant in variants:
                self.assert_same_outcome(parser, specialized, variant)

    @staticmethod
    def assert_same_outcome(parser: Parser, specialized: SpecializedCodec,
                            data: bytes) -> None:
        try:
            expected = parser.parse(data)
        except ParseError as exc:
            with pytest.raises(ParseError) as caught:
                specialized.parse(data)
            assert str(caught.value) == str(exc)
            assert caught.value.offset == exc.offset
            assert caught.value.node == exc.node
            assert type(caught.value) is type(exc)
        else:
            assert specialized.parse(data) == expected

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_serialize_errors_match_interpreted(self, protocol_case, level):
        """Each leaf and list replaced by a bad value, or deleted: both tiers
        give the same bytes, or the same exception class and text, and leave
        the mutant unchanged."""
        _, graph_factory, generator = protocol_case
        graph = dialect(graph_factory, level)
        module = SpecializedCodec(graph).module
        rng = Random(level)
        for message in [generator(rng).to_dict() for _ in range(4)]:
            for path in leaf_and_list_paths(message):
                for replacement in (*MUTANTS, _DELETE):
                    case = mutated(message, path, replacement)
                    before = deepcopy(case)
                    interpreted = outcome(Serializer(graph, rng=Random(0)).serialize,
                                          case)
                    specialized = outcome(
                        SpecializedCodec(graph, seed=0, module=module).serialize, case)
                    assert specialized == interpreted, (path, replacement)
                    # Neither tier writes into the message it serializes.
                    assert case == before, (path, replacement)

    def test_trailing_bytes_strict_and_lenient(self, modbus_request_graph, rng):
        codec = SpecializedCodec(modbus_request_graph, seed=0)
        message = registry.get("modbus").message_generator(rng)
        wire = codec.serialize(message)
        with pytest.raises(ParseError, match="trailing byte"):
            codec.parse(wire + b"xx")
        assert codec.parse(wire + b"xx", strict=False) == message


class TestValidatedGraphsOnly:
    """Every tier compiles valid graphs only: each compile entry refuses a
    shape the validator rejects with the validator's error, before it
    produces a byte."""

    @pytest.mark.parametrize("shape", UNWORKABLE)
    def test_no_tier_runs_the_shape(self, shape):
        graph, error = unworkable_graph(shape)
        entries = (compile_plan, plan_for, Parser, Serializer, WireCodec,
                   StreamingDecoder, RecordDecoder)
        for entry in entries:
            with pytest.raises(GraphError, match=f"^{re.escape(error)}$"):
                entry(graph)

    @pytest.mark.parametrize("shape", UNWORKABLE)
    def test_emitter_raises_the_validator_error(self, shape):
        graph, error = unworkable_graph(shape)
        with pytest.raises(GraphError, match=f"^{re.escape(error)}$"):
            generate_specialized_module(graph)

    def test_length_of_a_pad_is_refused_before_serializing(self):
        # Refused when the module is emitted: a pad fills no length slot, so
        # an emitted serializer could only fail (with a NameError).
        graph, error = unworkable_graph("pad_length")
        with pytest.raises(GraphError, match=f"^{re.escape(error)}$"):
            SpecializedCodec(graph, seed=0).serialize({"body": b"ab"})


def walk_shape(shape: str):
    """Plain graph of one field-path shape the specialized modules walk
    inline, and a generator of its well-formed messages."""
    if shape == "block_field_list":
        # request_payload.<block>.<field>[*] (and [*].<field>), as in Modbus.
        cells = tabular("cells", sequence("cell", [uint("hi", 1), uint("lo", 2)]),
                        counter="cell_count")
        regs = tabular("registers", uint("register", 2), counter="reg_count")
        block = sequence("write", [uint("cell_count", 1), cells, uint("reg_count", 1), regs])
        root = sequence("msg", [uint("fc", 1), sequence("request_payload",
                                                        [uint("unit", 1), block])])

        def message(rng):
            return {"fc": rng.randrange(256), "request_payload": {
                "unit": rng.randrange(256), "write": {
                    "cells": [{"hi": rng.randrange(256), "lo": rng.randrange(1 << 16)}
                              for _ in range(rng.randrange(4))],
                    "registers": [rng.randrange(1 << 16) for _ in range(rng.randrange(4))],
                }}}
    elif shape == "optional_blocks":
        # mqtt_body.<block>.<field> under presence-selected optionals.
        connect = sequence("connect", [uint("keepalive", 2),
                                       delimited_text("client_id", b"\x00")])
        publish = sequence("publish", [uint("packet_id", 2), remaining_bytes("payload")])
        body = sequence("mqtt_body", [
            optional("connect_opt", connect, presence_ref="kind", presence_value=1),
            optional("publish_opt", publish, presence_ref="kind", presence_value=3)])
        root = sequence("msg", [uint("kind", 1), body])

        def message(rng):
            if rng.random() < 0.5:
                return {"kind": 1, "mqtt_body": {"connect_opt": {
                    "keepalive": rng.randrange(1 << 16),
                    "client_id": "c%d" % rng.randrange(100)}}}
            return {"kind": 3, "mqtt_body": {"publish_opt": {
                "packet_id": rng.randrange(1 << 16),
                "payload": bytes(rng.randrange(256) for _ in range(rng.randrange(5)))}}}
    elif shape == "options_list":
        # coap_body.coap_options[*].<field>, then an optional tail.
        option = sequence("coap_option", [
            uint("delta", 1), uint("value_len", 1),
            bytes_field("value", Boundary.length("value_len"))])
        options = repetition("coap_options", option, boundary=Boundary.delimited(b"\xff"))
        body = sequence("coap_body", [uint("code", 1), options,
                                      optional("tail", remaining_bytes("payload"))])
        root = sequence("msg", [uint("mid", 2), body])

        def message(rng):
            body = {"code": rng.randrange(256), "coap_options": [
                {"delta": rng.randrange(0xFE), "value": bytes(rng.randrange(3))}
                for _ in range(rng.randrange(4))]}
            if rng.random() < 0.5:
                body["tail"] = b"payload"
            return {"mid": rng.randrange(1 << 16), "coap_body": body}
    else:
        # questions[*].name[*].label_text: a repetition inside a tabular.
        label = sequence("label", [uint("label_len", 1),
                                   text_field("label_text", Boundary.length("label_len"))])
        question = sequence("question", [
            repetition("name", label, boundary=Boundary.delimited(b"\x00")),
            uint("qtype", 2)])
        root = sequence("msg", [uint("qid", 2), uint("qdcount", 1),
                                tabular("questions", question, counter="qdcount")])

        def message(rng):
            return {"qid": rng.randrange(1 << 16), "questions": [
                {"name": [{"label_text": "l%d" % rng.randrange(10)}
                          for _ in range(rng.randrange(1, 4))],
                 "qtype": rng.randrange(1 << 16)}
                for _ in range(rng.randrange(3))]}
    return build_graph(root, shape), message


WALK_SHAPES = ("block_field_list", "optional_blocks", "options_list", "nested_lists")


def malformed(message: dict):
    """Variants of ``message``: every value replaced by a bad one or deleted,
    every dict by a list and every list by a shorter one."""
    def paths(value, path=()):
        if path:
            yield path, value
        if isinstance(value, dict):
            for key, child in value.items():
                yield from paths(child, path + (key,))
        elif isinstance(value, list):
            for index, child in enumerate(value):
                yield from paths(child, path + (index,))

    for path, value in list(paths(message)):
        for replacement in (None, -1, "x", b"", [1], {"a": 1}, _DELETE):
            yield mutated(message, path, replacement)
        if isinstance(value, dict):
            yield mutated(message, path, [value])
        if isinstance(value, list):
            for size in range(len(value)):
                yield mutated(message, path, value[:size])


class TestInlineWalks:
    """Inline walks read and write exactly what the shared accessors do:
    every path shape, obfuscated or not, gives the interpreted tier's bytes,
    structures and typed errors, on well-formed and malformed messages."""

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("shape", WALK_SHAPES)
    def test_tiers_agree(self, shape, level):
        graph, message = walk_shape(shape)
        if level:
            graph = Obfuscator(seed=level).obfuscate(graph, level).graph
        module = SpecializedCodec(graph).module
        parser = Parser(graph)
        rng = Random(level)
        for _ in range(6):
            valid = message(rng)
            for case in (valid, *malformed(valid)):
                before = deepcopy(case)
                interpreted = outcome(Serializer(graph, rng=Random(0)).serialize, case)
                specialized = outcome(
                    SpecializedCodec(graph, seed=0, module=module).serialize, case)
                assert specialized == interpreted, case
                assert case == before
            wire = Serializer(graph, rng=Random(1)).serialize(valid)
            assert SpecializedCodec(graph, module=module).parse(wire) == valid
            for cut in range(len(wire)):
                TestErrorParity.assert_same_outcome(
                    parser, SpecializedCodec(graph, module=module), wire[:cut])

    @pytest.mark.parametrize("value_first", [False, True])
    def test_a_container_of_the_wrong_type_raises_the_same_error(self, value_first):
        """A list and a dict at one origin validate; parsing into them raises
        the accessor's own MessageError on both tiers."""
        items = tabular("a", uint("item", 1), counter="n")
        value = uint("b", 1)
        children = [value, uint("n", 1), items] if value_first else [uint("n", 1), items, value]
        graph = build_graph(sequence("msg", children), "conflict", validate=False)
        value.origin = FieldPath.parse("a.b")
        module = SpecializedCodec(graph).module
        wire = b"\x07\x02\x05\x06" if value_first else b"\x02\x05\x06\x07"
        expected = ("expected a list at ('a',)" if value_first
                    else "expected a dict at ('a',)")
        assert outcome(Parser(graph).parse, wire) == (MessageError, expected)
        for cut in range(len(wire) + 1):
            assert outcome(module.parse, wire[:cut]) == outcome(
                lambda data: Parser(graph).parse(data).raw, wire[:cut])
        for case in ({"a": [1, 2], "b": 3}, {"a": {"b": 3}}, {"a": [], "b": 1}):
            assert outcome(SpecializedCodec(graph, seed=0, module=module).serialize,
                           case) == outcome(Serializer(graph, rng=Random(0)).serialize,
                                            case)


def every_tier(graph, message: dict) -> tuple:
    """Interpreted, specialized and readable-library outcome of serializing
    ``message``.

    The readable library raises its own ``GeneratedCodecError`` (it imports
    nothing from ``repro``); it stands in for ``SerializationError`` here.
    """
    readable = outcome(GeneratedCodec(graph, seed=0).serialize, message)
    if readable[0] != "ok" and readable[0].__name__ == "GeneratedCodecError":
        readable = (SerializationError, readable[1])
    return (outcome(Serializer(graph, rng=Random(0)).serialize, message),
            outcome(SpecializedCodec(graph, seed=0).serialize, message),
            readable)


def transformed(graph, target: str, *transforms):
    """``graph`` with each transformation applied to node ``target``."""
    for transform in transforms:
        transform().apply(graph, graph.find(target), Random(0))
    return graph


def all_ok(outcomes: tuple) -> bool:
    """Every tier serialized, to the same bytes."""
    return outcomes[0][0] == "ok" and len(set(outcomes)) == 1


def tid_graph(*transforms):
    graph = build_graph(sequence("root", [uint("tid", 2), uint("unit", 1)]), "tid")
    return transformed(graph, "tid", *transforms)


def dns_query(label: str) -> dict:
    return {
        "query_id": 1, "query_flags": 256, "query_ancount": 0,
        "query_nscount": 0, "query_arcount": 0,
        "query_questions": [{
            "query_question_name": [{"query_question_label_text": label}],
            "query_qtype": 1, "query_qclass": 1,
        }],
    }


class TestValuesTooLargeForTheirField:
    """An integer too large for its field raises one error naming the
    logical value, with the same text on every tier (the readable library
    included), in every dialect: no ADD step or split reduces it modulo the
    width, no xor leaks into it."""

    @pytest.mark.parametrize("transforms", [(), (ConstAdd,), (ConstSub,), (ConstXor,),
                                            (ConstXor, ConstAdd)],
                             ids=["plain", "add", "sub", "xor", "xor-add"])
    @pytest.mark.parametrize("value", [70000, -1])
    def test_a_value_terminal(self, transforms, value):
        expected = (SerializationError,
                    f"terminal 'tid': value {value} does not fit in 2 byte(s)")
        assert every_tier(tid_graph(*transforms), {"tid": value, "unit": 1}) == (
            expected,) * 3

    @pytest.mark.parametrize("transform", [SplitAdd, SplitSub, SplitXor])
    @pytest.mark.parametrize("value", [70000, -1])
    def test_a_split_terminal(self, transform, value):
        graph = tid_graph(transform)
        split = graph.root.children[0].name
        expected = (SerializationError,
                    f"synthesis node {split!r}: value {value} does not fit in 2 byte(s)")
        assert every_tier(graph, {"tid": value, "unit": 1}) == (expected,) * 3

    @pytest.mark.parametrize("seed", range(1, 8))
    def test_every_level_one_dialect(self, seed):
        graph = Obfuscator(seed=seed).obfuscate(tid_graph(), 1).graph
        interpreted, specialized, readable = every_tier(graph, {"tid": 70000, "unit": 1})
        assert interpreted == specialized == readable
        assert interpreted[0] is SerializationError
        assert interpreted[1].endswith(": value 70000 does not fit in 2 byte(s)")

    @pytest.mark.parametrize("transforms", [(), (ConstAdd,), (ConstSub,)],
                             ids=["plain", "add", "sub"])
    def test_a_counter(self, transforms):
        graph = transformed(build_graph(sequence("root", [
            uint("count", 1), tabular("items", uint("x", 1), counter="count"),
        ]), "counted"), "count", *transforms)
        expected = (SerializationError,
                    "terminal 'count': value 300 does not fit in 1 byte(s)")
        assert every_tier(graph, {"items": [0] * 300}) == (expected,) * 3
        assert all_ok(every_tier(graph, {"items": [0] * 255}))

    @pytest.mark.parametrize("transforms", [(), (ConstAdd,), (ConstXor,)],
                             ids=["plain", "add", "xor"])
    def test_a_length_field(self, transforms):
        graph = transformed(registry.get("dns").graph_factory(),
                            "query_question_label_len", *transforms)
        expected = (SerializationError,
                    "terminal 'query_question_label_len': value 300 does not fit "
                    "in 1 byte(s)")
        assert every_tier(graph, dns_query("a" * 300)) == (expected,) * 3
        assert all_ok(every_tier(graph, dns_query("a" * 255)))

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_a_length_field_in_registry_dialects(self, level):
        graph = dialect(registry.get("dns").graph_factory, level)
        interpreted, specialized, readable = every_tier(graph, dns_query("a" * 300))
        assert interpreted == specialized == readable
        assert interpreted == (
            SerializationError,
            "terminal 'query_question_label_len': value 300 does not fit in 1 byte(s)")

    def test_a_packed_run_raises_for_its_first_bad_member(self):
        """Each member of a fused pack is checked in order, as one by one:
        an oversized first member is reported before a missing second one."""
        graph = build_graph(sequence("root", [uint("a", 1), uint("b", 1)]), "run")
        assert "_S0.pack(" in SpecializedCodec(graph).source
        expected = (SerializationError, "terminal 'a': value 300 does not fit in 1 byte(s)")
        assert every_tier(graph, {"a": 300}) == (expected,) * 3


class TestCodecWrapper:
    def test_serialize_hands_the_module_the_message_dict(self, modbus_request_graph, rng):
        received = []
        spy = types.SimpleNamespace(
            serialize=lambda logical, rng: received.append(logical) or b"")
        codec = GeneratedCodec(modbus_request_graph, module=spy)
        message = registry.get("modbus").message_generator(rng)
        codec.serialize(message)
        assert len(received) == 1 and received[0] is message.raw

    @pytest.mark.parametrize("level", [0, 2])
    def test_serialize_with_spans_matches_interpreted(self, protocol_case, level, rng):
        """Spans come from the interpreted tier over the codec's own RNG, so
        interleaving them with plain serializes keeps one byte stream."""
        _, graph_factory, generator = protocol_case
        graph = dialect(graph_factory, level)
        codec = SpecializedCodec(graph, seed=3)
        serializer = Serializer(graph, rng=Random(3))
        for _ in range(3):
            message = generator(rng)
            assert codec.serialize_with_spans(message) == (
                serializer.serialize_with_spans(message))
            assert codec.serialize(message) == serializer.serialize(message)


class TestModuleCache:
    def setup_method(self):
        clear_module_cache()

    def teardown_method(self):
        clear_module_cache()

    def test_same_fingerprint_shares_one_module(self):
        setup = registry.get("modbus")
        plan = Obfuscator(seed=4).obfuscate(setup.graph_factory(), 2).plan()
        first = plan.replay(setup.graph_factory())
        second = plan.replay(setup.graph_factory())
        assert first is not second
        module_a = cached_module(first, specialize=True)
        module_b = cached_module(second, specialize=True)
        assert module_a is module_b
        stats = module_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_unstamped_graphs_share_by_content(self):
        setup = registry.get("http")
        module_a = cached_module(setup.graph_factory(), specialize=True)
        module_b = cached_module(setup.graph_factory(), specialize=True)
        assert module_a is module_b

    def test_disk_cache_round_trip(self, tmp_path):
        graph = registry.get("dns").graph_factory()
        cached_module(graph, specialize=True, cache_dir=tmp_path)
        files = list(tmp_path.glob("codec_*_spec.py"))
        assert len(files) == 1
        clear_module_cache()
        cached_module(graph, specialize=True, cache_dir=tmp_path)
        assert module_cache_stats()["disk_hits"] == 1

    def test_disk_cache_refuses_and_regenerates_stale_version(self, tmp_path):
        graph = registry.get("dns").graph_factory()
        cached_module(graph, specialize=True, cache_dir=tmp_path)
        path = next(tmp_path.glob("codec_*_spec.py"))
        stale = path.read_text().replace(
            f"__emitter_version__ = {EMITTER_VERSION!r}",
            "__emitter_version__ = '0-stale'")
        path.write_text(stale)
        clear_module_cache()
        module = cached_module(graph, specialize=True, cache_dir=tmp_path)
        # Regenerated, never run stale: the fresh module carries the current
        # version and the file was overwritten with it.
        assert module.__emitter_version__ == EMITTER_VERSION
        assert module_cache_stats()["disk_hits"] == 0
        assert f"__emitter_version__ = {EMITTER_VERSION!r}" in path.read_text()

    def test_disk_cache_regenerates_unreadable_entry(self, tmp_path):
        graph = registry.get("dns").graph_factory()
        cached_module(graph, specialize=True, cache_dir=tmp_path)
        path = next(tmp_path.glob("codec_*_spec.py"))
        path.write_bytes(b"\xff\xfe not utf-8 \x80")
        clear_module_cache()
        module = cached_module(graph, specialize=True, cache_dir=tmp_path)
        assert module.__emitter_version__ == EMITTER_VERSION
        assert module_cache_stats()["disk_hits"] == 0
        assert (f"__emitter_version__ = {EMITTER_VERSION!r}"
                in path.read_text(encoding="utf-8"))

    def test_worker_regenerates_unreadable_entry(self, tmp_path, monkeypatch):
        """The background path resolves the disk layer as cached_module does."""
        monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
        graph = dialect(registry.get("dns").graph_factory, 2, seed=606)
        path = tmp_path / f"codec_{cache.module_fingerprint(graph)}_spec.py"
        path.write_bytes(b"\xff\xfe not utf-8 \x80")
        module = wait_for_module(graph)
        assert module.__emitter_version__ == EMITTER_VERSION
        assert module_cache_stats()["disk_hits"] == 0
        assert path.read_text(encoding="utf-8") == generate_specialized_module(
            graph, plan_fingerprint=cache.module_fingerprint(graph))
        clear_module_cache()
        wait_for_module(graph)
        assert module_cache_stats()["disk_hits"] == 1

    def test_compiled_codec_shares_module_not_rng(self, rng):
        setup = registry.get("coap")
        codec_a = setup.compiled_codec("request", seed=1)
        codec_b = setup.compiled_codec("request", seed=1)
        assert codec_a.module is codec_b.module
        message = setup.message_generator(rng)
        # Same seed, independent RNG state: identical first draws.
        assert codec_a.serialize(message) == codec_b.serialize(message)


class TestVersionRefusal:
    def test_loader_refuses_declared_stale_version(self, modbus_request_graph):
        source = generate_module(modbus_request_graph, specialize=True)
        stale = source.replace(
            f"__emitter_version__ = {EMITTER_VERSION!r}",
            "__emitter_version__ = 'prehistoric'")
        with pytest.raises(CodegenError, match="emitter version"):
            load_source(stale)

    def test_loader_refuses_unstamped_when_version_required(self):
        with pytest.raises(CodegenError, match="no __emitter_version__"):
            load_source("def parse(d, strict=True): return {}\n",
                        require_version=True)

    def test_unstamped_allowed_by_default(self):
        module = load_source("x = 1\n")
        assert module.x == 1

    def test_readable_modules_are_stamped_too(self, http_request_graph):
        source = generate_module(http_request_graph)
        module = load_source(source)
        assert module.__emitter_version__ == EMITTER_VERSION
        assert module.__specialized__ is False


class TestNetIntegration:
    def test_specialized_sessions_match_interpreted_bytes(self):
        interpreted = session_traffic(False)
        # Compiled first, so every codec of the session holds its module from
        # the start: the session misses nothing and serves on the module.
        setup = registry.get("modbus")
        for direction in ("request", "response"):
            cached_module(setup.reference_graph(direction), specialize=True)
        before = module_cache_stats()
        specialized = session_traffic(True)
        after = module_cache_stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]
        assert interpreted == specialized


class TestTierSwitch:
    """A session's codec serves on the interpreted tier until its module,
    compiled in the background worker, lands; then it switches in place."""

    def setup_method(self):
        clear_module_cache()

    def teardown_method(self):
        clear_module_cache()

    @pytest.mark.parametrize("level", [0, 2])
    def test_switch_after_any_message_keeps_bytes(self, protocol_case, level, rng):
        """A codec that gains its module after ``k`` messages serializes and
        parses as either tier alone, for every ``k``."""
        _, graph_factory, generator = protocol_case
        graph = dialect(graph_factory, level)
        module = cached_module(graph, specialize=True)
        messages = [generator(rng) for _ in range(6)]
        interpreted = Serializer(graph, rng=Random(3))
        wires = [interpreted.serialize(message) for message in messages]
        alone = SpecializedCodec(graph, seed=3, module=module)
        assert [alone.serialize(message) for message in messages] == wires
        parser = Parser(graph)
        parsed = [parser.parse(wire) for wire in wires]
        damaged = [outcome(parser.parse, wire[:-1]) for wire in wires]
        for k in range(len(messages) + 1):
            landed = [False]
            poll = lambda: module if landed[0] else None  # noqa: E731
            serializer = SpecializedCodec.tiering(graph, poll, seed=3)
            decoder = SpecializedCodec.tiering(graph, poll, seed=3)
            for index, message in enumerate(messages):
                landed[0] = index >= k
                assert serializer.serialize(message) == wires[index]
                assert decoder.parse(wires[index]) == parsed[index]
                assert outcome(decoder.parse, wires[index][:-1]) == damaged[index]
                assert (serializer.module is module) == (index >= k)
                assert (decoder.module is module) == (index >= k)

    def test_background_miss_is_submitted_once_and_lands(self, monkeypatch, rng):
        submitted = []
        submit = cache._submit
        monkeypatch.setattr(cache, "_submit",
                            lambda *args: submitted.append(args) or submit(*args))
        setup = registry.get("coap")
        graph = dialect(setup.graph_factory, 2, seed=4242)
        first = SpecializedCodec.tiering(graph, module_poll(graph), seed=0)
        second = SpecializedCodec.tiering(graph, module_poll(graph), seed=0)
        assert first.module is None
        # One miss and one submit; asking for a pending compile is no hit.
        assert len(submitted) == 1
        assert module_cache_stats()["misses"] == 1
        assert module_cache_stats()["hits"] == 0
        module = wait_for_module(graph)
        assert module.__file__.startswith("<generated:")
        message = setup.message_generator(rng)
        for codec in (first, second):
            assert codec.serialize(message) == Serializer(
                graph, rng=Random(0)).serialize(message)
            assert codec.module is module
        assert module_cache_stats()["misses"] == 1

    @pytest.mark.parametrize("shape", UNWORKABLE)
    def test_invalid_graph_raises_before_submitting(self, shape, monkeypatch):
        submitted = []
        monkeypatch.setattr(cache, "_submit", lambda *args: submitted.append(args))
        graph, error = unworkable_graph(shape)
        with pytest.raises(GraphError, match=f"^{re.escape(error)}$"):
            SpecializedCodec.tiering(graph, module_poll(graph), seed=0)
        assert submitted == []
        assert module_cache_stats()["misses"] == 0

    def test_sessions_compile_on_the_caller_without_a_worker(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise OSError("no process can start")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unavailable)
        monkeypatch.setattr(cache, "_POOL", None)
        graph = dialect(registry.get("http").graph_factory, 2, seed=515)
        codec = SpecializedCodec.tiering(graph, module_poll(graph), seed=0)
        assert codec.module is not None
        assert cache._POOL is False
        interpreted = session_traffic(False)
        clear_module_cache()
        assert session_traffic(True) == interpreted
        assert module_cache_stats()["misses"] > 0
        assert cache._PENDING == {}

    def test_failed_result_compiles_on_the_caller(self, monkeypatch, rng):
        broken = Future()
        broken.set_exception(BrokenProcessPool("the worker died"))
        monkeypatch.setattr(cache, "_POOL", None)
        monkeypatch.setattr(cache, "_submit", lambda *args: broken)
        setup = registry.get("dns")
        graph = dialect(setup.graph_factory, 2, seed=717)
        codec = SpecializedCodec.tiering(graph, module_poll(graph), seed=0)
        assert codec.module is None
        message = setup.message_generator(rng)
        assert codec.serialize(message) == Serializer(
            graph, rng=Random(0)).serialize(message)
        assert codec.module is not None
        # The worker is not used again in this process.
        assert cache._POOL is False

    def test_process_exits_cleanly_after_background_compiles(self):
        """One compile landed and one still running at exit: exit code 0 and
        nothing on stderr (the worker is shut down before teardown)."""
        script = textwrap.dedent("""
            import time
            from repro.codegen import module_poll
            from repro.protocols import registry
            from repro.transforms import Obfuscator

            setup = registry.get("dns")
            landed, running = (
                Obfuscator(seed=seed).obfuscate(setup.graph_factory(), 2).graph
                for seed in (1, 2))
            poll = module_poll(landed)
            while poll() is None:
                time.sleep(0.005)
            assert module_poll(running)() is None
            print("ok")
        """)
        env = dict(os.environ)
        env.pop(cache.CACHE_DIR_ENV, None)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
