"""Tests of the code generator and generated libraries."""

from __future__ import annotations

from random import Random

import pytest

from repro.codegen import (
    GeneratedCodec,
    accessor_suffix,
    generate_module,
    load_source,
    parser_function,
    sanitize,
    serializer_function,
    struct_class,
    write_module,
)
from repro.core import FieldPath, Message
from repro.protocols import http, modbus
from repro.transforms import Obfuscator
from repro.wire import WireCodec


class TestNaming:
    def test_sanitize_replaces_invalid_characters(self):
        assert sanitize("a-b c") == "a_b_c"
        assert sanitize("9lives").startswith("n_")
        assert sanitize("class") == "class_"

    def test_function_and_struct_names(self):
        assert serializer_function("x") == "_ser_x"
        assert parser_function("x") == "_par_x"
        assert struct_class("x") == "S_x"

    def test_accessor_suffix_skips_indices(self):
        assert accessor_suffix(FieldPath.parse("headers[*].name")) == "headers_name"
        assert accessor_suffix(FieldPath()) == "root"


class TestGeneratedSource:
    def test_module_compiles_and_has_api(self, http_request_graph):
        module = load_source(generate_module(http_request_graph))
        assert callable(module.serialize)
        assert callable(module.parse)
        assert callable(module.parse_ast)

    def test_struct_class_per_node(self, http_request_graph):
        source = generate_module(http_request_graph)
        for node in http_request_graph.nodes():
            assert f"class {struct_class(node.name)}" in source

    def test_serializer_and_parser_function_per_node(self, modbus_request_graph):
        source = generate_module(modbus_request_graph)
        for node in modbus_request_graph.nodes():
            assert f"def {serializer_function(node.name)}(" in source
            assert f"def {parser_function(node.name)}(" in source

    def test_source_grows_with_obfuscation(self, http_request_graph):
        plain = generate_module(http_request_graph)
        obfuscated = generate_module(Obfuscator(seed=0).obfuscate(http_request_graph, 2).graph)
        assert len(obfuscated.splitlines()) > len(plain.splitlines())

    def test_write_module(self, tmp_path, http_request_graph):
        target = write_module(generate_module(http_request_graph), tmp_path / "gen" / "lib.py")
        assert target.exists()
        assert "def parse(" in target.read_text()

    def test_accessors_are_stable_across_obfuscations(self, http_request_graph):
        plain = generate_module(http_request_graph)
        obfuscated = generate_module(Obfuscator(seed=1).obfuscate(http.request_graph(), 2).graph)
        plain_accessors = {line for line in plain.splitlines() if line.startswith("def set_")}
        obfuscated_accessors = {
            line for line in obfuscated.splitlines() if line.startswith("def set_")
        }
        assert plain_accessors == obfuscated_accessors


class TestGeneratedCodecBehaviour:
    @pytest.mark.parametrize("passes", [0, 1, 2])
    def test_round_trip(self, protocol_case, passes, rng):
        _, graph_factory, generator = protocol_case
        graph = graph_factory()
        if passes:
            graph = Obfuscator(seed=passes).obfuscate(graph, passes).graph
        codec = GeneratedCodec(graph, seed=0)
        for _ in range(5):
            message = generator(rng)
            assert codec.parse(codec.serialize(message)) == message

    @pytest.mark.parametrize("passes", [0, 1, 2])
    def test_equivalence_with_interpreted_runtime(self, protocol_case, passes, rng):
        """The generated library and the interpreted codec are interchangeable."""
        _, graph_factory, generator = protocol_case
        graph = graph_factory()
        if passes:
            graph = Obfuscator(seed=7 + passes).obfuscate(graph, passes).graph
        generated = GeneratedCodec(graph, seed=3)
        interpreted = WireCodec(graph, seed=3)
        for _ in range(5):
            message = generator(rng)
            logical = message.to_dict()
            generated_bytes = generated.serialize(message)
            # The module reads the message's own dict and never writes to it.
            assert message.raw == logical
            assert interpreted.parse(generated_bytes) == message
            interpreted_bytes = interpreted.serialize(message)
            assert generated.parse(interpreted_bytes) == message

    def test_parse_ast_returns_struct_tree(self, http_request_graph, rng):
        codec = GeneratedCodec(http_request_graph, seed=0)
        message = http.random_request(rng)
        ast = codec.parse_ast(codec.serialize(message))
        assert type(ast).__name__ == struct_class("http_request")
        assert hasattr(ast, "method")

    def test_generated_accessors_set_and_get(self, modbus_request_graph):
        codec = GeneratedCodec(modbus_request_graph, seed=0)
        module = codec.module
        message: dict = {}
        module.set_request_transaction_id(message, 7)
        module.set_request_protocol_id(message, 0)
        module.set_request_payload_request_unit_id(message, 1)
        module.set_request_payload_function_code(message, 6)
        module.set_request_payload_write_single_register_request_block_write_single_register_address(message, 10)
        module.set_request_payload_write_single_register_request_block_write_single_register_value(message, 99)
        data = module.serialize(message)
        parsed = module.parse(data)
        assert module.get_request_payload_function_code(parsed) == 6

    def test_generated_codec_strict_parse(self, modbus_request_graph, rng):
        codec = GeneratedCodec(modbus_request_graph, seed=0)
        message = modbus.random_request(rng)
        data = codec.serialize(message)
        with pytest.raises(Exception):
            codec.parse(data + b"garbage")

    def test_generated_round_trips_helper(self, modbus_request_graph, rng):
        codec = GeneratedCodec(modbus_request_graph, seed=0)
        assert codec.round_trips(modbus.random_request(rng))
