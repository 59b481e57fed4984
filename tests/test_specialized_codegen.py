"""Tests of the specializing code generator (the native-speed codec tier).

ISSUE 10 acceptance: specialized modules are property-tested identical to
the interpreted runtime — bytes, logical structure and typed errors — for
every registered protocol × obfuscation levels 0–4 × replayed plans, the
module cache shares one compiled module per dialect fingerprint, and the
loader refuses stale-emitter-version modules.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.codegen import (
    EMITTER_VERSION,
    SpecializedCodec,
    cached_module,
    clear_module_cache,
    generate_module,
    generate_module_from_plan,
    generate_specialized_module,
    load_source,
    module_cache_stats,
)
from repro.core.errors import CodegenError, ParseError
from repro.protocols import registry
from repro.transforms import Obfuscator
from repro.wire import WireCodec
from repro.wire.parser import Parser
from repro.wire.serializer import Serializer

LEVELS = [0, 1, 2, 3, 4]


def dialect(graph_factory, level: int, *, seed: int = 1234):
    """Obfuscated dialect graph of one level (0 = the plain graph)."""
    graph = graph_factory()
    if level == 0:
        return graph
    return Obfuscator(seed=seed + level).obfuscate(graph, level).graph


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
            specialized_bytes = specialized.serialize(message)
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

    def test_trailing_bytes_strict_and_lenient(self, modbus_request_graph, rng):
        codec = SpecializedCodec(modbus_request_graph, seed=0)
        message = registry.get("modbus").message_generator(rng)
        wire = codec.serialize(message)
        with pytest.raises(ParseError, match="trailing byte"):
            codec.parse(wire + b"xx")
        assert codec.parse(wire + b"xx", strict=False) == message


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
        import asyncio

        from repro.net import Capture, ObfuscatedClient, ObfuscatedServer

        async def traffic(specialize: bool):
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

        interpreted = asyncio.run(traffic(False))
        specialized = asyncio.run(traffic(True))
        assert interpreted == specialized
