"""Mid-session key rotation: control records, plan books, session rotation.

ISSUE 5 acceptance: sessions keep zero-error round-trips across ≥ 3 plan
rotations over both the in-process transport and real TCP, and capture
records carry the correct per-record plan fingerprint.  The rotated capture
feeds ``run_resilience`` end-to-end.
"""

from __future__ import annotations

import asyncio
import time
from random import Random

import pytest

from repro.codegen import (
    cached_module,
    clear_module_cache,
    module_cache_stats,
    module_poll,
)
from repro.core.errors import StreamError
from repro.experiments import run_resilience
from repro.net import (
    Capture,
    ObfuscatedClient,
    ObfuscatedServer,
    PlanBook,
    RecordDecoder,
    RotationEvent,
    SessionKey,
    connect_memory,
    derive_session_key,
    encode_rotation,
)
from repro.net.framing import frame_payload
from repro.protocols import modbus, mqtt, registry
from repro.spec import load_plan_text, dump_plan
from repro.transforms.engine import Obfuscator
from repro.wire.serializer import Serializer


def run(coroutine):
    return asyncio.run(coroutine)


def make_book(protocol: str, seeds=(10, 20, 30, 40), passes: int = 1) -> PlanBook:
    return PlanBook([derive_session_key(protocol, passes=passes, seed=seed)
                     for seed in seeds])


def request_for(protocol: str, rng: Random):
    """A request the protocol's responder always answers."""
    if protocol == "mqtt":
        return mqtt.build_pingreq()
    return registry.get(protocol).message_generator(rng)


# ---------------------------------------------------------------------------
# framing-level rotation control records
# ---------------------------------------------------------------------------


def test_record_decoder_follows_rotation_control_records():
    setup = registry.get("modbus")
    plain = setup.reference_graph()
    dialect = Obfuscator(seed=33).obfuscate(setup.graph_factory(), 2).plan().replay(
        setup.graph_factory())
    graphs = {"plain": plain, "dialect": dialect}
    decoder = RecordDecoder(plain, key_resolver=lambda key_id: graphs[key_id])

    message = setup.message_generator(Random(0))
    plain_bytes = frame_payload(Serializer(plain, rng=Random(1)).serialize(message),
                                "record")
    dialect_bytes = frame_payload(
        Serializer(dialect, rng=Random(1)).serialize(message), "record")
    stream = plain_bytes + encode_rotation("dialect") + dialect_bytes
    items = decoder.feed(stream) + decoder.feed_eof()
    kinds = [type(item).__name__ for item in items]
    assert kinds == ["DecodedMessage", "RotationEvent", "DecodedMessage"]
    assert items[1] == RotationEvent("dialect")
    assert items[0].message == message
    assert items[2].message == message
    assert decoder.current_key == "dialect"


def test_rotation_record_without_a_plan_book_is_a_stream_error():
    setup = registry.get("modbus")
    decoder = RecordDecoder(setup.reference_graph())
    with pytest.raises(StreamError, match="plan book"):
        decoder.feed(encode_rotation("whatever"))


def test_rotation_to_an_unknown_key_is_a_stream_error():
    setup = registry.get("modbus")
    book = make_book("modbus", seeds=(10,))
    decoder = RecordDecoder(setup.reference_graph(),
                            key_resolver=lambda key_id: book.get(key_id).request_graph)
    with pytest.raises(StreamError, match="unknown key"):
        decoder.feed(encode_rotation("not-registered"))


def test_local_rotate_refuses_with_buffered_bytes():
    setup = registry.get("modbus")
    decoder = RecordDecoder(setup.reference_graph())
    decoder.feed(b"\x00\x00")  # half a record header
    with pytest.raises(StreamError, match="buffered"):
        decoder.rotate_to(setup.reference_graph())


# ---------------------------------------------------------------------------
# session-level rotation (in-process transport)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ["modbus", "http", "dns", "mqtt"])
def test_sessions_survive_three_rotations_in_process(protocol, specialize=False):
    async def scenario():
        keys = [derive_session_key(protocol, passes=1, seed=seed)
                for seed in (10, 20, 30, 40)]
        capture = Capture()
        server = ObfuscatedServer(protocol, plan_book=PlanBook(keys),
                                  capture=capture, capture_received=True,
                                  specialize=specialize)
        client = ObfuscatedClient(protocol, plan_book=PlanBook(keys),
                                  capture=capture, specialize=specialize)
        connect_memory(client, server)
        rng = Random(1)
        for key in keys[1:] + [None]:
            for _ in range(3):
                reply = await client.request(request_for(protocol, rng))
                assert reply is not None
            if key is not None:
                await client.rotate(key.key_id)
        await client.close()

        stats = server.completed[0]
        assert stats.error is None
        assert stats.received == 12 and stats.sent == 12
        assert stats.rotations == 3
        assert client.stats.rotations == 3

        # Per-record plan fingerprints: 3 messages under each of the 4 keys,
        # requests tagged with the request-direction fingerprint, responses
        # with the response-direction one.
        client_requests = [record for record in capture
                           if record.direction == "request"
                           and record.spans is not None]
        responses = [record for record in capture
                     if record.direction == "response"]
        assert [record.plan_fingerprint for record in client_requests] == [
            key.request_fingerprint for key in keys for _ in range(3)
        ]
        assert [record.plan_fingerprint for record in responses] == [
            key.response_fingerprint for key in keys for _ in range(3)
        ]
        # The sniffer-view copies the server records carry the same tags.
        server_requests = [record for record in capture
                           if record.direction == "request"
                           and record.spans is None]
        assert [record.plan_fingerprint for record in server_requests] == [
            key.request_fingerprint for key in keys for _ in range(3)
        ]
        # Client records and the server's sniffer copies share the session id,
        # so the capture holds two (session, direction) streams, each
        # switching fingerprints three times.
        assert capture.rotation_count() == 2 * 3
        return capture

    capture = run(scenario())
    # JSONL round-trip preserves the per-record fingerprints.
    import os
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rotated.jsonl")
        capture.to_jsonl(path)
        reloaded = Capture.from_jsonl(path)
        assert reloaded.plan_fingerprints() == capture.plan_fingerprints()


@pytest.mark.parametrize("protocol", ["modbus", "http", "dns", "mqtt"])
def test_specialized_sessions_survive_three_rotations_in_process(protocol):
    test_sessions_survive_three_rotations_in_process(protocol, specialize=True)


def test_cold_and_warm_specialized_rotation_sessions_agree():
    """A session whose rotated-to modules compile in the background while it
    runs (module cache cleared) puts the same records on the wire as one
    whose modules were all compiled first, and ends on the modules."""
    keys = [derive_session_key("http", passes=2, seed=seed)
            for seed in (91, 92, 93)]
    last = keys[-1]

    async def landed(graph):
        poll = module_poll(graph)
        deadline = time.monotonic() + 60
        while poll() is None:
            assert time.monotonic() < deadline, "the background compile never landed"
            await asyncio.sleep(0.005)

    async def scenario(warm: bool):
        clear_module_cache()
        if warm:
            for key in keys:
                cached_module(key.request_graph, specialize=True)
                cached_module(key.response_graph, specialize=True)
        # Without spans, which always come from the interpreted tier, both
        # sides serialize through the codecs' own tier.
        capture = Capture()
        server = ObfuscatedServer("http", plan_book=PlanBook(keys), seed=3,
                                  capture=capture, capture_received=True,
                                  record_spans=False, specialize=True)
        client = ObfuscatedClient("http", plan_book=PlanBook(keys), seed=4,
                                  capture=capture, record_spans=False,
                                  specialize=True)
        connect_memory(client, server)
        rng = Random(5)
        for key in keys[1:] + [None]:
            for _ in range(4):
                assert await client.request(request_for("http", rng)) is not None
            if key is not None:
                await client.rotate(key.key_id)
        await landed(last.request_graph)
        await landed(last.response_graph)
        assert await client.request(request_for("http", rng)) is not None
        # The client's codecs of the last key serve on the compiled modules.
        tiers = (client._request_serializer.module is not None,
                 client._pump._decoder._parser.module is not None)
        await client.close()
        assert server.completed[0].error is None
        return [(record.direction, record.data, record.plan_fingerprint)
                for record in capture.records], tiers

    cold, cold_tiers = run(scenario(warm=False))
    # Each key's two graphs missed once: their first messages ran interpreted.
    assert module_cache_stats()["misses"] == 2 * len(keys)
    warm, warm_tiers = run(scenario(warm=True))
    clear_module_cache()
    assert len(cold) == 3 * 13  # request, its sniffer copy, response
    assert cold == warm
    assert cold_tiers == warm_tiers == (True, True)


def test_sessions_survive_three_rotations_over_tcp():
    async def scenario():
        keys = [derive_session_key("modbus", passes=1, seed=seed)
                for seed in (50, 60, 70, 80)]
        capture = Capture()
        server = ObfuscatedServer("modbus", plan_book=PlanBook(keys))
        host, port = await server.start_tcp()
        client = ObfuscatedClient("modbus", plan_book=PlanBook(keys),
                                  capture=capture)
        await client.connect_tcp(host, port)
        rng = Random(7)
        transaction = 1
        for key in keys[1:] + [None]:
            for _ in range(2):
                request = modbus.realistic_request(rng, 3, transaction)
                reply = await client.request(request)
                assert (reply.get("response_transaction_id")
                        == request.get("request_transaction_id"))
                transaction += 1
            if key is not None:
                await client.rotate(key.key_id)
        await client.close()
        await server.stop()
        stats = server.completed[0]
        assert stats.error is None
        assert stats.rotations == 3
        assert stats.received == 8 and stats.sent == 8
        fingerprints = [record.plan_fingerprint for record in capture
                        if record.direction == "request"]
        assert fingerprints == [key.request_fingerprint
                                for key in keys for _ in range(2)]

    run(scenario())


def test_rotation_requires_record_framing_and_a_book():
    async def scenario():
        keys = [derive_session_key("modbus", passes=0, seed=1)]
        # modbus is self-framing, but a plan book forces record framing.
        server = ObfuscatedServer("modbus", plan_book=PlanBook(keys))
        assert server.endpoint.request_framing == "record"
        with pytest.raises(StreamError, match="record framing"):
            ObfuscatedServer("modbus", plan_book=PlanBook(keys), framing="native")
        bookless = connect_memory(
            ObfuscatedClient("modbus"), ObfuscatedServer("modbus"))
        with pytest.raises(StreamError, match="plan book"):
            await bookless.rotate("anything")
        await bookless.close()

    run(scenario())


def test_rotate_refuses_with_an_unanswered_request():
    """An in-flight reply would be serialized under the old key: guard it."""
    async def scenario():
        keys = [derive_session_key("modbus", passes=1, seed=seed)
                for seed in (5, 6)]
        client = ObfuscatedClient("modbus", plan_book=PlanBook(keys))
        connect_memory(client, ObfuscatedServer("modbus", plan_book=PlanBook(keys)))
        await client.send(modbus.realistic_request(Random(1), 3, 1))
        with pytest.raises(StreamError, match="unanswered request"):
            await client.rotate(keys[1].key_id)
        # After draining the reply the rotation proceeds.
        assert await client.receive() is not None
        await client.rotate(keys[1].key_id)
        reply = await client.request(modbus.realistic_request(Random(2), 3, 2))
        assert reply is not None
        await client.close()

    run(scenario())


def test_one_way_flows_rotate_with_the_quiescence_guard_released():
    """Sink sessions (no replies) rotate via require_quiescence=False."""
    async def scenario():
        keys = [derive_session_key("modbus", passes=1, seed=seed)
                for seed in (5, 6)]
        server = ObfuscatedServer("modbus", plan_book=PlanBook(keys),
                                  responder=None)
        client = connect_memory(
            ObfuscatedClient("modbus", plan_book=PlanBook(keys)), server)
        rng = Random(9)
        await client.send(modbus.realistic_request(rng, 3, 1))
        with pytest.raises(StreamError, match="unanswered"):
            await client.rotate(keys[1].key_id)
        await client.rotate(keys[1].key_id, require_quiescence=False)
        await client.send(modbus.realistic_request(rng, 3, 2))
        await client.close()
        stats = server.completed[0]
        assert stats.error is None
        assert stats.received == 2 and stats.rotations == 1

    run(scenario())


def test_rotating_to_an_unregistered_key_fails_client_side():
    async def scenario():
        keys = [derive_session_key("modbus", passes=1, seed=5)]
        client = ObfuscatedClient("modbus", plan_book=PlanBook(keys))
        connect_memory(client, ObfuscatedServer("modbus", plan_book=PlanBook(keys)))
        with pytest.raises(KeyError, match="not-there"):
            await client.rotate("not-there")
        await client.close()

    run(scenario())


# ---------------------------------------------------------------------------
# plan books and session keys
# ---------------------------------------------------------------------------


def test_session_key_from_plans_matches_derive():
    derived = derive_session_key("modbus", passes=2, seed=9)
    setup = registry.get("modbus")
    request_plan = Obfuscator(seed=9).obfuscate(
        setup.reference_graph("request"), 2).plan()
    response_plan = Obfuscator(seed=10).obfuscate(
        setup.reference_graph("response"), 2).plan()
    rebuilt = SessionKey.from_plans(setup, request_plan, response_plan)
    assert rebuilt.key_id == derived.key_id
    assert rebuilt.request_fingerprint == derived.request_fingerprint
    assert rebuilt.response_fingerprint == derived.response_fingerprint


def test_session_key_plan_file_exchange_round_trip():
    """The key-distribution path: plans travel as files, key ids agree."""
    setup = registry.get("dns")
    request_plan = Obfuscator(seed=21).obfuscate(
        setup.reference_graph("request"), 1).plan()
    response_plan = Obfuscator(seed=22).obfuscate(
        setup.reference_graph("response"), 1).plan()
    shipped_request = load_plan_text(dump_plan(request_plan))
    shipped_response = load_plan_text(dump_plan(response_plan))
    local = SessionKey.from_plans(setup, request_plan, response_plan)
    remote = SessionKey.from_plans(setup, shipped_request, shipped_response)
    assert remote.key_id == local.key_id
    assert remote.request_fingerprint == local.request_fingerprint


def test_single_direction_protocols_alias_both_directions():
    key = derive_session_key("mqtt", passes=1, seed=3)
    assert key.response_graph is key.request_graph
    assert key.response_fingerprint == key.request_fingerprint


def test_plan_book_rejects_duplicate_keys_and_reports_known_ids():
    key = derive_session_key("modbus", passes=1, seed=2)
    book = PlanBook([key])
    with pytest.raises(StreamError, match="already holds"):
        book.add(key)
    assert key.key_id in book
    assert book.key_ids() == (key.key_id,)
    with pytest.raises(KeyError, match=key.key_id):
        book.get("missing")


def test_two_direction_protocols_require_both_plans():
    setup = registry.get("modbus")
    request_plan = Obfuscator(seed=1).obfuscate(
        setup.reference_graph("request"), 1).plan()
    with pytest.raises(StreamError, match="response direction"):
        SessionKey.from_plans(setup, request_plan)


# ---------------------------------------------------------------------------
# rotated captures feed the resilience experiment end-to-end
# ---------------------------------------------------------------------------


def test_run_resilience_scores_a_rotated_capture():
    async def record_rotated_traffic() -> Capture:
        keys = [derive_session_key("modbus", passes=1, seed=seed)
                for seed in (5, 6, 7, 8)]
        capture = Capture()
        server = ObfuscatedServer("modbus", plan_book=PlanBook(keys),
                                  capture=capture)
        client = ObfuscatedClient("modbus", plan_book=PlanBook(keys),
                                  capture=capture)
        connect_memory(client, server)
        rng = Random(3)
        transaction = 1
        for key in keys[1:] + [None]:
            for _ in range(4):
                await client.request(
                    modbus.realistic_request(rng, 3, transaction))
                transaction += 1
            if key is not None:
                await client.rotate(key.key_id)
        await client.close()
        return capture

    capture = run(record_rotated_traffic())
    assert capture.rotation_count() == 6  # both tagged streams rotate 3×
    report = run_resilience(capture=capture, passes_levels=(1,))
    assert report.protocol == "modbus"
    assert 0.0 <= report.plain.boundary_f1 <= 1.0
    assert 1 in report.obfuscated


def test_run_resilience_rotated_scenario_changes_the_trace():
    static = run_resilience(protocol="modbus", passes_levels=(1,), seed=0)
    rotated = run_resilience(protocol="modbus", passes_levels=(1,), seed=0,
                             rotations=3)
    # The plain trace is identical; the obfuscated trace now mixes dialects.
    assert static.plain.boundary_f1 == rotated.plain.boundary_f1
    assert static.obfuscated[1] != rotated.obfuscated[1]
    with pytest.raises(ValueError, match="negative"):
        run_resilience(protocol="modbus", rotations=-1)
