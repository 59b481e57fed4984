"""Asyncio obfuscated sessions: servers, clients, proxies, concurrency.

Runs over the in-process duplex transport (no sockets) except for one
explicit TCP round-trip; every test drives real session coroutines through
the same codepaths as the benchmarks and the live example.
"""

from __future__ import annotations

import asyncio
from random import Random

import pytest

from repro.net import (
    Capture,
    ObfuscatedClient,
    ObfuscatedProxy,
    ObfuscatedServer,
    SessionKey,
    connect_memory,
    memory_pipe,
)
from repro.protocols import mqtt, registry
from repro.transforms.engine import Obfuscator


def run(coroutine):
    return asyncio.run(coroutine)


def obfuscated_graphs(key: str, passes: int, *, seed: int = 0):
    """(request graph, response graph) of a protocol at one obfuscation level."""
    setup = registry.get(key)
    request = Obfuscator(seed=seed).obfuscate(setup.graph_factory(), passes).graph
    if setup.response_graph_factory is not None:
        response = Obfuscator(seed=seed + 1).obfuscate(
            setup.response_graph_factory(), passes).graph
    else:
        response = request
    return request, response


# ---------------------------------------------------------------------------
# request/response semantics per protocol
# ---------------------------------------------------------------------------


def test_modbus_session_echoes_function_code():
    async def scenario():
        server = ObfuscatedServer("modbus")
        client = connect_memory(ObfuscatedClient("modbus"), server)
        rng = Random(1)
        setup = registry.get("modbus")
        for _ in range(5):
            request = setup.message_generator(rng)
            reply = await client.request(request)
            assert (reply.get("response_payload.function_code")
                    == request.get("request_payload.function_code"))
            assert (reply.get("response_transaction_id")
                    == request.get("request_transaction_id"))
        await client.close()
        assert server.completed[0].received == 5
        assert server.completed[0].sent == 5
        assert server.completed[0].error is None

    run(scenario())


def test_dns_session_answers_every_question():
    async def scenario():
        server = ObfuscatedServer("dns")
        client = connect_memory(ObfuscatedClient("dns"), server)
        setup = registry.get("dns")
        request = setup.message_generator(Random(2))
        reply = await client.request(request)
        assert reply.get("response_id") == request.get("query_id")
        assert (reply.list_length("response_answers")
                == request.list_length("query_questions"))
        await client.close()

    run(scenario())


def test_http_session_uses_record_framing_and_replies():
    async def scenario():
        server = ObfuscatedServer("http")
        client = connect_memory(ObfuscatedClient("http"), server)
        assert client.endpoint.request_framing == "record"
        assert server.endpoint.response_framing == "record"
        from repro.protocols import http

        request = http.build_request(
            "POST", "/api/v1/items",
            headers=[("Host", "example.com"), ("X-Request-Id", "token-1234567890")],
            body=b"alpha bravo",
        )
        reply = await client.request(request)
        assert reply.get("status_code") == "201"
        names = [
            reply.get(f"response_headers[{i}].response_header_name")
            for i in range(reply.list_length("response_headers"))
        ]
        assert "X-Request-Id" in names
        await client.close()

    run(scenario())


def test_mqtt_broker_session():
    async def scenario():
        server = ObfuscatedServer("mqtt")
        client = connect_memory(ObfuscatedClient("mqtt"), server)
        # CONNECT is absorbed (no CONNACK in the modelled families).
        await client.send(mqtt.build_connect("sensor-01"))
        # PUBLISH comes back as the broker's QoS-0 delivery.
        reply = await client.request(
            mqtt.build_publish("factory/line", b"21.5", qos=1, packet_id=7))
        assert reply.get("packet_type") == mqtt.PUBLISH_QOS0
        prefix = "mqtt_body.publish_qos0_block"
        assert reply.get(f"{prefix}.publish_qos0_topic") == "factory/line"
        assert reply.get(f"{prefix}.publish_qos0_payload") == b"21.5"
        # PINGREQ is echoed.
        pong = await client.request(mqtt.build_pingreq())
        assert pong.get("packet_type") == mqtt.PINGREQ
        await client.close()
        assert server.completed[0].received == 3
        assert server.completed[0].sent == 2

    run(scenario())


# ---------------------------------------------------------------------------
# obfuscated wires
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key,passes", [("modbus", 3), ("http", 2), ("dns", 1),
                                        ("mqtt", 2)])
def test_obfuscated_session_round_trip(key, passes):
    async def scenario():
        request_graph, response_graph = obfuscated_graphs(key, passes, seed=20)
        server = ObfuscatedServer(key, request_graph=request_graph,
                                  response_graph=response_graph)
        client = connect_memory(
            ObfuscatedClient(key, request_graph=request_graph,
                             response_graph=response_graph),
            server,
        )
        setup = registry.get(key)
        rng = Random(passes)
        for _ in range(4):
            message = setup.message_generator(rng)
            if key == "mqtt" and message.get("packet_type") == mqtt.CONNECT:
                await client.send(message)
            else:
                await client.request(message)
        await client.close()
        assert server.completed[0].error is None
        assert server.completed[0].received == 4

    run(scenario())


# ---------------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------------


def test_many_concurrent_memory_sessions():
    async def scenario():
        server = ObfuscatedServer("modbus")
        setup = registry.get("modbus")

        async def one_session(index):
            client = connect_memory(
                ObfuscatedClient("modbus", session_id=f"c{index}"), server)
            rng = Random(index)
            for _ in range(3):
                await client.request(setup.message_generator(rng))
            await client.close()

        await asyncio.gather(*(one_session(index) for index in range(64)))
        assert len(server.completed) == 64
        assert all(stats.error is None for stats in server.completed)
        assert sum(stats.received for stats in server.completed) == 64 * 3

    run(scenario())


# ---------------------------------------------------------------------------
# TCP transport
# ---------------------------------------------------------------------------


def test_tcp_sessions():
    async def scenario():
        server = ObfuscatedServer("http")
        host, port = await server.start_tcp()
        setup = registry.get("http")

        async def one_session(index):
            client = ObfuscatedClient("http")
            await client.connect_tcp(host, port)
            rng = Random(index)
            for _ in range(2):
                reply = await client.request(setup.message_generator(rng))
                assert reply.get("status_code") in ("200", "201")
            await client.close()

        await asyncio.gather(*(one_session(index) for index in range(8)))
        await server.stop()
        assert len(server.completed) == 8
        assert all(stats.error is None for stats in server.completed)

    run(scenario())


# ---------------------------------------------------------------------------
# sink servers and sniffer-style capture
# ---------------------------------------------------------------------------


def test_sink_server_and_received_capture():
    async def scenario():
        capture = Capture()
        server = ObfuscatedServer("mqtt", responder=None, capture=capture,
                                  capture_received=True)
        client = connect_memory(ObfuscatedClient("mqtt"), server)
        packets = [mqtt.build_connect("probe-7"),
                   mqtt.build_publish("cell/status", b"ok", qos=0)]
        sent = [await client.send(packet) for packet in packets]
        await client.close()
        assert server.completed[0].received == 2
        assert server.completed[0].sent == 0
        # The sniffer view records raw inbound bytes without ground truth.
        assert [record.data for record in capture] == sent
        assert all(not record.has_truth() for record in capture)

    run(scenario())


# ---------------------------------------------------------------------------
# the proxy/gateway
# ---------------------------------------------------------------------------


def test_proxy_bridges_plain_client_to_obfuscated_server():
    async def scenario():
        request_graph, response_graph = obfuscated_graphs("modbus", 2, seed=30)
        capture = Capture()
        server = ObfuscatedServer("modbus", request_graph=request_graph,
                                  response_graph=response_graph, capture=capture)
        proxy = ObfuscatedProxy("modbus",
                                upstream_request_graph=request_graph,
                                upstream_response_graph=response_graph,
                                capture=capture)
        (client_reader, client_writer), (listen_reader, listen_writer) = memory_pipe()
        (up_reader, up_writer), (server_reader, server_writer) = memory_pipe()
        client = ObfuscatedClient("modbus").attach(client_reader, client_writer)
        server_task = asyncio.ensure_future(
            server.serve_session(server_reader, server_writer))
        proxy_task = asyncio.ensure_future(
            proxy.bridge(listen_reader, listen_writer, up_reader, up_writer))
        setup = registry.get("modbus")
        rng = Random(31)
        for _ in range(5):
            request = setup.message_generator(rng)
            reply = await client.request(request)
            assert (reply.get("response_payload.function_code")
                    == request.get("request_payload.function_code"))
        await client.close(wait_server=False)
        await proxy_task
        await server_task
        assert proxy.completed[0].requests == 5
        assert proxy.completed[0].responses == 5
        assert proxy.completed[0].error is None
        # The shared capture saw the obfuscated leg in both directions, with
        # ground truth from whichever endpoint serialized each message.
        assert len(capture) == 10
        assert {record.direction for record in capture} == {"request", "response"}
        assert capture.byte_count() > 0
        assert all(record.logical is not None for record in capture)

    run(scenario())


def test_proxy_capture_records_carry_the_upstream_fingerprint():
    """Proxy records are tagged with the plan in force, as endpoint records are."""

    async def scenario():
        setup = registry.get("modbus")
        key = SessionKey.from_plans(
            setup,
            Obfuscator(seed=50).obfuscate(setup.reference_graph("request"), 2).plan(),
            Obfuscator(seed=51).obfuscate(setup.reference_graph("response"), 2).plan(),
        )
        capture = Capture()
        server = ObfuscatedServer("modbus", request_graph=key.request_graph,
                                  response_graph=key.response_graph,
                                  capture=capture)
        proxy = ObfuscatedProxy("modbus",
                                upstream_request_graph=key.request_graph,
                                upstream_response_graph=key.response_graph,
                                capture=capture)
        (client_reader, client_writer), (listen_reader, listen_writer) = memory_pipe()
        (up_reader, up_writer), (server_reader, server_writer) = memory_pipe()
        client = ObfuscatedClient("modbus").attach(client_reader, client_writer)
        server_task = asyncio.ensure_future(
            server.serve_session(server_reader, server_writer))
        proxy_task = asyncio.ensure_future(
            proxy.bridge(listen_reader, listen_writer, up_reader, up_writer))
        await client.request(setup.message_generator(Random(52)))
        await client.close(wait_server=False)
        await proxy_task
        await server_task
        tags = {record.direction: record.plan_fingerprint for record in capture}
        assert tags == {"request": key.request_fingerprint,
                        "response": key.response_fingerprint}
        assert key.request_fingerprint is not None

    run(scenario())


def test_proxy_over_tcp():
    async def scenario():
        request_graph, response_graph = obfuscated_graphs("http", 1, seed=40)
        server = ObfuscatedServer("http", request_graph=request_graph,
                                  response_graph=response_graph)
        server_host, server_port = await server.start_tcp()
        proxy = ObfuscatedProxy("http",
                                upstream_request_graph=request_graph,
                                upstream_response_graph=response_graph)
        proxy_host, proxy_port = await proxy.start_tcp(server_host, server_port)
        client = ObfuscatedClient("http")
        await client.connect_tcp(proxy_host, proxy_port)
        setup = registry.get("http")
        rng = Random(41)
        for _ in range(3):
            reply = await client.request(setup.message_generator(rng))
            assert reply.get("status_code") in ("200", "201")
        await client.close()
        await proxy.stop()
        await server.stop()
        assert proxy.completed[0].requests == 3

    run(scenario())
