"""Resource governance: budgets, overload detection, deterministic shedding.

Covers the PR 8 layer end to end: :class:`ResourceBudget` profiles enforced
inside the decoders and session pumps (typed :class:`BudgetExceeded`
violations, validated *before* allocation where the wire format allows it),
the :class:`LoadGovernor` state machine with its deterministic
pause-the-heaviest rebalancing, busy/retry-after admission shedding that a
resilient client retries through, and transport-level backpressure over the
flow-limited memory pipe — including the proxy propagating a slow downstream
all the way back to the origin server.
"""

from __future__ import annotations

import asyncio
from random import Random

import pytest

from repro.core.boundary import Boundary
from repro.core.builder import build_graph, bytes_field, remaining_bytes, sequence, uint
from repro.core.errors import BudgetExceeded, StreamError
from repro.net import (
    BusyEvent,
    FaultPlan,
    GovernanceError,
    LoadGovernor,
    ObfuscatedClient,
    ObfuscatedProxy,
    ObfuscatedServer,
    RecordDecoder,
    ResourceBudget,
    RetryPolicy,
    ServerBusy,
    TimeoutConfig,
    VirtualClock,
    connect_memory,
    encode_busy,
    encode_record,
    memory_pipe,
)
from repro.net.framing import BUSY_SENTINEL, frame_payload
from repro.net.session import _MessagePump
from repro.protocols import mqtt, registry
from repro.wire import WireCodec
from repro.wire.serializer import Serializer
from repro.wire.streaming import StreamingDecoder


def run(coroutine):
    return asyncio.run(coroutine)


def virtual(coroutine_factory):
    """Drive a clock-taking scenario to completion on a fresh VirtualClock."""
    clock = VirtualClock()

    async def scenario():
        return await clock.run(coroutine_factory(clock))

    return asyncio.run(scenario())


def modbus_payloads(count: int, *, seed: int = 0) -> list[bytes]:
    """``count`` serialized modbus requests (small, self-framing messages)."""
    setup = registry.get("modbus")
    graph = setup.reference_graph("request")
    serializer = Serializer(graph, rng=Random(seed))
    rng = Random(seed + 1)
    return [serializer.serialize(setup.message_generator(rng))
            for _ in range(count)]


# ---------------------------------------------------------------------------
# budget profiles
# ---------------------------------------------------------------------------


class TestResourceBudget:
    def test_profiles_and_validation(self):
        strict = ResourceBudget.strict()
        assert strict.max_stream_bytes == 1 << 16
        assert strict.max_declared_bytes == 1 << 13
        assert ResourceBudget.unbounded().max_stream_bytes is None
        assert ResourceBudget.standard() == ResourceBudget()
        with pytest.raises(GovernanceError):
            ResourceBudget(max_stream_bytes=0)
        with pytest.raises(GovernanceError):
            ResourceBudget(max_pending_messages=-5)

    def test_json_round_trip_and_fingerprint(self):
        strict = ResourceBudget.strict()
        assert ResourceBudget.from_json(strict.to_json()) == strict
        assert strict.fingerprint == ResourceBudget.strict().fingerprint
        assert strict.fingerprint != ResourceBudget.standard().fingerprint
        with pytest.raises(GovernanceError):
            ResourceBudget.from_dict({"max_stream_bytes": 1, "bogus": 2})
        with pytest.raises(GovernanceError):
            ResourceBudget.from_json("[1, 2]")

    def test_describe_marks_disabled_limits(self):
        text = ResourceBudget(max_stream_bytes=None).describe()
        assert "stream=∞" in text
        assert "pending_messages=1024" in text


# ---------------------------------------------------------------------------
# decoder-level enforcement
# ---------------------------------------------------------------------------


class TestRecordDecoderBudgets:
    def graph(self):
        return registry.get("modbus").reference_graph("request")

    def test_declaration_alone_condemns_the_record(self):
        # The pre-allocation property: the forged 4-byte header is rejected
        # the moment it arrives — no payload byte is ever buffered toward it.
        decoder = RecordDecoder(self.graph(),
                                budget=ResourceBudget(max_declared_bytes=1024))
        with pytest.raises(BudgetExceeded) as err:
            decoder.feed((4096).to_bytes(4, "big"))
        assert err.value.resource == "record_bytes"
        assert err.value.actual == 4096
        assert decoder.buffered <= 4  # only the header itself

    def test_budget_supplies_the_record_limit(self):
        decoder = RecordDecoder(self.graph(), budget=ResourceBudget.strict())
        assert decoder.max_record_size == 1 << 13
        with pytest.raises(BudgetExceeded):
            decoder.feed((1 << 20).to_bytes(4, "big"))

    def test_record_limit_must_stay_below_the_control_sentinels(self):
        with pytest.raises(StreamError, match="^max_declared_bytes must be in"):
            RecordDecoder(self.graph(),
                          budget=ResourceBudget(max_declared_bytes=BUSY_SENTINEL))
        with pytest.raises(GovernanceError):
            ResourceBudget(max_declared_bytes=0)

    def test_stream_bytes_cap_on_one_feed(self):
        decoder = RecordDecoder(self.graph(), budget=ResourceBudget.strict())
        with pytest.raises(BudgetExceeded) as err:
            decoder.feed(b"\x00" * ((1 << 16) + 1))
        assert err.value.resource == "stream_bytes"

    def test_steps_per_feed_bounds_decode_work(self):
        budget = ResourceBudget(max_steps_per_feed=4)
        decoder = RecordDecoder(self.graph(), budget=budget)
        chunk = b"".join(encode_record(payload)
                         for payload in modbus_payloads(6))
        with pytest.raises(BudgetExceeded) as err:
            decoder.feed(chunk)
        assert err.value.resource == "decode_steps"
        # A fresh feed gets a fresh work allowance: per-feed, not per-stream.
        decoder = RecordDecoder(self.graph(), budget=budget)
        for payload in modbus_payloads(6):
            assert len(decoder.feed(encode_record(payload))) == 1

    def test_busy_control_record_round_trips(self):
        decoder = RecordDecoder(self.graph())
        events = decoder.feed(encode_busy(0.25))
        assert events == [BusyEvent(retry_after=0.25)]
        # Saturating encoding: the hint caps at the 16-bit millisecond field.
        events = decoder.feed(encode_busy(120.0))
        assert events == [BusyEvent(retry_after=65.535)]


class TestStreamingDecoderBudgets:
    def test_stream_bytes_cap(self):
        graph = registry.get("modbus").reference_graph("request")
        decoder = StreamingDecoder(graph, budget=ResourceBudget.strict())
        with pytest.raises(BudgetExceeded) as err:
            decoder.feed(b"\x00" * ((1 << 16) + 1))
        assert err.value.resource == "stream_bytes"
        # Refused before buffering: the decoder's buffer holds none of the chunk.
        assert decoder.buffered == 0
        assert len(decoder._buffer) == 0

    def test_declared_bytes_cap_under_native_framing(self):
        # The MBAP length field declares 65535 payload bytes: the strict
        # budget refuses the declaration with the 7-byte header alone, before
        # any payload byte arrives.
        graph = registry.get("modbus").reference_graph("request")
        decoder = StreamingDecoder(graph, budget=ResourceBudget.strict())
        with pytest.raises(BudgetExceeded) as err:
            decoder.feed(bytes.fromhex("00010000ffff01"))
        assert err.value.resource == "declared_bytes"
        assert err.value.limit == 8192
        assert err.value.actual == 65535
        assert err.value.node == "request_payload"
        assert err.value.message_index == 0

    def test_declared_bytes_cap_on_whole_buffered_message(self):
        # The whole 9,008-byte PUBLISH arrives in one chunk.  A whole-message
        # parse of it would succeed, so the cap must still refuse its
        # 9,005-byte remaining-length declaration, as it does on a drip.
        graph = registry.get("mqtt").reference_graph("request")
        data = WireCodec(graph, seed=0).serialize(
            mqtt.build_publish("t/x", b"z" * 9000)
        )
        assert len(data) == 9008
        decoder = StreamingDecoder(graph, budget=ResourceBudget.strict())
        with pytest.raises(BudgetExceeded) as err:
            decoder.feed(data)
        assert err.value.resource == "declared_bytes"
        assert err.value.limit == 8192
        assert err.value.actual == 9005
        assert err.value.node == "mqtt_body"
        assert err.value.message_index == 0

    @pytest.mark.parametrize("shape", ["terminal", "sequence", "mirrored"])
    @pytest.mark.parametrize("drip", [False, True])
    def test_declared_bytes_cap_at_every_length_use(self, shape, drip):
        # The 2-byte field ``n`` declares the length of ``body``: a LENGTH-
        # bounded terminal, a LENGTH-bounded sequence, or a mirrored LENGTH-
        # bounded terminal.  A declaration over the cap is refused with the
        # two header bytes alone, fed whole or one at a time.
        if shape == "sequence":
            body = sequence("body", [uint("tag", 1), remaining_bytes("rest")],
                            boundary=Boundary.length("n"))
        else:
            body = bytes_field("body", Boundary.length("n"))
            body.mirrored = shape == "mirrored"
        graph = build_graph(sequence("root", [uint("n", 2), body]), "declared")
        decoder = StreamingDecoder(graph, budget=ResourceBudget.strict())
        assert len(decoder.feed(b"\x00\x03abc")) == 1
        header = (9000).to_bytes(2, "big")
        chunks = [header[:1], header[1:]] if drip else [header]
        with pytest.raises(BudgetExceeded) as err:
            for chunk in chunks:
                decoder.feed(chunk)
        assert err.value.resource == "declared_bytes"
        assert err.value.node == "body"
        assert err.value.limit == 8192
        assert err.value.actual == 9000
        assert err.value.message_index == 1

    @pytest.mark.parametrize("decoder_type", [StreamingDecoder, RecordDecoder])
    def test_feed_after_eof_is_refused_before_the_stream_budget(self, decoder_type):
        graph = registry.get("modbus").reference_graph("request")
        decoder = decoder_type(graph, budget=ResourceBudget.strict())
        assert decoder.feed_eof() == []
        # Over the 64 KiB stream cap, then one byte: both are refused, and no
        # budget error latches.
        for size in ((1 << 16) + 1, 1):
            with pytest.raises(StreamError) as err:
                decoder.feed(b"\x00" * size)
            assert type(err.value) is StreamError
            assert str(err.value) == "cannot feed bytes after end-of-stream"


# ---------------------------------------------------------------------------
# the session pump
# ---------------------------------------------------------------------------


class TestMessagePump:
    def test_pending_messages_budget(self):
        async def scenario():
            graph = registry.get("modbus").reference_graph("request")
            reader = asyncio.StreamReader()
            decoder = RecordDecoder(graph)
            pump = _MessagePump(
                reader, decoder,
                budget=ResourceBudget(max_pending_messages=4))
            chunk = b"".join(encode_record(payload)
                             for payload in modbus_payloads(6))
            reader.feed_data(chunk)
            reader.feed_eof()
            with pytest.raises(BudgetExceeded) as err:
                await pump.next()
            assert err.value.resource == "pending_messages"
            # One burst chunk parks all six decoded messages before delivery.
            assert err.value.actual == 6

        run(scenario())

    def test_peak_buffered_lands_in_stats(self):
        async def scenario():
            from repro.net.session import SessionStats

            graph = registry.get("modbus").reference_graph("request")
            reader = asyncio.StreamReader()
            stats = SessionStats("pump-test")
            pump = _MessagePump(reader, RecordDecoder(graph), stats=stats)
            payloads = modbus_payloads(3)
            reader.feed_data(b"".join(encode_record(p) for p in payloads))
            reader.feed_eof()
            seen = 0
            while await pump.next() is not None:
                seen += 1
            assert seen == 3
            assert stats.peak_buffered == sum(len(p) for p in payloads)

        run(scenario())


# ---------------------------------------------------------------------------
# the load governor
# ---------------------------------------------------------------------------


class TestLoadGovernor:
    def test_validation(self):
        with pytest.raises(GovernanceError):
            LoadGovernor(low_bytes=0)
        with pytest.raises(GovernanceError):
            LoadGovernor(low_bytes=100, high_bytes=50)
        with pytest.raises(GovernanceError):
            LoadGovernor(low_sessions=5, high_sessions=2)
        with pytest.raises(GovernanceError):
            LoadGovernor(retry_after=-1.0)

    def test_states_follow_the_byte_watermarks(self):
        governor = LoadGovernor(low_bytes=100, high_bytes=1000)
        a = governor.register("a")
        b = governor.register("b")
        assert governor.state == "healthy"
        a.update(80)
        assert governor.state == "healthy"
        b.update(90)  # aggregate 170 crosses low watermark
        assert governor.state == "degraded"
        # The heaviest session is paused until the rest fits under low_bytes.
        assert b.paused and not a.paused
        b.update(950)  # aggregate crosses the high watermark
        assert governor.state == "shedding"
        assert governor.should_shed()
        b.update(0)
        a.update(0)
        assert governor.state == "healthy"
        assert not a.paused and not b.paused
        assert governor.transitions == 3  # healthy→degraded→shedding→healthy
        assert governor.counters()["peak_aggregate"] == 1030

    def test_session_watermarks(self):
        governor = LoadGovernor(low_sessions=2, high_sessions=3)
        loads = [governor.register(f"s{index}") for index in range(3)]
        assert governor.state == "shedding"
        governor.unregister(loads.pop())
        assert governor.state == "degraded"
        governor.unregister(loads.pop())
        assert governor.state == "healthy"

    def test_pause_ranking_is_deterministic(self):
        # Equal buffers: registration order breaks the tie, so the pause set
        # is a pure function of the accounting sequence.
        governor = LoadGovernor(low_bytes=50, high_bytes=1 << 20)
        a = governor.register("a")
        b = governor.register("b")
        a.update(60)
        assert a.paused and not b.paused
        b.update(60)
        assert a.paused and b.paused
        a.update(0)
        assert b.paused and not a.paused
        assert governor.pauses == 2
        assert governor.resumes == 1

    def test_unregister_always_resumes(self):
        governor = LoadGovernor(low_bytes=10, high_bytes=1 << 20)
        load = governor.register("s")
        load.update(50)
        assert load.paused
        governor.unregister(load)
        assert not load.paused
        assert governor.aggregate == 0

    def test_paused_session_blocks_until_resumed(self):
        async def scenario():
            governor = LoadGovernor(low_bytes=10, high_bytes=1 << 20)
            load = governor.register("s")
            load.update(20)
            assert load.paused
            waiter = asyncio.ensure_future(load.readable())
            await asyncio.sleep(0)
            assert not waiter.done()
            load.update(0)  # back under the watermark: read unblocks
            await asyncio.sleep(0)
            assert waiter.done()

        run(scenario())


# ---------------------------------------------------------------------------
# sessions under budgets and governors
# ---------------------------------------------------------------------------


class TestGovernedSessions:
    def test_client_rejects_oversized_response_declaration(self):
        async def scenario():
            (reader, writer), (peer_reader, peer_writer) = memory_pipe()
            client = ObfuscatedClient("modbus", framing="record",
                                      budget=ResourceBudget.strict())
            client.attach(reader, writer)
            peer_writer.write((1 << 20).to_bytes(4, "big"))
            with pytest.raises(BudgetExceeded):
                await client.receive()
            assert client.stats.budget_violations == 1
            assert client.trace.count("budget") == 1

        run(scenario())

    def test_flood_fault_is_caught_by_the_budget(self):
        # Satellite 3: the flood model forges a huge length declaration in
        # the delivered stream; a budgeted server kills only that session,
        # with a typed diagnosis, before buffering toward the promise.
        async def scenario():
            server = ObfuscatedServer("modbus", framing="record",
                                      budget=ResourceBudget.strict())
            client = ObfuscatedClient("modbus", framing="record")
            connect_memory(client, server,
                           request_faults=FaultPlan.flood(0, declared=1 << 20))
            setup = registry.get("modbus")
            with pytest.raises(ConnectionError):
                await client.request(setup.message_generator(Random(0)))
            counters = client._writer.counters  # close() drops the transport
            await client.close()
            stats = server.completed[0]
            assert stats.error is not None
            assert stats.error.startswith("BudgetExceeded")
            assert stats.budget_violations == 1
            assert counters.flooded
            assert counters.injected_bytes == 4

        run(scenario())

    def test_drip_fault_is_survivable(self):
        # Satellite 3: one-byte segments stress the incremental decoders
        # without damaging a byte — the session must simply work.
        async def scenario():
            server = ObfuscatedServer("modbus")
            client = ObfuscatedClient("modbus")
            connect_memory(client, server,
                           request_faults=FaultPlan.drip(seed=5))
            setup = registry.get("modbus")
            request = setup.message_generator(Random(1))
            reply = await client.request(request)
            assert (reply.get("response_payload.function_code")
                    == request.get("request_payload.function_code"))
            counters = client._writer.counters
            assert counters.segments == counters.delivered_bytes
            await client.close()
            assert server.completed[0].error is None

        run(scenario())

    def test_shed_then_retry_succeeds_after_the_load_drains(self):
        # The full admission-control loop on a virtual clock: a shedding
        # server refuses with a typed busy record, the client's retry policy
        # backs off, the load drains, the retried request succeeds.
        def scenario_factory(clock):
            async def scenario(clock=clock):
                governor = LoadGovernor(low_sessions=1, high_sessions=1,
                                        retry_after=0.25)
                server = ObfuscatedServer("modbus", framing="record",
                                          governor=governor)
                setup = registry.get("modbus")
                first = connect_memory(
                    ObfuscatedClient("modbus", framing="record",
                                     session_id="first"), server)
                await first.request(setup.message_generator(Random(0)))
                assert governor.state == "shedding"

                second = ObfuscatedClient(
                    "modbus", framing="record", session_id="second",
                    clock=clock,
                    retry=RetryPolicy(attempts=3, base_delay=1.0, jitter=0.0,
                                      seed=7),
                    timeouts=TimeoutConfig(drain=1.0))
                connect_memory(second, server)

                async def drain_first():
                    await clock.sleep(0.5)
                    await first.close()

                closer = asyncio.ensure_future(drain_first())
                reply = await second.request(setup.message_generator(Random(1)))
                await closer
                await second.close()
                assert reply is not None
                assert governor.sheds == 1
                assert governor.state == "healthy"
                assert second.stats.sheds == 1
                assert second.stats.retries == 1
                assert second.trace.count("busy") == 1
                shed_entries = [stats for stats in server.completed
                                if stats.sheds]
                assert len(shed_entries) == 1
                assert shed_entries[0].error.startswith("ServerBusy")
                # The governor publishes into the server's trace.
                assert server.trace.count("shed") == 1

            return scenario(clock)

        virtual(scenario_factory)

    def test_server_busy_is_a_retryable_connection_error(self):
        exc = ServerBusy(0.25)
        assert isinstance(exc, ConnectionError)
        assert exc.retry_after == 0.25
        assert "retry after 0.25s" in str(exc)


# ---------------------------------------------------------------------------
# end-to-end backpressure
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_memory_pipe_flow_control_bounds_in_flight_bytes(self):
        async def scenario():
            (_, writer), (reader, _) = memory_pipe(limit=64)
            total = 0

            async def produce():
                nonlocal total
                for _ in range(50):
                    writer.write(b"x" * 16)
                    total += 16
                    await writer.drain()
                writer.write_eof()

            async def consume():
                received = 0
                while True:
                    chunk = await reader.read(8)
                    if not chunk:
                        return received
                    received += len(chunk)
                    await asyncio.sleep(0)

            _, received = await asyncio.gather(produce(), consume())
            assert received == total == 800
            assert writer.drain_waits > 0
            # Write-then-drain overshoots by at most one write.
            assert writer.peak_in_flight <= 64 + 16

        run(scenario())

    def test_proxy_propagates_downstream_backpressure_upstream(self):
        # Satellite 4: a slow reading client throttles the proxy's
        # client-facing writer, which stops the response pump from reading
        # upstream, which fills the upstream pipe and blocks the origin
        # server's drain — bounded in-flight bytes at every hop, no
        # unbounded buffering anywhere in the bridge.
        async def scenario():
            limit = 64
            messages = 16
            setup = registry.get("modbus")
            server = ObfuscatedServer(setup, seed=1)
            proxy = ObfuscatedProxy(setup, seed=1)

            (client_reader, client_writer), \
                (proxy_client_reader, proxy_client_writer) = memory_pipe(limit)
            (proxy_up_reader, proxy_up_writer), \
                (server_reader, server_writer) = memory_pipe(limit)

            server_task = asyncio.ensure_future(
                server.serve_session(server_reader, server_writer))
            bridge_task = asyncio.ensure_future(
                proxy.bridge(proxy_client_reader, proxy_client_writer,
                             proxy_up_reader, proxy_up_writer))

            requests = [setup.message_generator(Random(10))
                        for _ in range(messages)]
            serializer = Serializer(setup.reference_graph("request"),
                                    rng=Random(2))
            max_frame = 0

            async def send_requests():
                nonlocal max_frame
                for request in requests:
                    frame = frame_payload(serializer.serialize(request),
                                          proxy.listen.request_framing)
                    max_frame = max(max_frame, len(frame))
                    client_writer.write(frame)
                    await client_writer.drain()
                client_writer.write_eof()

            async def read_replies_slowly():
                # Bounded warm-up stall: let the pipeline back up against the
                # unread client edge so the pressure has to travel the whole
                # bridge, then trickle — the consumer always resumes, so the
                # stall cannot deadlock.
                for _ in range(400):
                    await asyncio.sleep(0)
                decoder = StreamingDecoder(setup.reference_graph("response"))
                replies = []
                while True:
                    chunk = await client_reader.read(4)  # a trickling consumer
                    await asyncio.sleep(0)
                    if not chunk:
                        replies += decoder.feed_eof()
                        return replies
                    replies += decoder.feed(chunk)

            _, replies = await asyncio.gather(send_requests(),
                                              read_replies_slowly())
            await asyncio.gather(server_task, bridge_task)

            assert len(replies) == messages
            stats = proxy.completed[0]
            assert stats.requests == messages
            assert stats.responses == messages
            assert stats.error is None
            # Backpressure engaged at the slow edge and reached the origin.
            assert proxy_client_writer.drain_waits > 0
            assert server_writer.drain_waits > 0
            # Every hop's in-flight bytes stayed inside window + one frame.
            for hop in (proxy_client_writer, server_writer, client_writer,
                        proxy_up_writer):
                assert hop.peak_in_flight <= limit + max(max_frame, 16), hop

        run(scenario())
