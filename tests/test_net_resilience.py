"""The deterministic session-resilience layer: clocks, deadlines, retries,
breakers, reconnect-with-rotation-resume, graceful drain, teardown races.

Every timing-sensitive scenario runs on a :class:`VirtualClock` — manually
advanced, no real sleeps — so idle reaping, drain deadlines and backoff
schedules are tested flake-free and in microseconds.
"""

from __future__ import annotations

import asyncio
from random import Random

import pytest

from repro.core.errors import StreamError
from repro.net import (
    ChaosSchedule,
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultPlanError,
    ObfuscatedClient,
    ObfuscatedProxy,
    ObfuscatedServer,
    PlanBook,
    ResilienceTrace,
    RetriesExhausted,
    RetryPolicy,
    TimeoutConfig,
    VirtualClock,
    connect_memory,
    derive_session_key,
    memory_pipe,
)
from repro.net.resilience import ResilienceError, retry_operation
from repro.protocols import registry


def run(coroutine):
    return asyncio.run(coroutine)


def virtual(coroutine_factory):
    """Drive a clock-taking scenario to completion on a fresh VirtualClock."""
    clock = VirtualClock()

    async def scenario():
        return await clock.run(coroutine_factory(clock))

    return asyncio.run(scenario())


# ---------------------------------------------------------------------------
# primitives: retry schedules, deadlines, breakers, traces
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_same_seed_replays_the_identical_schedule(self):
        policy = RetryPolicy(attempts=6, base_delay=0.05, seed=42)
        assert policy.delays() == policy.delays()
        assert policy.delays() == policy.reseed(42).delays()

    def test_different_seeds_draw_different_jitter(self):
        base = RetryPolicy(attempts=6, base_delay=0.05, seed=1)
        assert base.delays() != base.reseed(2).delays()

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(attempts=8, base_delay=0.1, multiplier=2.0,
                             max_delay=0.5, jitter=0.0, seed=0)
        assert policy.delays() == (0.1, 0.2, 0.4, 0.5, 0.5, 0.5, 0.5)

    def test_validation(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(attempts=0)
        with pytest.raises(ResilienceError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ResilienceError):
            RetryPolicy(multiplier=0.5)

    def test_retry_operation_exhausts_with_typed_error(self):
        async def scenario(clock):
            calls = []

            async def always_fails():
                calls.append(1)
                raise ConnectionResetError("still down")

            trace = ResilienceTrace()
            with pytest.raises(RetriesExhausted) as err:
                await retry_operation(always_fails,
                                      RetryPolicy(attempts=3, base_delay=1.0,
                                                  jitter=0.0, seed=0),
                                      clock=clock, trace=trace, label="dial")
            assert len(calls) == 3
            assert err.value.attempts == 3
            assert trace.count("retry") == 2
            # The backoff actually elapsed on the virtual clock.
            assert clock.now() == pytest.approx(3.0)

        virtual(scenario)


class TestDeadline:
    def test_expires_on_the_virtual_clock(self):
        async def scenario(clock):
            deadline = Deadline.after(clock, 5.0, operation="probe")
            assert not deadline.expired
            assert deadline.remaining() == pytest.approx(5.0)
            with pytest.raises(DeadlineExceeded) as err:
                await deadline.wait_for(clock.sleep(10.0))
            assert isinstance(err.value, TimeoutError)  # catchable either way
            assert deadline.expired

        virtual(scenario)

    def test_unbounded_deadline_never_expires(self):
        async def scenario(clock):
            deadline = Deadline.after(clock, None)
            assert deadline.remaining() is None
            assert await deadline.wait_for(asyncio.sleep(0, result=7)) == 7

        virtual(scenario)


class TestCircuitBreaker:
    def test_state_machine_trips_half_opens_and_closes(self):
        async def scenario(clock):
            trace = ResilienceTrace()
            breaker = CircuitBreaker(failure_threshold=2, reset_timeout=10.0,
                                     clock=clock, trace=trace)
            assert breaker.allow()
            breaker.record_failure()
            assert breaker.state == "closed" and breaker.allow()
            breaker.record_failure()
            assert breaker.state == "open" and breaker.trips == 1
            with pytest.raises(CircuitOpen):
                breaker.check("dial")
            await clock.advance(10.0)
            assert breaker.allow()          # half-open probe
            assert breaker.state == "half_open"
            breaker.record_failure()        # probe failed: re-open
            assert breaker.state == "open" and breaker.trips == 2
            await clock.advance(10.0)
            assert breaker.allow()
            breaker.record_success()
            assert breaker.state == "closed" and breaker.failures == 0
            assert trace.kinds() == ("breaker_trip", "breaker_half_open",
                                     "breaker_trip", "breaker_half_open",
                                     "breaker_close")

        virtual(scenario)


class TestResilienceTrace:
    def test_json_form_is_deterministic_and_wall_clock_free(self):
        def build():
            trace = ResilienceTrace()
            trace.record("retry", op="request", attempt=1, delay=0.05)
            trace.record("reconnect", reconnects=1)
            trace.record("resume", key_id="k2")
            return trace

        assert build().to_json() == build().to_json()
        assert "time" not in build().to_json()
        assert build().kinds() == ("retry", "reconnect", "resume")


# ---------------------------------------------------------------------------
# connection-level faults: cut and stall
# ---------------------------------------------------------------------------


class TestConnectionFaults:
    def test_cut_resets_the_peer_not_a_clean_eof(self):
        async def scenario():
            from repro.net.faults import FaultyWriter

            (reader, _), (_, writer) = memory_pipe()
            faulty = FaultyWriter(writer, FaultPlan.cut(4, seed=1))
            faulty.write(b"0123456789")
            # RST semantics: the reset discards even delivered-but-unread
            # bytes — the peer sees the reset, never a clean EOF.
            with pytest.raises(ConnectionResetError):
                await reader.read(100)
            assert faulty.counters.reset is True
            assert faulty.counters.undelivered_bytes == 6

        run(scenario())

    def test_stall_withholds_bytes_and_the_eof(self):
        async def scenario():
            from repro.net.faults import FaultyWriter

            (reader, _), (_, writer) = memory_pipe()
            faulty = FaultyWriter(writer, FaultPlan.stall(4, seed=1))
            faulty.write(b"0123456789")
            faulty.close()  # the FIN is withheld with everything else
            assert await reader.read(4) == b"0123"
            pending = asyncio.ensure_future(reader.read(100))
            await asyncio.sleep(0)
            assert not pending.done()  # silence, not EOF
            pending.cancel()
            await asyncio.gather(pending, return_exceptions=True)
            assert faulty.counters.stalled is True

        run(scenario())

    def test_new_fault_fields_round_trip_and_are_lossy(self):
        plan = FaultPlan(seed=3, cut_at=40, stall_at=None)
        assert plan.lossy
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert "cut@40" in plan.describe()
        assert "stall@9" in FaultPlan.stall(9).describe()
        with pytest.raises(FaultPlanError):
            FaultPlan(cut_at=-1)


class TestChaosSchedule:
    def test_schedules_are_pure_functions_of_their_fields(self):
        schedule = ChaosSchedule(scenario="cut", seed=11, failures=2)
        clone = ChaosSchedule.from_json(schedule.to_json())
        assert clone == schedule
        assert clone.fingerprint == schedule.fingerprint
        for attempt in (1, 2, 3):
            assert (schedule.plan_for_attempt(attempt)
                    == clone.plan_for_attempt(attempt))
        assert schedule.plan_for_attempt(3) is None  # healed

    def test_scenarios_map_to_the_right_fault_models(self):
        assert ChaosSchedule(scenario="cut", seed=1).plan_for_attempt(1).cut_at
        assert ChaosSchedule(scenario="stall", seed=1).plan_for_attempt(1).stall_at
        loss_cut = ChaosSchedule(scenario="loss_cut", seed=1).plan_for_attempt(1)
        assert loss_cut.cut_at and loss_cut.loss_rate > 0
        flaky = ChaosSchedule(scenario="dial_flaky", seed=1, failures=2)
        assert flaky.plan_for_attempt(1) is None
        assert flaky.dial_fails(1) and flaky.dial_fails(2)
        assert not flaky.dial_fails(3)

    def test_validation(self):
        with pytest.raises(FaultPlanError):
            ChaosSchedule(scenario="earthquake")
        with pytest.raises(FaultPlanError):
            ChaosSchedule(scenario="cut", failures=-1)
        with pytest.raises(FaultPlanError):
            ChaosSchedule.from_dict({"scenario": "cut", "volcano": 1})


# ---------------------------------------------------------------------------
# resilient clients: timeouts, retry/reconnect, rotation resume
# ---------------------------------------------------------------------------


def modbus_requests(count: int, seed: int = 5):
    generator = registry.get("modbus").message_generator
    rng = Random(seed)
    return [generator(rng) for _ in range(count)]


class TestResilientClient:
    def test_idle_read_timeout_diagnoses_a_stalled_response(self):
        async def scenario(clock):
            server = ObfuscatedServer("modbus")
            client = ObfuscatedClient(
                "modbus", clock=clock,
                timeouts=TimeoutConfig(idle_read=2.0, drain=1.0))
            connect_memory(client, server,
                           response_faults=FaultPlan.stall(2, seed=1))
            (request,) = modbus_requests(1)
            with pytest.raises(DeadlineExceeded):
                await client.request(request)
            assert client.stats.timeouts == 1
            assert client.trace.kinds()[-1:] == ("timeout",)
            await client.close()

        virtual(scenario)

    def test_request_retry_reconnects_through_a_cut(self):
        async def scenario(clock):
            server = ObfuscatedServer("modbus")
            client = ObfuscatedClient(
                "modbus", clock=clock,
                retry=RetryPolicy(attempts=3, base_delay=0.5, seed=7),
                timeouts=TimeoutConfig(idle_read=2.0, drain=1.0))
            connect_memory(client, server,
                           request_faults=FaultPlan.cut(15, seed=3))
            replies = [await client.request(message)
                       for message in modbus_requests(4)]
            assert len(replies) == 4
            assert client.stats.reconnects >= 1
            assert client.stats.retries >= 1
            assert client.trace.count("reconnect") == client.stats.reconnects
            await client.close()

        virtual(scenario)

    def test_retries_exhausted_is_typed_and_bounded(self):
        async def scenario(clock):
            server = ObfuscatedServer("modbus")
            client = ObfuscatedClient(
                "modbus", clock=clock,
                retry=RetryPolicy(attempts=2, base_delay=0.25, seed=1),
                timeouts=TimeoutConfig(idle_read=1.0, drain=0.5))
            connect_memory(client, server)

            async def dead_factory():
                raise ConnectionRefusedError("upstream is gone")

            client.set_reconnect(dead_factory)
            # Kill the live transport so the first attempt fails too.
            client._writer.close()
            with pytest.raises(RetriesExhausted):
                await client.request(modbus_requests(1)[0])
            # One request-level retry plus one connect-level retry inside the
            # failed reconnect: both layers account their attempts.
            assert client.stats.retries == 2
            assert client.stats.reconnects == 0
            await client.close()

        virtual(scenario)

    def test_reconnect_resumes_on_the_last_announced_key(self):
        keys = [derive_session_key("modbus", passes=1, seed=seed)
                for seed in (10, 20)]

        async def scenario(clock):
            server = ObfuscatedServer("modbus", plan_book=PlanBook(keys))
            client = ObfuscatedClient(
                "modbus", plan_book=PlanBook(keys), clock=clock,
                retry=RetryPolicy(attempts=3, base_delay=0.5, seed=7),
                timeouts=TimeoutConfig(idle_read=2.0, drain=1.0))
            connect_memory(client, server)
            first, second = modbus_requests(2)
            await client.request(first)
            await client.rotate(keys[1].key_id)
            client._writer.close()  # the transport dies under the session
            reply = await client.request(second)
            assert reply is not None
            await client.close()
            assert client.trace.count("resume") == 1
            resumed = server.completed[-1]
            # The fresh server session followed the re-announced key: one
            # rotation event, and the request decoded under key 2's dialect.
            assert resumed.rotations == 1
            assert resumed.received == 1
            assert resumed.error is None

        virtual(scenario)

    def test_same_seed_replays_an_identical_recovery_trace(self):
        def recover(seed: int) -> str:
            async def scenario(clock):
                server = ObfuscatedServer("modbus")
                client = ObfuscatedClient(
                    "modbus", clock=clock,
                    retry=RetryPolicy(attempts=4, base_delay=0.5, seed=seed),
                    timeouts=TimeoutConfig(idle_read=2.0, drain=1.0))
                connect_memory(client, server,
                               request_faults=FaultPlan.cut(15, seed=3))
                for message in modbus_requests(3):
                    await client.request(message)
                await client.close()
                return client.trace.to_json()

            return virtual(scenario)

        assert recover(9) == recover(9)
        assert recover(9) != recover(10)  # jitter differs → schedule differs


# ---------------------------------------------------------------------------
# teardown races (satellite): double close, cut transports, drain deadlines
# ---------------------------------------------------------------------------


class TestTeardownRaces:
    def test_double_close_is_a_no_op(self):
        async def scenario():
            server = ObfuscatedServer("modbus")
            client = connect_memory(ObfuscatedClient("modbus"), server)
            await client.request(modbus_requests(1)[0])
            await client.close()
            await client.close()  # second close: nothing to do, no error
            assert len(server.completed) == 1

        run(scenario())

    def test_close_on_an_already_cut_transport(self):
        async def scenario():
            server = ObfuscatedServer("modbus")
            client = ObfuscatedClient("modbus")
            connect_memory(client, server,
                           request_faults=FaultPlan.cut(6, seed=2))
            try:
                for message in modbus_requests(3):
                    await client.request(message)
            except (ConnectionError, OSError):
                pass
            await client.close()  # the cut already killed the transport
            await client.close()
            assert client._writer is None

        run(scenario())

    def test_close_drain_is_bounded_against_a_stalled_peer(self):
        async def scenario(clock):
            server = ObfuscatedServer("modbus")
            client = ObfuscatedClient(
                "modbus", clock=clock,
                timeouts=TimeoutConfig(drain=3.0))
            connect_memory(client, server,
                           response_faults=FaultPlan.stall(2, seed=1))
            await client.send(modbus_requests(1)[0])
            started = clock.now()
            await client.close(wait_server=False)
            assert clock.now() - started == pytest.approx(3.0)
            assert client.stats.drain_cancels >= 1
            assert client.trace.count("drain_cancel") >= 1

        virtual(scenario)

    def test_server_stop_drains_then_cancels_stragglers(self):
        async def scenario(clock):
            server = ObfuscatedServer("modbus", clock=clock)
            client = connect_memory(ObfuscatedClient("modbus", clock=clock),
                                    server)
            # A request in flight, the client never closing: the session is
            # mid-conversation when the server stops.
            await client.request(modbus_requests(1)[0])
            await server.stop(drain=True, deadline=2.0)
            assert len(server.completed) == 1
            straggler = server.completed[0]
            assert straggler.drain_cancels == 1
            assert straggler.error.startswith("DrainCancelled")
            assert server.trace.count("drain_cancel") == 1
            # The server no longer admits sessions.
            with pytest.raises(ConnectionError):
                await server.serve_session(*memory_pipe()[0])

        virtual(scenario)

    def test_server_stop_drain_completes_cleanly_when_sessions_finish(self):
        async def scenario(clock):
            server = ObfuscatedServer("modbus", clock=clock)
            client = connect_memory(ObfuscatedClient("modbus", clock=clock),
                                    server)
            await client.request(modbus_requests(1)[0])
            closer = asyncio.ensure_future(client.close())
            await server.stop(drain=True, deadline=5.0)
            await closer
            assert server.completed[0].error is None
            assert server.completed[0].drain_cancels == 0

        virtual(scenario)


# ---------------------------------------------------------------------------
# server-side resilience: idle reaping and admission bounds
# ---------------------------------------------------------------------------


class TestServerResilience:
    def test_idle_sessions_are_reaped_with_a_typed_entry(self):
        async def scenario(clock):
            server = ObfuscatedServer(
                "modbus", clock=clock,
                timeouts=TimeoutConfig(idle_read=4.0))
            client = connect_memory(ObfuscatedClient("modbus", clock=clock),
                                    server)
            await client.request(modbus_requests(1)[0])
            # The client goes silent; the reap deadline fires on the clock.
            await clock.advance(4.0)
            await asyncio.sleep(0)
            assert len(server.completed) == 1
            reaped = server.completed[0]
            assert reaped.timeouts == 1
            assert reaped.error.startswith("DeadlineExceeded: idle-read")
            assert server.trace.count("timeout") == 1

        virtual(scenario)

    def test_max_sessions_bounds_concurrent_admission(self):
        async def scenario():
            server = ObfuscatedServer("modbus", max_sessions=2)
            peak = 0

            async def one_session(index):
                nonlocal peak
                client = connect_memory(
                    ObfuscatedClient("modbus", session_id=f"c{index}"), server)
                for message in modbus_requests(2, seed=index):
                    await client.request(message)
                    peak = max(peak, len(server._active))
                await client.close()

            await asyncio.gather(*(one_session(index) for index in range(6)))
            assert len(server.completed) == 6
            assert all(stats.error is None for stats in server.completed)
            assert peak <= 2

        run(scenario())

    def test_failed_session_set_up_releases_its_admission_slot(self):
        async def scenario():
            # Modbus frames natively, and native framing cannot resync: the
            # decoder is refused after the session took the only slot.
            server = ObfuscatedServer("modbus", resync=True, max_sessions=1)
            for _ in range(2):
                with pytest.raises(StreamError, match="cannot resynchronize"):
                    await asyncio.wait_for(
                        server.serve_session(*memory_pipe()[0]), 1.0)
            assert len(server.completed) == 2
            assert all(stats.error.startswith("StreamError: native framing")
                       for stats in server.completed)
            assert not server._active

        run(scenario())


# ---------------------------------------------------------------------------
# proxy resilience: dial retry, breaker, recorded failures
# ---------------------------------------------------------------------------


class TestProxyResilience:
    def test_failed_upstream_dial_is_recorded_not_silent(self):
        async def scenario():
            proxy = ObfuscatedProxy("modbus",
                                    timeouts=TimeoutConfig(connect=1.0))
            # An upstream nobody listens on: the dial must fail fast, land in
            # completed with the error, and fully close the client connection.
            dead_server = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0)
            port = dead_server.sockets[0].getsockname()[1]
            dead_server.close()
            await dead_server.wait_closed()
            host, proxy_port = await proxy.start_tcp("127.0.0.1", port)
            reader, writer = await asyncio.open_connection(host, proxy_port)
            assert await reader.read(100) == b""  # fully closed, not hung
            writer.close()
            await writer.wait_closed()
            await proxy.stop()
            for _ in range(200):
                if proxy.completed:
                    break
                await asyncio.sleep(0.01)
            assert len(proxy.completed) == 1
            failed = proxy.completed[0]
            assert failed.error is not None
            assert failed.dial_failures == 1
            assert failed.requests == failed.responses == 0
            assert proxy.dial_failures == 1

        run(scenario())

    def test_dial_retry_behind_the_circuit_breaker(self):
        async def scenario(clock):
            breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0,
                                     clock=clock)
            proxy = ObfuscatedProxy(
                "modbus", clock=clock, breaker=breaker,
                retry=RetryPolicy(attempts=3, base_delay=0.5, jitter=0.0,
                                  seed=0))
            stats_entry = None
            with pytest.raises((RetriesExhausted, CircuitOpen)):
                # Port 1 on localhost: nothing listens there.
                await proxy.dial_upstream("127.0.0.1", 1)
            assert breaker.state == "open"
            assert breaker.trips == 1
            assert proxy.dial_failures >= 2
            assert proxy.trace.count("dial_failure") == proxy.dial_failures
            # While open, the next dial is refused without touching the net.
            before = proxy.dial_failures
            with pytest.raises(CircuitOpen):
                await proxy.dial_upstream("127.0.0.1", 1)
            assert proxy.dial_failures == before
            assert stats_entry is None

        virtual(scenario)
