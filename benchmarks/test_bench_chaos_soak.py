"""Chaos-soak suite — resilient sessions under seeded connection-level chaos.

The PR 7 acceptance study: each registry protocol runs request/response
sessions, at several concurrency levels, while a seeded
:class:`~repro.net.faults.ChaosSchedule` makes the transport hostile —
mid-session cuts (RST), indefinite stalls (silence, no EOF), loss composed
with a cut, and flaky re-dials.  Clients carry the full resilience stack
(idle-read deadlines, seeded retry/backoff, reconnect-with-rotation-resume)
on a :class:`~repro.net.resilience.VirtualClock`, so the whole soak runs in
virtual time: no real sleeps, bit-reproducible schedules.

Every cell must end **recovered with a complete audit trail**:

* every request got its reply (the chaos schedule heals after its budgeted
  failures, so a correctly retrying client always finishes);
* the recovery is *accounted*: scenario-specific evidence in the stats
  counters (reconnects for cuts, idle-read timeouts for stalls, dial retries
  for flaky upstreams) and trace events agreeing with the counters;
* every server-side session the chaos killed carries a **typed** diagnosis
  in its stats entry — never a silent drop or an unexplained exception.

Anything else is **undiagnosed** and fails the gate.  Each cell runs twice
and the full recovery record — every client's
:meth:`~repro.net.resilience.ResilienceTrace.to_json`, all counters, the
reply digest — must be byte-identical (the seeded-recovery flakiness guard).

Two companion sections ride along: reconnect-with-rotation-resume (a rotated
session survives a mid-session cut and resumes on the last announced key id)
and the circuit breaker tripping on a dead upstream dial.  Results are
written to ``BENCH_PR7.json`` at the repository root.  Set ``BENCH_QUICK=1``
for the reduced CI smoke configuration.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
from pathlib import Path
from random import Random

from repro.net import (
    ChaosSchedule,
    CircuitBreaker,
    CircuitOpen,
    FaultPlan,
    FaultyWriter,
    ObfuscatedClient,
    ObfuscatedProxy,
    ObfuscatedServer,
    PlanBook,
    RetriesExhausted,
    RetryPolicy,
    TimeoutConfig,
    VirtualClock,
    connect_memory,
    derive_session_key,
    memory_pipe,
)
from repro.net.faults import CHAOS_SCENARIOS
from repro.protocols import registry

QUICK = os.environ.get("BENCH_QUICK", "").lower() not in ("", "0", "false")

#: requests per client session.
MESSAGES = 4 if QUICK else 8
#: concurrent clients against one server, per cell.
CONCURRENCY = (1, 2) if QUICK else (1, 4)
#: byte window of the session in which connection faults land; narrow enough
#: that even the smallest protocol's shortest (quick-mode) session crosses
#: it in both directions — a drawn offset past the stream would mean the
#: fault never fires and the cell has no recovery to audit.
FAULT_WINDOW = (8, 24)
#: hostile connection attempts before the schedule heals the link.
FAILURES = 1

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_PR7.json"

#: error prefixes that count as a *typed* diagnosis on a chaos-killed
#: server session (the audit-trail requirement).
TYPED_ERRORS = ("StreamError", "ConnectionResetError", "ConnectionError",
                "IncompleteReadError", "DeadlineExceeded", "DrainCancelled",
                "OSError")


def _request_messages(setup: registry.ProtocolSetup, rng: Random,
                      count: int) -> list:
    """``count`` generated messages the protocol's responder replies to.

    Some responders model one-way packet types (MQTT CONNECT has no reply in
    this responder, for instance); a request/response soak must only await
    replies that exist.  The probe uses a throwaway rng, so the stream stays
    a pure function of ``rng``'s seed.
    """
    messages = []
    while len(messages) < count:
        message = setup.message_generator(rng)
        if setup.responder(message, Random(0)) is not None:
            messages.append(message)
    return messages


def _chaos_client(setup: registry.ProtocolSetup, server: ObfuscatedServer,
                  schedule: ChaosSchedule, clock: VirtualClock,
                  index: int) -> ObfuscatedClient:
    """One resilient client whose connection attempts follow ``schedule``.

    Attempt 1 is the initial connection; the installed reconnect factory
    numbers re-dials 2, 3, … and threads each attempt's fault plan (or dial
    refusal) from the schedule — the chaos stays hostile across reconnects
    until the schedule heals.
    """
    client = ObfuscatedClient(
        setup, session_id=f"chaos-{schedule.scenario}-{index}", clock=clock,
        retry=RetryPolicy(attempts=schedule.failures + 3, base_delay=0.2,
                          seed=schedule.seed),
        timeouts=TimeoutConfig(idle_read=2.0, drain=1.0),
    )
    stall_side = schedule.scenario == "stall"
    if schedule.scenario == "dial_flaky":
        # The healthy-looking first connection still dies (a deterministic
        # cut) so the flaky re-dial path is actually exercised.
        first_plan = FaultPlan.cut(sum(FAULT_WINDOW) // 2, seed=schedule.seed)
    else:
        first_plan = schedule.plan_for_attempt(1)
    connect_memory(client, server,
                   request_faults=None if stall_side else first_plan,
                   response_faults=first_plan if stall_side else None)
    state = {"attempt": 1}

    async def factory():
        state["attempt"] += 1
        attempt = state["attempt"]
        if schedule.dial_fails(attempt - 1):
            raise ConnectionRefusedError(
                f"chaos schedule refuses dial attempt {attempt}")
        plan = schedule.plan_for_attempt(attempt)
        (reader, writer), (up_reader, up_writer) = memory_pipe()
        client._server_task = asyncio.ensure_future(
            server.serve_session(up_reader, up_writer,
                                 session_id=client.session_id,
                                 fault_plan=plan if stall_side else None))
        if plan is not None and not stall_side:
            writer = FaultyWriter(writer, plan)
        return reader, writer

    return client.set_reconnect(factory)


async def _soak_once(setup: registry.ProtocolSetup, scenario: str,
                     concurrency: int, seed: int,
                     clock: VirtualClock) -> dict:
    """One soak cell: ``concurrency`` chaos clients against one server."""
    server = ObfuscatedServer(setup, seed=1, record_spans=False)
    digest = hashlib.sha256()
    clients = []

    async def drive(index: int) -> dict:
        schedule = ChaosSchedule(scenario=scenario, seed=seed * 100 + index,
                                 failures=FAILURES, fault_window=FAULT_WINDOW,
                                 loss_rate=0.05, segment_size=24)
        client = _chaos_client(setup, server, schedule, clock, index)
        clients.append(client)
        rng = Random(1000 + index)
        replies = []
        for message in _request_messages(setup, rng, MESSAGES):
            replies.append(await client.request(message))
        await client.close()
        stats = client.stats
        return {
            "schedule": schedule.fingerprint,
            "replies": len(replies),
            "reply_digest": hashlib.sha256(
                "\n".join(str(reply) for reply in replies).encode()
            ).hexdigest()[:16],
            "retries": stats.retries,
            "reconnects": stats.reconnects,
            "timeouts": stats.timeouts,
            "drain_cancels": stats.drain_cancels,
            "error": stats.error,
            "trace": client.trace.to_json(),
        }

    results = await asyncio.gather(*(drive(index)
                                     for index in range(concurrency)))
    for result in results:
        digest.update(result["trace"].encode())
    sessions = [{"session": stats.session,
                 "received": stats.received,
                 "error": stats.error}
                for stats in server.completed]
    return {
        "clients": list(results),
        "server_sessions": sessions,
        "trace_digest": digest.hexdigest()[:16],
    }


def _run_soak(setup: registry.ProtocolSetup, scenario: str,
              concurrency: int, seed: int) -> dict:
    clock = VirtualClock()

    async def scenario_main():
        return await clock.run(_soak_once(setup, scenario, concurrency,
                                          seed, clock))

    return asyncio.run(scenario_main())


def _classify(run: dict, scenario: str) -> tuple[str, list[str]]:
    """Verify one soak cell: recovered with full accounting, or undiagnosed."""
    problems: list[str] = []
    for index, client in enumerate(run["clients"]):
        who = f"client {index}"
        if client["replies"] != MESSAGES:
            problems.append(f"{who}: {client['replies']}/{MESSAGES} replies")
        trace = json.loads(client["trace"])
        counts = {kind: sum(1 for event in trace if event["kind"] == kind)
                  for kind in ("retry", "reconnect", "timeout", "drain_cancel")}
        # Trace events and stats counters must tell the same story.
        for kind, stat in (("retry", "retries"), ("reconnect", "reconnects"),
                           ("timeout", "timeouts"),
                           ("drain_cancel", "drain_cancels")):
            if counts[kind] != client[stat]:
                problems.append(
                    f"{who}: trace {kind}={counts[kind]} != stats "
                    f"{stat}={client[stat]}")
        # Scenario-specific evidence: the recovery must be *visible* in the
        # counters, not an accident of the fault never firing.
        if client["reconnects"] < 1:
            problems.append(f"{who}: chaos left no reconnect to account")
        if scenario == "stall" and client["timeouts"] < 1:
            problems.append(f"{who}: stall not diagnosed by idle-read deadline")
        if scenario == "dial_flaky" and client["retries"] < FAILURES:
            problems.append(f"{who}: flaky dials not retried")
    for session in run["server_sessions"]:
        error = session["error"]
        if error is not None and not error.startswith(TYPED_ERRORS):
            problems.append(f"{session['session']}: untyped error {error!r}")
    return ("recovered" if not problems else "undiagnosed"), problems


def _run_matrix() -> list[dict]:
    cells: list[dict] = []
    for key in registry.available():
        setup = registry.get(key)
        for scenario in CHAOS_SCENARIOS:
            for concurrency in CONCURRENCY:
                seed = 7 + len(cells)
                run = _run_soak(setup, scenario, concurrency, seed)
                rerun = _run_soak(setup, scenario, concurrency, seed)
                deterministic = (
                    json.dumps(run, sort_keys=True)
                    == json.dumps(rerun, sort_keys=True))
                outcome, problems = _classify(run, scenario)
                cells.append({
                    "protocol": key,
                    "scenario": scenario,
                    "concurrency": concurrency,
                    "seed": seed,
                    "replies": sum(client["replies"]
                                   for client in run["clients"]),
                    "expected": MESSAGES * concurrency,
                    "reconnects": sum(client["reconnects"]
                                      for client in run["clients"]),
                    "retries": sum(client["retries"]
                                   for client in run["clients"]),
                    "timeouts": sum(client["timeouts"]
                                    for client in run["clients"]),
                    "server_sessions": len(run["server_sessions"]),
                    "trace_digest": run["trace_digest"],
                    "outcome": outcome,
                    "problems": problems,
                    "deterministic": deterministic,
                })
    return cells


# ---------------------------------------------------------------------------
# companion sections
# ---------------------------------------------------------------------------


async def _rotation_resume_once(setup: registry.ProtocolSetup,
                                clock: VirtualClock, *,
                                cut_at: int | None) -> dict:
    """A rotated session under a response-direction cut placed after the
    rotation point; ``cut_at=None`` runs the clean baseline used to aim it."""
    keys = [derive_session_key(setup, passes=1, seed=40 + offset)
            for offset in (0, 1)]
    server = ObfuscatedServer(setup, plan_book=PlanBook(keys), seed=1,
                              framing="record", record_spans=False)
    client = ObfuscatedClient(
        setup, plan_book=PlanBook(keys), framing="record", clock=clock,
        retry=RetryPolicy(attempts=3, base_delay=0.2, seed=13),
        timeouts=TimeoutConfig(idle_read=2.0, drain=1.0))
    plan = FaultPlan.cut(cut_at, seed=3) if cut_at is not None else None
    connect_memory(client, server, response_faults=plan)
    rng = Random(77)
    messages = _request_messages(setup, rng, 4)
    await client.request(messages[0])
    bytes_at_rotation = client.stats.bytes_received
    await client.rotate(keys[1].key_id)
    for message in messages[1:]:
        await client.request(message)
    await client.close()
    resumed = server.completed[-1]
    return {
        "bytes_at_rotation": bytes_at_rotation,
        "bytes_total": client.stats.bytes_received,
        "announced_key": keys[1].key_id,
        "reconnects": client.stats.reconnects,
        "trace": client.trace.to_json(),
        "resumed_session": {"rotations": resumed.rotations,
                            "received": resumed.received,
                            "error": resumed.error},
    }


def _rotation_resume_cells() -> list[dict]:
    cells = []
    for key in registry.available():
        setup = registry.get(key)

        def run_cell(cut_at):
            clock = VirtualClock()

            async def main():
                return await clock.run(
                    _rotation_resume_once(setup, clock, cut_at=cut_at))

            return asyncio.run(main())

        baseline = run_cell(None)
        # Aim the cut a third of the way into the post-rotation response
        # stream: the client has announced key 2 when the transport dies.
        span = baseline["bytes_total"] - baseline["bytes_at_rotation"]
        cut_at = baseline["bytes_at_rotation"] + max(1, span // 3)
        run = run_cell(cut_at)
        rerun = run_cell(cut_at)
        trace = json.loads(run["trace"])
        kinds = [event["kind"] for event in trace]
        resumes = [event for event in trace if event["kind"] == "resume"]
        cells.append({
            "protocol": key,
            "cut_at": cut_at,
            "reconnects": run["reconnects"],
            "trace_kinds": kinds,
            "resumed_on": resumes[-1]["key_id"] if resumes else None,
            "announced_key": run["announced_key"],
            "resumed_session": run["resumed_session"],
            "deterministic": run == rerun,
        })
    return cells


def _breaker_trip_cell() -> dict:
    """A dead upstream dial storm: retried, counted, then refused fast."""

    def run_cell():
        clock = VirtualClock()

        async def main():
            breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0,
                                     clock=clock)
            proxy = ObfuscatedProxy(
                "modbus", clock=clock, breaker=breaker,
                retry=RetryPolicy(attempts=4, base_delay=0.2, jitter=0.0,
                                  seed=0),
                timeouts=TimeoutConfig(connect=1.0))
            outcome = None
            try:
                # Port 1 on localhost: nothing listens there.
                await proxy.dial_upstream("127.0.0.1", 1)
            except (RetriesExhausted, CircuitOpen) as exc:
                outcome = type(exc).__name__
            refused_fast = False
            try:
                await proxy.dial_upstream("127.0.0.1", 1)
            except CircuitOpen:
                refused_fast = True
            return {
                "outcome": outcome,
                "dial_failures": proxy.dial_failures,
                "breaker_state": breaker.state,
                "trips": breaker.trips,
                "refused_fast": refused_fast,
                "trace": proxy.trace.to_json(),
            }

        return asyncio.run(clock_run(clock, main))

    def clock_run(clock, main):
        async def wrapper():
            return await clock.run(main())
        return wrapper()

    run = run_cell()
    rerun = run_cell()
    return {**run, "deterministic": run == rerun}


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


def test_chaos_soak_suite():
    cells = _run_matrix()
    rotation = _rotation_resume_cells()
    breaker = _breaker_trip_cell()

    report = {
        "meta": {
            "benchmark": "chaos soak (resilient sessions under seeded "
                         "connection-level chaos)",
            "quick": QUICK,
            "scenarios": list(CHAOS_SCENARIOS),
            "concurrency": list(CONCURRENCY),
            "messages_per_client": MESSAGES,
            "failures_per_schedule": FAILURES,
            "notes": (
                "virtual-clock soak: every cell must recover completely with "
                "scenario-specific evidence in its counters (reconnects for "
                "cuts, idle-read timeouts for stalls, dial retries for flaky "
                "upstreams), trace events agreeing with stats, and typed "
                "diagnoses on every chaos-killed server session; every cell "
                "ran twice and its full recovery record replayed "
                "byte-identically"
            ),
        },
        "cells": cells,
        "outcomes": {
            outcome: sum(1 for cell in cells if cell["outcome"] == outcome)
            for outcome in ("recovered", "undiagnosed")
        },
        "rotation_resume": rotation,
        "breaker_trip": breaker,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print()
    print(f"{'protocol':<8} {'scenario':<10} {'conc':>4} {'replies':>9} "
          f"{'reconn':>6} {'retry':>5} {'tmo':>4} {'outcome':<11} {'det':>3}")
    for cell in cells:
        print(f"{cell['protocol']:<8} {cell['scenario']:<10} "
              f"{cell['concurrency']:>4} "
              f"{cell['replies']:>4}/{cell['expected']:<4} "
              f"{cell['reconnects']:>6} {cell['retries']:>5} "
              f"{cell['timeouts']:>4} {cell['outcome']:<11} "
              f"{'yes' if cell['deterministic'] else 'NO'}")
    print(f"report written to {OUTPUT}")

    # Acceptance: full coverage, zero undiagnosed cells, no flakiness,
    # rotation survives the cut, the breaker trips and refuses fast.
    protocols = {cell["protocol"] for cell in cells}
    assert len(protocols) == 5, protocols
    assert {cell["scenario"] for cell in cells} == set(CHAOS_SCENARIOS)
    assert report["outcomes"]["undiagnosed"] == 0, [
        (cell["protocol"], cell["scenario"], cell["problems"])
        for cell in cells if cell["outcome"] == "undiagnosed"
    ]
    for cell in cells:
        assert cell["deterministic"], (cell["protocol"], cell["scenario"])
        assert cell["replies"] == cell["expected"], cell
    for cell in rotation:
        assert cell["deterministic"], cell["protocol"]
        assert cell["reconnects"] >= 1, cell
        assert cell["resumed_on"] == cell["announced_key"], cell
        assert cell["resumed_session"]["rotations"] == 1, cell
        assert cell["resumed_session"]["error"] is None, cell
        assert "resume" in cell["trace_kinds"], cell
    assert breaker["deterministic"]
    assert breaker["trips"] >= 1
    assert breaker["breaker_state"] == "open"
    assert breaker["refused_fast"]
    assert breaker["dial_failures"] == 2  # threshold trips before attempt 3
