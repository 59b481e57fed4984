"""Overload-soak suite — resource governance under hostile volume.

The PR 8 acceptance study: every registry protocol faces four volume attacks
under two :class:`~repro.net.governance.ResourceBudget` profiles (strict and
standard), all on the virtual clock:

* **memory_bomb** — a peer declares a record twice the profile's stream
  budget and drips filler toward the promise.  The budgeted server must kill
  the session with a typed :class:`~repro.core.errors.BudgetExceeded` while
  its peak buffered bytes stay under the budget; an *unbudgeted control*
  server run against the same attack must demonstrably buffer past that
  limit — the governance layer is the difference, measured.
* **slow_consumer** — a client fires every request before reading a single
  reply over a flow-limited transport.  The server must finish the session
  with its in-flight bytes bounded by window + one frame, with drain waits
  proving the backpressure actually engaged.
* **flood_admission** — more concurrent clients than the
  :class:`~repro.net.governance.LoadGovernor`'s session watermark admits.
  Excess admissions are shed with typed busy/retry-after records; the shed
  clients back off on their seeded retry schedules and must all complete
  once the load drains.  Every shed is accounted on both sides.
* **drip_feed** — the transport delivers one byte per segment.  Pure
  pressure on the incremental decoders: the budgets must not false-positive
  and every reply must arrive.

A cell is **undiagnosed** unless its scenario-specific evidence is complete:
typed errors only, replies complete where recovery is expected, budget and
governor counters agreeing with the traces.  Each cell runs twice and the
full record must replay byte-identically (budgets and governor hold no clock
and no randomness, so overload behaviour is a pure function of the seeds).
Results go to ``BENCH_PR8.json`` at the repository root; ``BENCH_QUICK=1``
selects the reduced CI smoke configuration.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path
from random import Random

from repro.net import (
    FaultPlan,
    LoadGovernor,
    MemoryWriter,
    ObfuscatedClient,
    ObfuscatedServer,
    ResourceBudget,
    RetryPolicy,
    TimeoutConfig,
    VirtualClock,
    connect_memory,
    memory_pipe,
)
from repro.net.framing import RECORD_HEADER
from repro.net.session import MeteredReader
from repro.protocols import registry

QUICK = os.environ.get("BENCH_QUICK", "").lower() not in ("", "0", "false")

#: requests per admitted client in the flood_admission scenario.
ADMISSION_MESSAGES = 3 if QUICK else 5
#: requests fired before the first read in the slow_consumer scenario.
SLOW_MESSAGES = 6 if QUICK else 10
#: requests pushed through one-byte segments in the drip_feed scenario.
DRIP_MESSAGES = 2 if QUICK else 4
#: transport flow-control window of the slow_consumer scenario.
SLOW_WINDOW = 32
#: filler granularity of the memory bomb drip — well under the strictest
#: stream budget, so the per-feed accounting registers the control server's
#: buffer growth far past the limit (not just one chunk over).
BOMB_CHUNK = 16 << 10

SCENARIOS = ("memory_bomb", "slow_consumer", "flood_admission", "drip_feed")
PROFILES = {"strict": ResourceBudget.strict(),
            "standard": ResourceBudget.standard()}

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_PR8.json"

#: error prefixes that count as a *typed* diagnosis on a killed session.
TYPED_ERRORS = ("BudgetExceeded", "ServerBusy", "StreamError",
                "ConnectionResetError", "ConnectionError", "DeadlineExceeded",
                "DrainCancelled", "IncompleteReadError", "OSError")


def _request_messages(setup: registry.ProtocolSetup, rng: Random,
                      count: int) -> list:
    """``count`` generated messages the protocol's responder replies to."""
    messages = []
    while len(messages) < count:
        message = setup.message_generator(rng)
        if setup.responder(message, Random(0)) is not None:
            messages.append(message)
    return messages


# ---------------------------------------------------------------------------
# scenario drivers
# ---------------------------------------------------------------------------


async def _bomb_one_server(setup: registry.ProtocolSetup,
                           budget: ResourceBudget | None,
                           declared: int) -> dict:
    """Declare a ``declared``-byte record, drip filler toward the promise."""
    server = ObfuscatedServer(setup, framing="record", budget=budget, seed=1,
                              record_spans=False)
    (_, writer), (s_reader, s_writer) = memory_pipe()
    task = asyncio.ensure_future(server.serve_session(s_reader, s_writer))
    writer.write(declared.to_bytes(RECORD_HEADER, "big"))
    await writer.drain()
    fed = 0
    while fed < declared and not task.done():
        chunk = min(BOMB_CHUNK, declared - fed)
        writer.write(b"\x00" * chunk)
        fed += chunk
        await writer.drain()
    if not task.done():
        writer.write_eof()
    await asyncio.gather(task, return_exceptions=True)
    stats = server.completed[0]
    return {
        "declared": declared,
        "filler_fed": fed,
        "peak_buffered": stats.peak_buffered,
        "budget_violations": stats.budget_violations,
        "error": stats.error,
    }


async def _memory_bomb(setup: registry.ProtocolSetup, budget: ResourceBudget,
                       clock: VirtualClock, seed: int) -> dict:
    # The bomb is sized relative to the profile so both profiles are truly
    # attacked: twice the stream budget, always a real memory threat.
    declared = 2 * budget.max_stream_bytes
    budgeted = await _bomb_one_server(setup, budget, declared)
    control = await _bomb_one_server(setup, None, declared)
    return {"budgeted": budgeted, "control": control,
            "budget_limit": budget.max_stream_bytes}


async def _slow_consumer(setup: registry.ProtocolSetup,
                         budget: ResourceBudget, clock: VirtualClock,
                         seed: int) -> dict:
    # Asymmetric flow control: the client's writes are unbounded (so firing
    # every request first cannot deadlock) while the server's response
    # direction runs through a SLOW_WINDOW-byte window the unread client
    # edge saturates.
    server = ObfuscatedServer(setup, budget=budget, seed=1,
                              record_spans=False)
    client_side = MeteredReader()
    server_side = MeteredReader()
    client_writer = MemoryWriter(server_side)
    server_writer = MemoryWriter(client_side, limit=SLOW_WINDOW)
    client = ObfuscatedClient(setup, budget=budget,
                              session_id=f"slow-{seed}")
    client.attach(client_side, client_writer)
    task = asyncio.ensure_future(
        server.serve_session(server_side, server_writer))

    messages = _request_messages(setup, Random(seed), SLOW_MESSAGES)
    for message in messages:
        await client.send(message)
    replies = []
    for _ in messages:
        decoded = await client.receive()
        if decoded is None:
            break
        replies.append(len(decoded.raw))
    await client.close()
    await asyncio.gather(task, return_exceptions=True)
    stats = server.completed[0]
    return {
        "requests": len(messages),
        "replies": len(replies),
        "max_frame": (max(replies) + RECORD_HEADER) if replies else 0,
        "drain_waits": server_writer.drain_waits,
        "peak_in_flight": server_writer.peak_in_flight,
        "window": SLOW_WINDOW,
        "server_error": stats.error,
        "client_violations": client.stats.budget_violations,
        "peak_buffered": stats.peak_buffered,
    }


async def _flood_admission(setup: registry.ProtocolSetup,
                           budget: ResourceBudget, clock: VirtualClock,
                           seed: int) -> dict:
    governor = LoadGovernor(low_bytes=1 << 20, high_bytes=1 << 22,
                            low_sessions=2, high_sessions=2,
                            retry_after=0.25)
    server = ObfuscatedServer(setup, framing="record", budget=budget,
                              governor=governor, seed=1, record_spans=False)

    async def drive(index: int) -> dict:
        await clock.sleep(index * 0.1)
        client = ObfuscatedClient(
            setup, framing="record", budget=budget,
            session_id=f"adm-{index}", clock=clock,
            retry=RetryPolicy(attempts=6, base_delay=0.5,
                              seed=seed * 10 + index),
            timeouts=TimeoutConfig(idle_read=30.0, drain=1.0))
        connect_memory(client, server)
        replies = 0
        for message in _request_messages(setup, Random(seed * 100 + index),
                                         ADMISSION_MESSAGES):
            await client.request(message)
            replies += 1
            # Hold the session open so admissions genuinely overlap.
            await clock.sleep(0.3)
        await client.close()
        stats = client.stats
        return {
            "replies": replies,
            "sheds": stats.sheds,
            "retries": stats.retries,
            "reconnects": stats.reconnects,
            "busy_events": client.trace.count("busy"),
            "error": stats.error,
        }

    clients = await asyncio.gather(*(drive(index) for index in range(3)))
    shed_entries = [stats.error for stats in server.completed if stats.sheds]
    served = [stats.error for stats in server.completed if not stats.sheds]
    return {
        "clients": list(clients),
        "governor": governor.counters(),
        "shed_entries": shed_entries,
        "served_errors": served,
        "trace_sheds": server.trace.count("shed"),
    }


async def _drip_feed(setup: registry.ProtocolSetup, budget: ResourceBudget,
                     clock: VirtualClock, seed: int) -> dict:
    server = ObfuscatedServer(setup, budget=budget, seed=1,
                              record_spans=False)
    client = ObfuscatedClient(setup, budget=budget,
                              session_id=f"drip-{seed}")
    connect_memory(client, server,
                   request_faults=FaultPlan.drip(seed=seed))
    replies = 0
    for message in _request_messages(setup, Random(seed), DRIP_MESSAGES):
        await client.request(message)
        replies += 1
    counters = client._writer.counters
    segments, delivered = counters.segments, counters.delivered_bytes
    await client.close()
    stats = server.completed[0]
    return {
        "replies": replies,
        "expected": DRIP_MESSAGES,
        "segments": segments,
        "delivered_bytes": delivered,
        "server_error": stats.error,
        "server_violations": stats.budget_violations,
    }


DRIVERS = {
    "memory_bomb": _memory_bomb,
    "slow_consumer": _slow_consumer,
    "flood_admission": _flood_admission,
    "drip_feed": _drip_feed,
}


def _run_cell(setup: registry.ProtocolSetup, scenario: str,
              budget: ResourceBudget, seed: int) -> dict:
    clock = VirtualClock()

    async def main():
        coroutine = DRIVERS[scenario](setup, budget, clock, seed)
        if scenario == "flood_admission":
            # The only scenario that sleeps on the clock (staggered
            # admissions, seeded retry backoff); the pure-backpressure
            # scenarios are event-loop work with nothing to advance.
            return await clock.run(coroutine)
        return await coroutine

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# the verdicts
# ---------------------------------------------------------------------------


def _typed(error: "str | None") -> bool:
    return error is None or error.startswith(TYPED_ERRORS)


def _classify(run: dict, scenario: str,
              budget: ResourceBudget) -> tuple[str, list[str]]:
    problems: list[str] = []
    if scenario == "memory_bomb":
        budgeted, control = run["budgeted"], run["control"]
        if (budgeted["error"] is None
                or not budgeted["error"].startswith("BudgetExceeded")):
            problems.append(f"bomb not typed: {budgeted['error']!r}")
        if budgeted["budget_violations"] != 1:
            problems.append("bomb violation not counted")
        # The governed claim: peak stays within budget + one pump chunk.
        ceiling = budget.max_stream_bytes + BOMB_CHUNK
        if budgeted["peak_buffered"] > ceiling:
            problems.append(
                f"budgeted peak {budgeted['peak_buffered']} > {ceiling}")
        # The control claim: without the budget the same attack buffers past
        # the limit — the layer is the measured difference, not a tautology.
        if control["peak_buffered"] <= budget.max_stream_bytes:
            problems.append(
                f"control peak {control['peak_buffered']} never exceeded "
                f"the budget limit {budget.max_stream_bytes}")
        if not _typed(control["error"]):
            problems.append(f"control untyped: {control['error']!r}")
        return ("shielded" if not problems else "undiagnosed"), problems
    if scenario == "slow_consumer":
        if run["replies"] != run["requests"]:
            problems.append(f"{run['replies']}/{run['requests']} replies")
        if run["drain_waits"] < 1:
            problems.append("backpressure never engaged")
        if run["peak_in_flight"] > run["window"] + run["max_frame"]:
            problems.append(
                f"in-flight {run['peak_in_flight']} > window+frame")
        if run["server_error"] is not None or run["client_violations"]:
            problems.append("session did not finish clean")
    elif scenario == "flood_admission":
        for index, client in enumerate(run["clients"]):
            if client["replies"] != ADMISSION_MESSAGES:
                problems.append(
                    f"client {index}: {client['replies']}/"
                    f"{ADMISSION_MESSAGES} replies")
            if client["busy_events"] != client["sheds"]:
                problems.append(f"client {index}: busy trace disagrees")
        governor = run["governor"]
        if governor["sheds"] < 1:
            problems.append("admission flood produced no shed")
        if len(run["shed_entries"]) != governor["sheds"]:
            problems.append("shed entries disagree with governor count")
        if governor["sheds"] != run["trace_sheds"]:
            problems.append("governor sheds disagree with trace")
        if sum(c["sheds"] for c in run["clients"]) < 1:
            problems.append("no client observed a busy refusal")
        for error in run["shed_entries"]:
            if error is None or not error.startswith("ServerBusy"):
                problems.append(f"untyped shed entry {error!r}")
        for error in run["served_errors"]:
            if not _typed(error):
                problems.append(f"untyped session error {error!r}")
    elif scenario == "drip_feed":
        if run["replies"] != run["expected"]:
            problems.append(f"{run['replies']}/{run['expected']} replies")
        if run["segments"] != run["delivered_bytes"]:
            problems.append("drip was not one byte per segment")
        if run["server_error"] is not None or run["server_violations"]:
            problems.append(
                f"budget false positive: {run['server_error']!r}")
    return ("recovered" if not problems else "undiagnosed"), problems


def _run_matrix() -> list[dict]:
    cells: list[dict] = []
    for key in registry.available():
        setup = registry.get(key)
        for scenario in SCENARIOS:
            for profile_name, budget in PROFILES.items():
                seed = 11 + len(cells)
                run = _run_cell(setup, scenario, budget, seed)
                rerun = _run_cell(setup, scenario, budget, seed)
                deterministic = (json.dumps(run, sort_keys=True)
                                 == json.dumps(rerun, sort_keys=True))
                outcome, problems = _classify(run, scenario, budget)
                cells.append({
                    "protocol": key,
                    "scenario": scenario,
                    "profile": profile_name,
                    "budget": budget.fingerprint,
                    "seed": seed,
                    "run": run,
                    "outcome": outcome,
                    "problems": problems,
                    "deterministic": deterministic,
                })
    return cells


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


def test_overload_soak_suite():
    cells = _run_matrix()

    report = {
        "meta": {
            "benchmark": "overload soak (resource budgets, load shedding and "
                         "backpressure under hostile volume)",
            "quick": QUICK,
            "scenarios": list(SCENARIOS),
            "profiles": {name: budget.to_dict()
                         for name, budget in PROFILES.items()},
            "admission_messages": ADMISSION_MESSAGES,
            "slow_messages": SLOW_MESSAGES,
            "drip_messages": DRIP_MESSAGES,
            "slow_window": SLOW_WINDOW,
            "notes": (
                "every memory bomb must be killed by a typed BudgetExceeded "
                "with peak buffered bytes under the budget while the "
                "unbudgeted control provably buffers past it; slow consumers "
                "must be absorbed by transport backpressure (in-flight "
                "bounded by window + one frame); admission floods must shed "
                "with typed busy records that seeded retries recover from; "
                "one-byte drip feeds must produce zero budget false "
                "positives; every cell ran twice and replayed byte-"
                "identically"
            ),
        },
        "cells": cells,
        "outcomes": {
            outcome: sum(1 for cell in cells if cell["outcome"] == outcome)
            for outcome in ("shielded", "recovered", "undiagnosed")
        },
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print()
    print(f"{'protocol':<8} {'scenario':<16} {'profile':<9} "
          f"{'outcome':<12} {'det':>3}")
    for cell in cells:
        print(f"{cell['protocol']:<8} {cell['scenario']:<16} "
              f"{cell['profile']:<9} {cell['outcome']:<12} "
              f"{'yes' if cell['deterministic'] else 'NO'}")
    print(f"report written to {OUTPUT}")

    protocols = {cell["protocol"] for cell in cells}
    assert len(protocols) == 5, protocols
    assert {cell["scenario"] for cell in cells} == set(SCENARIOS)
    assert report["outcomes"]["undiagnosed"] == 0, [
        (cell["protocol"], cell["scenario"], cell["profile"],
         cell["problems"])
        for cell in cells if cell["outcome"] == "undiagnosed"
    ]
    # Every memory bomb shielded, everything else recovered, zero flakiness.
    assert report["outcomes"]["shielded"] == len(protocols) * len(PROFILES)
    for cell in cells:
        assert cell["deterministic"], (cell["protocol"], cell["scenario"],
                                       cell["profile"])
