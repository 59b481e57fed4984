"""Fault-matrix suite — every protocol under every transport fault model.

The PR 6 acceptance study: each registry protocol, at several obfuscation
levels, runs a live one-way session (client streams requests, server decodes
and replies; faults are injected into the client→server direction only, so a
lost segment can never deadlock a request/response ping-pong) under each
composable fault model of :mod:`repro.net.faults`.

Every faulted cell must end in one of two verified states:

* **recovered** — the server decoded an ordered subsequence of the sent wire
  payloads, byte-identical record for record, and every missing or damaged
  record is attributed to a fault the injector actually recorded (its
  :class:`~repro.net.faults.FaultCounters` are the ground truth); loss-free
  schedules must decode the *complete* stream identically;
* **stream_error** — the session died with a typed
  :class:`~repro.core.errors.StreamError` recorded in its stats (precise
  diagnosis), never an unexplained exception or a silent mismatch.

Anything else is **undiagnosed** and fails the gate.  Each faulted cell is
additionally executed twice and must reproduce bit-identically (the
flakiness guard for seeded fault schedules).

Results are written to ``BENCH_PR6.json`` at the repository root, including
degraded-attacker-view resilience cells (partial / truncated / window /
mid-rotation captures) and the CoAP interpreted-vs-generated codec identity
check at levels 0–4.  Set ``BENCH_QUICK=1`` for the reduced CI smoke
configuration.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path
from random import Random

from repro.codegen import GeneratedCodec
from repro.experiments import DegradedView, run_resilience
from repro.net import Capture, FaultPlan, ObfuscatedClient, ObfuscatedServer, connect_memory
from repro.protocols import coap, registry
from repro.transforms import Obfuscator
from repro.wire import WireCodec

QUICK = os.environ.get("BENCH_QUICK", "").lower() not in ("", "0", "false")

#: obfuscation levels per protocol (0 = the plain reference dialect).
LEVELS = (0, 2) if QUICK else (0, 2, 4)
#: requests streamed per session.
MESSAGES = 6 if QUICK else 12
#: fraction of the clean stream after which the truncation fault cuts.
TRUNCATE_FRACTION = 0.55

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_PR6.json"


def _fault_cells(truncate_at: int) -> list[tuple[str, FaultPlan]]:
    """The composable fault models measured per (protocol, level) cell."""
    return [
        ("clean", FaultPlan.clean(seed=101)),
        ("slowloris", FaultPlan.slow_loris(seed=102)),
        ("reorder", FaultPlan.reorder(0.35, seed=103)),
        ("duplicate", FaultPlan.duplicate(0.35, seed=104)),
        ("loss", FaultPlan.loss(0.08, seed=105, segment_size=32)),
        ("corrupt", FaultPlan.corrupt(0.06, seed=106, segment_size=32)),
        ("truncate", FaultPlan.truncate(truncate_at, seed=107)),
    ]


def _dialect(setup: registry.ProtocolSetup, level: int):
    """Obfuscated per-direction graphs of one cell (None = plain reference)."""
    if level == 0:
        return None, None
    request = Obfuscator(seed=31 + level).obfuscate(
        setup.reference_graph("request"), level).graph
    response = None
    if setup.response_graph_factory is not None:
        response = Obfuscator(seed=32 + level).obfuscate(
            setup.reference_graph("response"), level).graph
    return request, response


async def _run_session(setup: registry.ProtocolSetup, request_graph,
                       response_graph, plan: FaultPlan | None) -> dict:
    """One one-way session; returns what was sent, decoded and diagnosed."""
    capture = Capture()
    server = ObfuscatedServer(setup, request_graph=request_graph,
                              response_graph=response_graph, seed=1,
                              capture=capture, capture_received=True,
                              record_spans=False)
    # Record-framed request streams can resynchronize past corrupt payloads;
    # native streams have no boundary to resume at, so resync stays off there.
    server.resync = server.endpoint.request_framing == "record"
    client = ObfuscatedClient(setup, request_graph=request_graph,
                              response_graph=response_graph, seed=1)
    connect_memory(client, server, request_faults=plan)
    writer = client._writer
    rng = Random(7)
    sent = [await client.send(setup.message_generator(rng))
            for _ in range(MESSAGES)]
    await client.close()
    stats = server.completed[0]
    decoded = [record.data
               for record in capture.filter(direction="request")]
    counters = writer.counters.summary() if plan is not None else None
    return {
        "framing": server.endpoint.request_framing,
        "sent": sent,
        "decoded": decoded,
        "resyncs": stats.resyncs,
        "error": stats.error,
        "counters": counters,
    }


def _align(sent: list[bytes], decoded: list[bytes]) -> tuple[int, int]:
    """Greedy in-order alignment: (byte-identical matches, unmatched decodes)."""
    cursor = 0
    matched = unmatched = 0
    for raw in decoded:
        try:
            cursor = sent.index(raw, cursor) + 1
            matched += 1
        except ValueError:
            unmatched += 1
    return matched, unmatched


def _classify(run: dict, plan: FaultPlan) -> tuple[str, dict]:
    """Verify one faulted session: recovered / stream_error / undiagnosed."""
    sent, decoded = run["sent"], run["decoded"]
    matched, unmatched = _align(sent, decoded)
    missing = len(sent) - matched
    verdict = {"matched": matched, "unmatched": unmatched, "missing": missing}
    error = run["error"]
    if error is not None and not error.startswith(("StreamError", "BudgetExceeded")):
        return "undiagnosed", verdict  # an untyped failure is never acceptable
    if not plan.lossy:
        # Loss-free schedules must be invisible: complete, identical, clean.
        if error is None and decoded == sent:
            return "recovered", verdict
        return "undiagnosed", verdict
    counters = run["counters"]
    # Every record the server decoded but the client never sent needs at
    # least one damaged byte to blame; every record that never arrived needs
    # withheld or damaged bytes (or the diagnosed stream death) to blame.
    if unmatched > counters["corrupted_bytes"]:
        return "undiagnosed", verdict
    damage_explains_missing = (
        counters["undelivered_bytes"] > 0
        or counters["corrupted_bytes"] > 0
        or error is not None
    )
    if missing > 0 and not damage_explains_missing:
        return "undiagnosed", verdict
    return ("recovered" if error is None else "stream_error"), verdict


def _run_matrix() -> list[dict]:
    cells: list[dict] = []
    for key in registry.available():
        setup = registry.get(key)
        for level in LEVELS:
            request_graph, response_graph = _dialect(setup, level)
            baseline = asyncio.run(
                _run_session(setup, request_graph, response_graph, None))
            assert baseline["error"] is None, (key, level, baseline["error"])
            framed = sum(len(payload) for payload in baseline["sent"])
            if baseline["framing"] == "record":
                framed += 4 * len(baseline["sent"])
            truncate_at = max(1, int(framed * TRUNCATE_FRACTION))
            for fault, plan in _fault_cells(truncate_at):
                run = asyncio.run(
                    _run_session(setup, request_graph, response_graph, plan))
                # Flakiness guard: a seeded schedule must replay identically.
                rerun = asyncio.run(
                    _run_session(setup, request_graph, response_graph, plan))
                deterministic = (
                    run["decoded"] == rerun["decoded"]
                    and run["error"] == rerun["error"]
                    and run["counters"] == rerun["counters"]
                    and run["resyncs"] == rerun["resyncs"]
                )
                outcome, verdict = _classify(run, plan)
                cells.append({
                    "protocol": key,
                    "level": level,
                    "fault": fault,
                    "plan": plan.describe(),
                    "framing": run["framing"],
                    "sent": len(run["sent"]),
                    "decoded": len(run["decoded"]),
                    "resyncs": run["resyncs"],
                    **verdict,
                    "outcome": outcome,
                    "error": run["error"],
                    "deterministic": deterministic,
                    "counters": run["counters"],
                })
    return cells


def _degraded_view_cells() -> list[dict]:
    views = [
        DegradedView(kind="partial", fraction=0.5, seed=1),
        DegradedView(kind="truncated", fraction=0.5),
        DegradedView(kind="window", fraction=0.5, seed=2),
    ]
    cells = []
    for view in views if not QUICK else views[:1]:
        report = run_resilience(passes_levels=(1,), repeats=1, view=view)
        cells.append({
            "view": view.kind,
            "fraction": view.fraction,
            "rotations": 0,
            "plain_f1": round(report.plain.boundary_f1, 4),
            "obfuscated_f1": round(report.obfuscated[1].boundary_f1, 4),
        })
    mid = run_resilience(passes_levels=(1,), repeats=1, rotations=1,
                         view=DegradedView(kind="mid_rotation"))
    cells.append({
        "view": "mid_rotation",
        "fraction": None,
        "rotations": 1,
        "plain_f1": round(mid.plain.boundary_f1, 4),
        "obfuscated_f1": round(mid.obfuscated[1].boundary_f1, 4),
    })
    return cells


def _coap_codegen_identity() -> dict:
    """The PR's fifth protocol: interpreted == generated at every level."""
    checked = {}
    for level in range(5):
        graph = Obfuscator(seed=11 + level).obfuscate(
            coap.message_graph(), level).graph
        interpreted = WireCodec(graph, seed=42)
        generated = GeneratedCodec(graph, seed=42)
        rng = Random(99)
        count = 10 if QUICK else 25
        for _ in range(count):
            message = coap.random_request(rng)
            wire = interpreted.serialize(message)
            assert generated.serialize(message) == wire, level
            assert generated.parse(wire) == message, level
        checked[str(level)] = count
    return {"messages_per_level": checked, "identical": True}


def test_fault_matrix_suite():
    cells = _run_matrix()
    views = _degraded_view_cells()
    codegen = _coap_codegen_identity()

    report = {
        "meta": {
            "benchmark": "transport fault matrix (one-way faulted sessions)",
            "quick": QUICK,
            "levels": list(LEVELS),
            "messages_per_session": MESSAGES,
            "fault_models": [name for name, _ in _fault_cells(1)],
            "notes": (
                "faults hit the client->server direction of a one-way flow; "
                "recovered = server decoded a byte-identical ordered "
                "subsequence with every anomaly attributed to a recorded "
                "fault; stream_error = typed StreamError diagnosis; every "
                "faulted cell ran twice and replayed bit-identically"
            ),
        },
        "cells": cells,
        "outcomes": {
            outcome: sum(1 for cell in cells if cell["outcome"] == outcome)
            for outcome in ("recovered", "stream_error", "undiagnosed")
        },
        "degraded_views": views,
        "coap_codegen_identity": codegen,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print()
    print(f"{'protocol':<8} {'lvl':>3} {'fault':<9} {'framing':>7} "
          f"{'decoded':>7} {'outcome':<12} {'det':>3}")
    for cell in cells:
        print(f"{cell['protocol']:<8} {cell['level']:>3} {cell['fault']:<9} "
              f"{cell['framing']:>7} {cell['decoded']:>3}/{cell['sent']:<3} "
              f"{cell['outcome']:<12} {'yes' if cell['deterministic'] else 'NO'}")
    print(f"report written to {OUTPUT}")

    # Acceptance: full coverage, zero undiagnosed failures, no flakiness.
    protocols = {cell["protocol"] for cell in cells}
    assert len(protocols) == 5, protocols
    assert len(LEVELS) >= 2 and len(_fault_cells(1)) >= 4
    assert report["outcomes"]["undiagnosed"] == 0, [
        cell for cell in cells if cell["outcome"] == "undiagnosed"
    ]
    for cell in cells:
        assert cell["deterministic"], (cell["protocol"], cell["fault"])
        if cell["fault"] in ("clean", "slowloris", "reorder", "duplicate"):
            assert cell["outcome"] == "recovered", cell
            assert cell["decoded"] == cell["sent"], cell
    assert codegen["identical"]
    for view in views:
        assert 0.0 <= view["obfuscated_f1"] <= 1.0
