"""Specialized-codegen throughput suite — the native-speed codec tier.

Measures parse and serialize throughput of the specializing compiler's
straight-line modules (:func:`repro.codegen.generate_specialized_module`,
shared per dialect fingerprint through :func:`repro.codegen.cached_module`)
against the **planned** interpreted runtime — the cached
:class:`~repro.wire.plan.CodecPlan` execution path that PR 2 established as
the fast tier.  That is a deliberately strong baseline: the seed revision's
per-message codecs are slower still (see ``BENCH_PR2.json``).

Every cell proves byte-identity before it is timed: the SHA-256 of the
concatenation of all wires produced by the planned path and by the
specialized module (same messages, same per-message RNG seeds) must match,
and the digest must be bit-identical across two independent passes.  A net
cell drives full obfuscated sessions through :mod:`repro.net` (record
framing over a memory pipe) with ``specialize`` off and on and checks the
captured wire records digest-identical.

Results go to ``BENCH_PR10.json`` at the repository root.  Acceptance: the
specialized tier sustains a >= 3x geometric-mean speedup over the planned
path (relaxed floor under ``BENCH_QUICK=1`` / CI so shared-runner noise
cannot fail an unrelated build — the measured numbers are recorded either
way).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path
from random import Random

from repro.codegen import cached_module, clear_module_cache, module_cache_stats
from repro.net import Capture, ObfuscatedClient, ObfuscatedServer
from repro.protocols import registry
from repro.transforms.engine import Obfuscator
from repro.wire import parse, serialize

QUICK = os.environ.get("BENCH_QUICK", "").lower() not in ("", "0", "false")
LEVELS = (0, 2) if QUICK else (0, 1, 2, 3, 4)
MESSAGES = 8 if QUICK else 25
ROUNDS = 3 if QUICK else 5
RELAXED = QUICK or os.environ.get("CI", "").lower() not in ("", "0", "false")
#: The ISSUE's acceptance gate for full local runs; generous floors for the
#: quick smoke configuration and shared CI runners.
GEOMEAN_FLOOR = 1.5 if RELAXED else 3.0
CELL_FLOOR = 0.8 if RELAXED else 1.2
NET_REQUESTS = 12 if QUICK else 40

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_PR10.json"


def _wire_digest(graph, module, messages) -> tuple[str, str, list[bytes]]:
    """(planned digest, specialized digest, wires) over all messages.

    Both paths serialize the same messages with the same per-message RNG
    seed, so the digests must agree byte for byte.
    """
    planned = hashlib.sha256()
    specialized = hashlib.sha256()
    wires = []
    for index, message in enumerate(messages):
        expected = serialize(graph, message, rng=Random(index))
        # The module-level entry point takes the plain field dict; the
        # SpecializedCodec wrapper does this unwrapping in normal use.
        produced = module.serialize(message.raw, rng=Random(index))
        planned.update(expected)
        specialized.update(produced)
        wires.append(expected)
    return planned.hexdigest(), specialized.hexdigest(), wires


def _measure_cell(graph, module, messages, wires):
    """Best-round msgs/sec: (planned parse, spec parse, planned ser, spec ser).

    Modes are timed in interleaved rounds so a transient host load spike
    penalizes all of them alike instead of skewing one ratio.
    """
    raws = [message.raw for message in messages]

    def planned_parse():
        for wire in wires:
            parse(graph, wire)

    def spec_parse():
        module_parse = module.parse
        for wire in wires:
            module_parse(wire)

    def planned_serialize():
        for index, message in enumerate(messages):
            serialize(graph, message, rng=Random(index))

    def spec_serialize():
        module_serialize = module.serialize
        for index, raw in enumerate(raws):
            module_serialize(raw, rng=Random(index))

    passes = (planned_parse, spec_parse, planned_serialize, spec_serialize)
    for one_pass in passes:  # warm-up: plan compile, module import side caches
        one_pass()
    best = [0.0, 0.0, 0.0, 0.0]
    count = len(messages)
    for _ in range(ROUNDS):
        for position, one_pass in enumerate(passes):
            start = time.perf_counter()
            one_pass()
            elapsed = time.perf_counter() - start
            if elapsed > 0:
                best[position] = max(best[position], count / elapsed)
    return best


def _net_cell() -> dict:
    """Full request/reply sessions over a memory pipe, specialize off vs on."""

    async def traffic(specialize: bool):
        capture = Capture()
        server = ObfuscatedServer("modbus", framing="record", seed=7,
                                  capture=capture, capture_received=True,
                                  specialize=specialize)
        client = ObfuscatedClient("modbus", framing="record", seed=7,
                                  specialize=specialize)
        client.connect_memory(server)
        generator = registry.get("modbus").message_generator
        rng = Random(31)
        requests = [generator(rng) for _ in range(NET_REQUESTS)]
        start = time.perf_counter()
        for message in requests:
            await client.request(message)
        elapsed = time.perf_counter() - start
        await client.close()
        digest = hashlib.sha256()
        for record in capture.records:
            digest.update(record.data)
        return len(requests) / elapsed if elapsed > 0 else 0.0, digest.hexdigest()

    interp_rate, interp_digest = asyncio.run(traffic(False))
    # A specialized session compiles a missed module in the background and
    # serves on the interpreted tier meanwhile: compile both directions first,
    # so the timed session runs on the warm specialized tier.
    setup = registry.get("modbus")
    for direction in ("request", "response"):
        cached_module(setup.reference_graph(direction), specialize=True)
    misses = module_cache_stats()["misses"]
    spec_rate, spec_digest = asyncio.run(traffic(True))
    assert module_cache_stats()["misses"] == misses, (
        "net sessions: the timed specialized session missed the module cache")
    assert interp_digest == spec_digest, (
        "net sessions: specialized wire records diverge from interpreted")
    return {
        "protocol": "modbus",
        "framing": "record",
        "requests": NET_REQUESTS,
        "interpreted_reqs_per_sec": round(interp_rate, 1),
        "specialized_reqs_per_sec": round(spec_rate, 1),
        "speedup": round(spec_rate / interp_rate, 3) if interp_rate else None,
        "wire_digest": interp_digest,
    }


def test_specialized_codegen_suite():
    clear_module_cache()
    cells = []
    for key in registry.available():
        setup = registry.get(key)
        for level in LEVELS:
            graph = setup.reference_graph()
            if level:
                graph = Obfuscator(seed=11).obfuscate(graph, level).graph
            module = cached_module(graph, specialize=True)
            messages = [
                setup.message_generator(Random(100 + index))
                for index in range(MESSAGES)
            ]
            planned_digest, spec_digest, wires = _wire_digest(
                graph, module, messages)
            assert planned_digest == spec_digest, (
                f"{key} level {level}: specialized wires diverge from planned")
            # Determinism: a second independent pass must be bit-identical.
            repeat_planned, repeat_spec, _ = _wire_digest(graph, module, messages)
            assert (repeat_planned, repeat_spec) == (planned_digest, spec_digest), (
                f"{key} level {level}: serialization is not run-to-run stable")
            for wire in wires:
                assert module.parse(wire) == parse(graph, wire)

            p_parse, s_parse, p_ser, s_ser = _measure_cell(
                graph, module, messages, wires)
            cells.append(
                {
                    "protocol": key,
                    "level": level,
                    "planned_parse_msgs_per_sec": round(p_parse, 1),
                    "specialized_parse_msgs_per_sec": round(s_parse, 1),
                    "planned_serialize_msgs_per_sec": round(p_ser, 1),
                    "specialized_serialize_msgs_per_sec": round(s_ser, 1),
                    "parse_speedup": round(s_parse / p_parse, 3) if p_parse else None,
                    "serialize_speedup": round(s_ser / p_ser, 3) if p_ser else None,
                    "wire_sha256": planned_digest,
                }
            )

    ratios = [
        ratio
        for cell in cells
        for ratio in (cell["parse_speedup"], cell["serialize_speedup"])
        if ratio
    ]
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    net = _net_cell()

    report = {
        "meta": {
            "benchmark": "specialized codegen vs planned interpreted runtime",
            "quick": QUICK,
            "levels": list(LEVELS),
            "messages_per_cell": MESSAGES,
            "rounds": ROUNDS,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "baseline": (
                "planned = cached CodecPlan interpreted execution (the fast "
                "tier gated by BENCH_PR2); specialized = straight-line module "
                "from repro.codegen.generate_specialized_module shared via "
                "cached_module.  Every cell's wire bytes are sha256-verified "
                "identical across both paths and across two runs before "
                "timing."
            ),
            "gate": {
                "geomean_floor": GEOMEAN_FLOOR,
                "cell_floor": CELL_FLOOR,
                "relaxed": RELAXED,
            },
        },
        "cells": cells,
        "geomean_speedup": round(geomean, 3),
        "net_session": net,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print()
    print(f"{'protocol':<8} {'level':>5} {'parse':>8} {'serialize':>10}")
    for cell in cells:
        print(
            f"{cell['protocol']:<8} {cell['level']:>5} "
            f"{cell['parse_speedup']:>7.2f}x {cell['serialize_speedup']:>9.2f}x"
        )
    print(f"geomean {geomean:.2f}x   "
          f"net session {net['speedup']:.2f}x ({net['framing']} framing)")
    print(f"report written to {OUTPUT}")

    assert geomean >= GEOMEAN_FLOOR, (
        f"specialized tier geomean {geomean:.2f}x below the "
        f"{GEOMEAN_FLOOR}x floor"
    )
    for cell in cells:
        for axis in ("parse_speedup", "serialize_speedup"):
            assert cell[axis] is None or cell[axis] > CELL_FLOOR, cell
