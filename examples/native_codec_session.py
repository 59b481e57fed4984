"""The specialized codec tier end-to-end: emit, share, serve, measure.

One obfuscated dialect is compiled by the specializing emitter into a
straight-line module (`repro.codegen.generate_specialized_module`) shared
per plan fingerprint through the module cache, proven byte-identical to the
interpreted runtime, benchmarked against it, and then used to serve live
obfuscated sessions over a memory pipe (`specialize=True` on the transport
endpoints) — same wire bytes, a fraction of the codec time.

Run with:  python examples/native_codec_session.py [protocol] [passes]
(default: modbus, 2 obfuscating transformations per node)
"""

from __future__ import annotations

import asyncio
import sys
import time
from random import Random

from repro.codegen import SpecializedCodec, cached_module, module_cache_stats
from repro.net import Capture, ObfuscatedClient, ObfuscatedServer
from repro.protocols import registry
from repro.transforms.engine import Obfuscator
from repro.wire import WireCodec, parse, serialize

MESSAGES = 300
NET_REQUESTS = 30


def measure(label, fn, count):
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    rate = count / elapsed if elapsed else float("inf")
    print(f"  {label:<28} {rate:>12,.0f} msgs/sec")
    return rate


def main() -> None:
    protocol = sys.argv[1] if len(sys.argv) > 1 else "modbus"
    passes = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    setup = registry.get(protocol)

    # --- emit: one obfuscated dialect, one specialized module ------------
    plan = Obfuscator(seed=7).obfuscate(setup.graph_factory(), passes).plan()
    graph = plan.replay(setup.graph_factory())
    module = cached_module(graph, specialize=True)
    print(f"{setup.label}, {passes} obfuscations/node")
    print(f"specialized module for dialect "
          f"{module.__plan_fingerprint__[:12]}… "
          f"(emitter v{module.__emitter_version__})")

    # Replaying the same plan on a fresh graph resolves to the SAME
    # compiled module — the cache keys on the plan fingerprint.
    assert cached_module(plan.replay(setup.graph_factory()),
                         specialize=True) is module
    print(f"module cache: {module_cache_stats()}")

    # --- verify: byte-identical to the interpreted runtime ---------------
    rng = Random(42)
    messages = [setup.message_generator(rng) for _ in range(MESSAGES)]
    wires = []
    for index, message in enumerate(messages):
        expected = serialize(graph, message, rng=Random(index))
        assert module.serialize(message.raw, rng=Random(index)) == expected
        assert module.parse(expected) == parse(graph, expected)
        wires.append(expected)
    print(f"verified: {MESSAGES} messages byte- and structure-identical")

    # --- measure: specialized vs interpreted ------------------------------
    print("\ncodec throughput (interpreted plan tier vs specialized module):")
    base_parse = measure("interpreted parse", lambda: [parse(graph, w) for w in wires], MESSAGES)
    spec_parse = measure("specialized parse", lambda: [module.parse(w) for w in wires], MESSAGES)
    raws = [m.raw for m in messages]
    base_ser = measure(
        "interpreted serialize",
        lambda: [serialize(graph, m, rng=Random(i)) for i, m in enumerate(messages)],
        MESSAGES)
    spec_ser = measure(
        "specialized serialize",
        lambda: [module.serialize(r, rng=Random(i)) for i, r in enumerate(raws)],
        MESSAGES)
    print(f"  speedup: parse {spec_parse / base_parse:.1f}x, "
          f"serialize {spec_ser / base_ser:.1f}x")

    # --- serve: live sessions on the specialized tier ---------------------
    # request() waits for the reply, so send only requests the protocol's
    # responder answers (an MQTT broker answers no CONNECT, for one).
    gen_rng = Random(11)
    requests = []
    while len(requests) < NET_REQUESTS:
        request = setup.message_generator(gen_rng)
        if setup.responder(request, Random(0)) is not None:
            requests.append(request)

    async def sessions(specialize: bool):
        capture = Capture()
        server = ObfuscatedServer(protocol, framing="record", seed=5,
                                  capture=capture, capture_received=True,
                                  specialize=specialize)
        client = ObfuscatedClient(protocol, framing="record", seed=5,
                                  specialize=specialize)
        client.connect_memory(server)
        start = time.perf_counter()
        for request in requests:
            await client.request(request)
        elapsed = time.perf_counter() - start
        await client.close()
        return NET_REQUESTS / elapsed, b"".join(r.data for r in capture.records)

    # A session compiles a missed module in a background worker process and
    # serves on the interpreted tier until it lands; compiling both
    # directions first keeps the timed sessions on the specialized tier.
    for direction, _, _ in setup.directions():
        cached_module(setup.reference_graph(direction), specialize=True)
    interp_rate, interp_wire = asyncio.run(sessions(False))
    spec_rate, spec_wire = asyncio.run(sessions(True))
    assert interp_wire == spec_wire, "specialized sessions diverged on the wire"
    print(f"\nlive sessions ({NET_REQUESTS} record-framed requests, memory pipe):")
    print(f"  interpreted codecs  {interp_rate:>8,.0f} reqs/sec")
    print(f"  specialized codecs  {spec_rate:>8,.0f} reqs/sec "
          f"({spec_rate / interp_rate:.2f}x, identical wire bytes)")

    # --- and the drop-in wrapper ------------------------------------------
    codec = SpecializedCodec(graph, seed=3, module=module)
    reference = WireCodec(graph, seed=3)
    sample = messages[0]
    assert codec.serialize(sample) == reference.serialize(sample)
    print("\nSpecializedCodec(graph) is a drop-in WireCodec replacement —")
    print("same bytes, same typed errors, shared compiled module per dialect.")


if __name__ == "__main__":
    main()
