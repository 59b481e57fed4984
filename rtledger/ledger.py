"""Round-trip ledger: seeded obfuscated request/reply sessions, end to end.

One *deployment* holds the dialects of a workload (level-2 obfuscation plans
drawn from the workload seed), one server per protocol per client loop, and
the bookkeeping that checks every round trip.  Load is a closed loop of
:data:`SESSIONS` concurrent client loops on one asyncio loop, joined to the
servers by the in-process duplex transport (no kernel sockets).  Each client
loop runs short sessions, cycling through the protocols so every protocol
gets the same number of round trips; a session opens a client on the
dialect of the workload's pool, runs :attr:`Workload.round_trips_per_session`
round trips (rotating keys every :attr:`Workload.rotate_every` on the churn
workload) and closes.  Sessions take the pool's dialects in turn, so a run
averages over many dialects and one seed's odd dialect weighs little.

The program under test only ever sees the generated messages and plans; all
timing, tracing and checking lives here, around calls into public APIs.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import struct
import time
from dataclasses import dataclass, field
from random import Random

from repro.codegen.cache import cached_module, module_cache_stats
from repro.codegen.loader import SpecializedCodec
from repro.net import (
    ObfuscatedClient,
    ObfuscatedServer,
    PlanBook,
    SessionKey,
    connect_memory,
    encode_record,
    resolve_framing,
)
from repro.net.framing import make_decoder
from repro.protocols import mqtt, registry
from repro.spec import dump_plan, load_plan_text
from repro.transforms.engine import Obfuscator
from repro.wire import Serializer, cache_stats
from repro.wire.plan import plan_for

PROTOCOLS = ("coap", "dns", "http", "modbus", "mqtt")
#: obfuscation passes per node of every dialect.
LEVEL = 2
#: concurrent client loops (closed loop: each waits for its reply).
SESSIONS = 2
#: a phase is cut into rounds of this many sessions per client loop; outputs
#: are checked between rounds, with no round trip in flight, so the memory
#: the checks hold is bounded and does not grow with the program's speed.
SESSIONS_PER_ROUND = 8

#: MQTT packet types the broker answers (CONNECT is absorbed without reply).
_MQTT_REPLYING = (mqtt.PUBLISH_QOS0, mqtt.PUBLISH_QOS1, mqtt.PINGREQ)

now_ns = time.perf_counter_ns


@dataclass(frozen=True)
class Workload:
    name: str
    framing: str
    specialize: bool
    #: dialects (session keys) derived per protocol.
    pool_size: int
    #: round trips between key rotations (0: sessions never rotate).
    rotate_every: int
    round_trips_per_session: int


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("default_tier", "auto", False, 7, 0, 8),
        # 7 dialects per protocol compile to 63 modules (MQTT's one graph
        # serves both directions), which the 64-slot module cache holds.
        Workload("specialized_record", "record", True, 7, 0, 8),
        # 9 give 81 modules: in steady state about a fifth of the rotations
        # miss the cache, so the median adoption hits and the tail compiles.
        Workload("dialect_churn", "record", True, 9, 4, 16),
    )
}


def sub_seed(seed: int, *parts) -> int:
    """A 64-bit seed derived from ``seed`` and a label, stable across runs."""
    text = repr((seed,) + parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


class _ProbeField:
    __slots__ = ("name", "value")

    def __init__(self, name, value):
        self.name = name
        self.value = value

    def encode(self) -> bytes:
        return _PROBE_STRUCT.pack(self.value & 0xFFFF, len(self.name)) + self.name


_PROBE_STRUCT = struct.Struct(">HB")
_PROBE_NAMES = tuple(f"field{n}".encode() for n in range(8))
#: items per :func:`probe`; with them it takes about 1.5 ms on a calm
#: 2.1 GHz Xeon (``report.PROBE_NOMINAL_NS``).
PROBE_ITEMS = 400


def probe() -> int:
    """Time a fixed pure-Python task, in nanoseconds: the host's speed now.

    The task does the kinds of work a round trip does (small objects, dicts,
    method calls, struct packing, bytes joining and slicing) and none of the
    program's code, so no change to the program moves it; only the host
    does.  The garbage collector is held off meanwhile, so that a larger
    heap of the program's does not slow the probe either.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = now_ns()
        rows = []
        for i in range(PROBE_ITEMS):
            names = _PROBE_NAMES[i % 4:i % 4 + 4]
            rows.append({"id": i, "fields": [_ProbeField(name, i + n)
                                             for n, name in enumerate(names)]})
        total = 0
        for row in rows:
            wire = b"".join(part.encode() for part in row["fields"])
            total += len(wire[3:]) + row["id"]
        elapsed = now_ns() - start
    finally:
        if collecting:
            gc.enable()
    if total <= 0:
        raise AssertionError("probe task computed nothing")
    return elapsed


def build_request(setup, rng: Random):
    """One request the protocol's responder answers."""
    if setup.key == "mqtt":
        return mqtt.random_packet(rng, packet_type=rng.choice(_MQTT_REPLYING))
    return setup.message_generator(rng)


class Tracer:
    """In-memory spans of one traced phase: ``(rt_id, layer, start, end)``."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, int]] = []
        #: layer replay totals (see :func:`replay_layers`).
        self.replay = {"serialize": 0, "frame": 0, "decode": 0, "messages": 0,
                       "mismatches": 0}

    def span(self, rt_id: int, layer: str, start: int, end: int) -> None:
        self.spans.append((rt_id, layer, start, end))


class RecordingResponder:
    """Wraps a protocol's responder: keeps each (decoded request, reply)."""

    def __init__(self, inner):
        self.inner = inner
        self.log: list = []
        self.tracer: Tracer | None = None
        #: round-trip id of the request in flight (set by the client loop).
        self.current_rt = 0

    def __call__(self, message, rng):
        if self.tracer is None:
            reply = self.inner(message, rng)
        else:
            start = now_ns()
            reply = self.inner(message, rng)
            self.tracer.span(self.current_rt, "respond", start, now_ns())
        self.log.append((message, reply))
        return reply


class Deployment:
    """The dialects of one workload and seed, and the servers speaking them.

    ``setup_ms`` holds the wall time of each set-up step: ``derive``
    (``Obfuscator.obfuscate().plan()``), ``plan_file`` (the plan-file text
    round trip), ``from_plans`` (``SessionKey.from_plans``), ``compile``
    (``plan_for`` and, on specialized workloads, ``cached_module`` of every
    pool dialect, so that timing starts from a full module cache rather than
    a cold one being filled) and ``endpoints`` (servers plus one warm-up
    session each).
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.setup_ms = dict.fromkeys(
            ("derive", "plan_file", "from_plans", "compile", "endpoints"), 0.0)
        self.keys: dict[str, list[SessionKey]] = {}
        self.books: dict[str, PlanBook] = {}
        for index, key in enumerate(PROTOCOLS):
            setup = registry.get(key)
            pool = [self._derive_key(setup, sub_seed(seed, "dialect", index, n))
                    for n in range(workload.pool_size)]
            self.keys[key] = pool
            if workload.rotate_every:
                self.books[key] = PlanBook(pool)
            start = time.perf_counter()
            for dialect in pool:
                for graph in {id(g): g for g in (dialect.request_graph,
                                                 dialect.response_graph)}.values():
                    plan_for(graph)
                    if workload.specialize:
                        cached_module(graph, specialize=True)
            self._add("compile", start)

    def opening_dialects(self) -> range:
        """Indices of the pool dialects sessions open on."""
        return range(1 if self.workload.rotate_every else self.workload.pool_size)

    def _add(self, step: str, start: float) -> None:
        self.setup_ms[step] += (time.perf_counter() - start) * 1e3

    def _derive_key(self, setup, seed: int) -> SessionKey:
        start = time.perf_counter()
        plans = [Obfuscator(seed=seed).obfuscate(
            setup.reference_graph("request"), LEVEL).plan()]
        if setup.response_graph_factory is not None:
            plans.append(Obfuscator(seed=seed + 1).obfuscate(
                setup.reference_graph("response"), LEVEL).plan())
        self._add("derive", start)
        start = time.perf_counter()
        plans = [load_plan_text(dump_plan(plan)) for plan in plans]
        self._add("plan_file", start)
        start = time.perf_counter()
        key = SessionKey.from_plans(setup, *plans)
        self._add("from_plans", start)
        return key

    def endpoint_kwargs(self, key: str, dialect: int) -> dict:
        workload = self.workload
        kwargs = {"framing": workload.framing, "specialize": workload.specialize}
        if workload.rotate_every:
            kwargs["plan_book"] = self.books[key]
        else:
            session_key = self.keys[key][dialect]
            kwargs["request_graph"] = session_key.request_graph
            kwargs["response_graph"] = session_key.response_graph
        return kwargs

    def build_servers(self, sessions: int = SESSIONS
                      ) -> list[dict[tuple[str, int], ObfuscatedServer]]:
        """Fresh servers, one per client loop, protocol and opening dialect.

        A server only ever serves one client loop, one session at a time, so
        its responder log lines up with that loop's sessions and its shared
        response serializer draws its randomness in a replayable order.
        """
        servers = []
        for loop in range(sessions):
            row = {}
            for key in PROTOCOLS:
                setup = registry.get(key)
                for dialect in self.opening_dialects():
                    row[key, dialect] = ObfuscatedServer(
                        setup, responder=RecordingResponder(setup.responder),
                        seed=sub_seed(self.seed, "server", loop, key, dialect) % 2**31,
                        **self.endpoint_kwargs(key, dialect))
            servers.append(row)
        return servers

    async def warm_up(self, servers) -> None:
        """One round trip per server, so lazy per-endpoint set-up is done."""
        start = time.perf_counter()
        for loop, row in enumerate(servers):
            for (key, dialect), server in row.items():
                setup = registry.get(key)
                client = connect_memory(ObfuscatedClient(
                    setup, session_id=f"warm-{loop}-{key}-{dialect}",
                    **self.endpoint_kwargs(key, dialect)), server)
                await client.send(build_request(setup, Random(0)))
                if await client.receive() is None:
                    raise ConnectionError(f"{key}: no reply while warming up")
                await client.close()
                server.responder.log.clear()
        self._add("endpoints", start)


@dataclass
class SessionRecord:
    loop: int
    index: int
    protocol: str
    dialect: int
    log_start: int
    attempted: int = 0
    built: list = field(default_factory=list)
    decoded: list = field(default_factory=list)
    keys: list = field(default_factory=list)
    digest: str = ""
    error: str | None = None
    wire_bytes: int = 0
    peak_buffered: int = 0


@dataclass
class PhaseResult:
    """What one phase measured; times in nanoseconds.

    ``latencies`` (send until the reply is decoded) and ``ready`` (adopting a
    dialect until the first reply under it is decoded) map each protocol to
    its samples.
    """

    elapsed_ns: int = 0
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    latencies: dict = field(default_factory=lambda: {k: [] for k in PROTOCOLS})
    ready: dict = field(default_factory=lambda: {k: [] for k in PROTOCOLS})
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    wire_bytes: int = 0
    peak_buffered: int = 0
    sessions: int = 0
    #: per round, when probed: the :func:`probe` time after it, its timed
    #: wall time, and the numbers of ``latencies`` and ``ready`` samples per
    #: protocol once it ended.
    rounds: list = field(default_factory=list)


class Runner:
    """Runs phases of a deployment: rounds of ``sessions`` concurrent loops."""

    def __init__(self, deployment: Deployment, sessions: int = SESSIONS):
        self.dep = deployment
        self.sessions = sessions

    async def run_phase(self, seconds: float, *, tracer: Tracer | None = None,
                        profiler=None, probe_rounds: bool = False
                        ) -> dict[str, PhaseResult]:
        """Run rounds until ``seconds`` of timed wall time are spent.

        Returns ``{"plain": result}``; with a ``tracer``, rounds alternate
        untraced and traced in the order U T T U (so a trend over the phase,
        such as a cache warming up, weighs on both alike) and the traced
        rounds are reported under ``"traced"``.  With ``probe_rounds``,
        :func:`probe` runs after each round, outside the timed wall time.
        """
        servers = self.dep.build_servers(self.sessions)
        results = {"plain": PhaseResult()}
        if tracer is not None:
            results["traced"] = PhaseResult()
        next_index = [0] * self.sessions
        budget_ns = int(seconds * 1e9)
        spent_ns = 0
        round_index = 0
        while spent_ns < budget_ns:
            traced = tracer is not None and round_index % 4 in (1, 2)
            round_index += 1
            result = results["traced" if traced else "plain"]
            for row in servers:
                for server in row.values():
                    server.responder.tracer = tracer if traced else None
            start = now_ns()
            end = start + budget_ns - spent_ns
            if profiler is not None:
                profiler.enable()
            by_loop = await asyncio.gather(*(
                self._client_loop(servers, loop, next_index, end, result,
                                  tracer if traced else None)
                for loop in range(self.sessions)))
            if profiler is not None:
                profiler.disable()
            elapsed = now_ns() - start
            spent_ns += elapsed
            result.elapsed_ns += elapsed
            replay_items = []
            for loop, records in enumerate(by_loop):
                for record in records:
                    server = servers[loop][record.protocol, record.dialect]
                    served = self._check(record, server.responder.log, result)
                    if traced:
                        replay_items.append((record, served))
            if replay_items:
                # Replayed right away, while the heap holds one round, as the
                # sessions' did: a heap grown by a whole phase of kept
                # messages would make every garbage collection slower.
                replay_layers(self.dep, replay_items, tracer.replay)
            for row in servers:
                for server in row.values():
                    server.responder.log.clear()
                    for stats in server.completed:
                        result.peak_buffered = max(result.peak_buffered,
                                                   stats.peak_buffered)
                    server.completed.clear()
            if probe_rounds:
                result.rounds.append({
                    "probe_ns": probe(), "elapsed_ns": elapsed,
                    "latency_samples": {k: len(v) for k, v in result.latencies.items()},
                    "ready_samples": {k: len(v) for k, v in result.ready.items()},
                })
        return results

    async def _client_loop(self, servers, loop, next_index, end, result, tracer):
        records = []
        while len(records) < SESSIONS_PER_ROUND and now_ns() < end:
            index = next_index[loop]
            next_index[loop] += 1
            records.append(await self._session(
                servers[loop], loop, index, result, tracer))
        return records

    async def _session(self, servers, loop, index, result, tracer):
        dep = self.dep
        workload = dep.workload
        key = PROTOCOLS[(loop + index) % len(PROTOCOLS)]
        opening = dep.opening_dialects()
        dialect = opening[(loop + index) // len(PROTOCOLS) % len(opening)]
        setup = registry.get(key)
        server = servers[key, dialect]
        responder = server.responder
        rng = Random(sub_seed(dep.seed, "messages", loop, index))
        record = SessionRecord(loop, index, key, dialect, len(responder.log))
        digest = hashlib.blake2b(digest_size=16)
        pool = dep.keys[key]
        current = pool[dialect]
        rt_base = (loop * 1_000_000 + index) * 1_000
        adopted = now_ns()
        client = connect_memory(ObfuscatedClient(
            setup, session_id=f"{loop}.{index}",
            seed=sub_seed(dep.seed, "client", loop, index) % 2**31,
            **dep.endpoint_kwargs(key, dialect)), server)
        if tracer is not None:
            tracer.span(rt_base, "adopt", adopted, now_ns())
        try:
            for step in range(workload.round_trips_per_session):
                rt_id = rt_base + step
                if workload.rotate_every and step and step % workload.rotate_every == 0:
                    current = pool[rng.randrange(len(pool))]
                    adopted = now_ns()
                    await client.rotate(current.key_id)
                    if tracer is not None:
                        tracer.span(rt_id, "adopt", adopted, now_ns())
                record.attempted += 1
                responder.current_rt = rt_id
                built_at = now_ns()
                message = build_request(setup, rng)
                sent_at = now_ns()
                payload = await client.send(message)
                send_done = now_ns()
                reply = await client.receive()
                done = now_ns()
                if reply is None:
                    raise ConnectionError("server closed before replying")
                result.latencies[key].append(done - sent_at)
                if adopted is not None:
                    result.ready[key].append(done - adopted)
                    adopted = None
                if tracer is not None:
                    tracer.span(rt_id, "build", built_at, sent_at)
                    tracer.span(rt_id, "send", sent_at, send_done)
                    tracer.span(rt_id, "receive", send_done, done)
                    tracer.span(rt_id, "rt", built_at, done)
                    record.keys.append(current)
                digest.update(payload)
                digest.update(reply.raw)
                record.built.append(message)
                record.decoded.append(reply.message)
        except Exception as exc:  # counted as failed round trips, never dropped
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            await client.close()
        record.wire_bytes = client.stats.bytes_sent + client.stats.bytes_received
        record.peak_buffered = client.stats.peak_buffered
        record.digest = digest.hexdigest()
        return record

    def _check(self, record: SessionRecord, log, result: PhaseResult) -> list:
        """Compare what each side decoded with what the other side meant.

        Returns the responder's ``(request, reply)`` entries of the session.
        """
        served = log[record.log_start:record.log_start + len(record.built)]
        verified = 0
        if len(served) == len(record.built):
            for built, decoded, (request, reply) in zip(
                    record.built, record.decoded, served):
                if request == built and decoded == reply:
                    verified += 1
        result.sessions += 1
        result.wire_bytes += record.wire_bytes
        result.peak_buffered = max(result.peak_buffered, record.peak_buffered)
        result.attempted += record.attempted
        result.completed += len(record.decoded)
        result.failed += record.attempted - verified
        if record.error is not None:
            result.errors.append(f"{record.protocol} {record.loop}.{record.index}: "
                                 f"{record.error}")
        # A failed session is already counted; only clean ones are compared.
        if record.error is None:
            result.digests[f"{record.loop}.{record.index}"] = record.digest
        return served


# ---------------------------------------------------------------------------
# layer replay
# ---------------------------------------------------------------------------


class _Direction:
    """Serializer, framing and decoder of one direction of one dialect."""

    def __init__(self, graph, workload: Workload, seed: int):
        self.framing = resolve_framing(graph, workload.framing)
        plan = plan_for(graph)
        factory = None
        if workload.specialize:
            module = cached_module(graph, specialize=True)
            codec = SpecializedCodec(graph, seed=seed, module=module)
            # As in a session: the specialized tier reads the raw dict, since
            # SpecializedCodec.serialize would deep-copy a Message first.
            self.serialize = lambda message: codec.serialize(message.raw)
            if self.framing == "record":
                def factory(g):
                    return SpecializedCodec(g, module=cached_module(g, specialize=True))
        else:
            self.serialize = Serializer(graph, rng=Random(seed), plan=plan).serialize
        self.decoder = make_decoder(graph, self.framing, plan=plan,
                                    parser_factory=factory)


def replay_layers(deployment: Deployment, items, totals: dict) -> None:
    """Re-run traced sessions' messages through the codec layers alone.

    ``items`` holds ``(session record, responder entries)`` pairs.  Adds to
    ``totals`` the nanoseconds of ``serialize`` (Serializer /
    SpecializedCodec.serialize), ``frame`` (encode_record on record framing;
    native framing writes the payload as is) and ``decode``
    (``make_decoder(...).feed``), both directions, plus ``mismatches``:
    replayed decodes differing from the message that was serialized.
    """
    for record, served in items:
        directions = {}
        for key, request, (_, reply) in zip(record.keys, record.built, served):
            for name, graph, message in (("request", key.request_graph, request),
                                         ("response", key.response_graph, reply)):
                codec = directions.get((key.key_id, name))
                if codec is None:
                    codec = directions[key.key_id, name] = _Direction(
                        graph, deployment.workload,
                        sub_seed(deployment.seed, record.protocol))
                start = now_ns()
                payload = codec.serialize(message)
                serialized = now_ns()
                framed = (encode_record(payload) if codec.framing == "record"
                          else payload)
                framed_at = now_ns()
                decoded = codec.decoder.feed(framed)
                end = now_ns()
                totals["serialize"] += serialized - start
                totals["frame"] += framed_at - serialized
                totals["decode"] += end - framed_at
                totals["messages"] += 1
                if len(decoded) != 1 or decoded[0].message != message:
                    totals["mismatches"] += 1


def counters() -> dict:
    """Snapshot of the plan- and module-cache counters (public APIs)."""
    plan = cache_stats()
    module = module_cache_stats()
    return {
        "plan_hits": plan["identity_hits"] + plan["fingerprint_hits"],
        "plan_misses": plan["identity_misses"] + plan["fingerprint_misses"],
        "module_hits": module["hits"],
        "module_misses": module["misses"],
        "module_evictions": module["evictions"],
    }


def counter_delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in before}
