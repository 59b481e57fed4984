"""Transparent obfuscation gateway between two format-graph pairs.

An :class:`ObfuscatedProxy` terminates sessions speaking one wire format and
re-speaks them upstream in another — typically *plain* on the listen side and
*obfuscated* on the upstream side (or the reverse, as a de-obfuscating edge).
Because every wire format of a protocol decodes to the same logical
:class:`~repro.core.message.Message`, bridging is parse → re-serialize per
direction; no per-protocol code is involved.

This is the deployment story of the paper's framework: unmodified core
applications keep speaking the plain protocol while the obfuscated dialect —
a different randomly drawn graph per deployment — runs only between the two
gateways an observer can sniff.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from random import Random

from ..core.errors import BudgetExceeded
from ..core.graph import FormatGraph
from ..protocols import registry
from ..wire.plan import plan_for
from ..wire.serializer import Serializer
from .capture import Capture
from .faults import FaultPlan, FaultyWriter
from .framing import CorruptRecord, frame_payload, make_decoder, resolve_framing
from .resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    RealClock,
    ResilienceTrace,
    RetryPolicy,
    TimeoutConfig,
    retry_operation,
)
from .governance import ResourceBudget
from .session import _MessagePump, half_close


@dataclass
class ProxyStats:
    """Per-session bridging accounting (message counts per direction)."""

    session: str
    requests: int = 0
    responses: int = 0
    #: corrupt records skipped by framing resync (resync-enabled proxies).
    resyncs: int = 0
    #: failed upstream dial attempts behind this session.
    dial_failures: int = 0
    #: upstream dials re-driven by the retry policy.
    retries: int = 0
    #: high-water mark of bytes buffered by the heaviest bridge pump.
    peak_buffered: int = 0
    #: typed resource-budget violations that killed this bridge.
    budget_violations: int = 0
    error: str | None = None


class _Leg:
    """One side of the bridge: graphs, framings and codecs of a graph pair."""

    def __init__(self, request_graph: FormatGraph, response_graph: FormatGraph,
                 framing: str, seed: int):
        self.request_graph = request_graph
        self.response_graph = response_graph
        #: plan fingerprint of the request graph (capture tagging).
        self.request_fingerprint = getattr(request_graph, "plan_fingerprint", None)
        self.request_plan = plan_for(request_graph)
        self.response_plan = plan_for(response_graph)
        self.request_framing = resolve_framing(request_graph, framing)
        self.response_framing = resolve_framing(response_graph, framing)
        self.request_serializer = Serializer(request_graph, rng=Random(seed),
                                             plan=self.request_plan)
        self.response_serializer = Serializer(response_graph, rng=Random(seed),
                                              plan=self.response_plan)


class ObfuscatedProxy:
    """Bridges sessions between a *listen* and an *upstream* wire format.

    ``listen_*``/``upstream_*`` graphs default to the protocol's plain
    specification; pass obfuscated graphs on one side to build the gateway.
    An attached :class:`~repro.net.capture.Capture` records the traffic the
    proxy serializes on the upstream leg (the obfuscated segment an on-path
    observer sees), with full ground truth since the proxy re-serialized it,
    each record tagged with the upstream request graph's plan fingerprint.
    """

    def __init__(self, protocol: "str | registry.ProtocolSetup", *,
                 listen_request_graph: FormatGraph | None = None,
                 listen_response_graph: FormatGraph | None = None,
                 upstream_request_graph: FormatGraph | None = None,
                 upstream_response_graph: FormatGraph | None = None,
                 framing: str = "auto",
                 seed: int = 0,
                 capture: Capture | None = None,
                 record_spans: bool | None = None,
                 resync: bool = False,
                 timeouts: TimeoutConfig | None = None,
                 retry: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 budget: ResourceBudget | None = None,
                 clock=None):
        self.setup = (registry.get(protocol) if isinstance(protocol, str)
                      else protocol)
        #: per-session resource limits threaded into both bridge pumps.
        self.budget = budget
        #: skip corrupt records at record boundaries instead of failing the
        #: bridge; applies to record-framed legs (native streams have no
        #: boundary to resume at).
        self.resync = resync
        plain_request = self.setup.reference_graph("request")
        plain_response = (self.setup.reference_graph("response")
                          if self.setup.response_graph_factory is not None
                          else plain_request)
        self.listen = _Leg(
            listen_request_graph if listen_request_graph is not None else plain_request,
            listen_response_graph if listen_response_graph is not None else plain_response,
            framing, seed,
        )
        self.upstream = _Leg(
            upstream_request_graph if upstream_request_graph is not None else plain_request,
            upstream_response_graph if upstream_response_graph is not None else plain_response,
            framing, seed,
        )
        self.capture = capture
        self.record_spans = (capture is not None if record_spans is None
                             else record_spans)
        if self.capture is not None and self.capture.protocol is None:
            self.capture.protocol = self.setup.key
        self._session_ids = itertools.count(1)
        self.completed: list[ProxyStats] = []
        self._tcp_server: asyncio.AbstractServer | None = None
        #: upstream dial resilience: per-dial deadline, seeded retry/backoff,
        #: and a circuit breaker refusing fast while the upstream is down.
        self.timeouts = timeouts if timeouts is not None else TimeoutConfig()
        self.retry = retry
        self._clock = clock if clock is not None else RealClock()
        self.trace = ResilienceTrace()
        self.breaker = breaker
        if self.breaker is not None and self.breaker.trace is None:
            self.breaker.trace = self.trace
        #: failed upstream dials across the proxy's lifetime.
        self.dial_failures = 0

    # -- bridging --------------------------------------------------------------

    async def bridge(self, client_reader, client_writer,
                     upstream_reader, upstream_writer, *,
                     session_id: str | None = None,
                     upstream_faults: FaultPlan | None = None,
                     dial_stats: "ProxyStats | None" = None) -> ProxyStats:
        """Pump both directions of one session until both sides hit EOF.

        ``upstream_faults`` puts a seeded hostile link under the proxy's
        upstream write leg — the obfuscated segment the threat model exposes.
        ``dial_stats`` carries the dial-retry accounting of the connection
        phase into this session's completed entry.
        """
        if dial_stats is not None:
            stats = dial_stats
            session = stats.session
        else:
            session = (session_id if session_id is not None
                       else f"proxy-{next(self._session_ids)}")
            stats = ProxyStats(session)
        if upstream_faults is not None:
            upstream_writer = FaultyWriter(upstream_writer, upstream_faults)

        async def pump_requests():
            pump = _MessagePump(
                client_reader,
                make_decoder(self.listen.request_graph,
                             self.listen.request_framing,
                             plan=self.listen.request_plan,
                             resync=(self.resync
                                     and self.listen.request_framing == "record"),
                             budget=self.budget),
                budget=self.budget, stats=stats,
            )
            try:
                while True:
                    decoded = await pump.next()
                    if decoded is None:
                        break
                    if isinstance(decoded, CorruptRecord):
                        stats.resyncs += 1
                        continue
                    payload, spans = self._encode_upstream(decoded.message)
                    self._capture(session, "request", payload, decoded.message,
                                  spans)
                    upstream_writer.write(
                        frame_payload(payload, self.upstream.request_framing))
                    await upstream_writer.drain()
                    stats.requests += 1
            finally:
                half_close(upstream_writer)

        async def pump_responses():
            pump = _MessagePump(
                upstream_reader,
                make_decoder(self.upstream.response_graph,
                             self.upstream.response_framing,
                             plan=self.upstream.response_plan,
                             resync=(self.resync
                                     and self.upstream.response_framing == "record"),
                             budget=self.budget),
                budget=self.budget, stats=stats,
            )
            try:
                while True:
                    decoded = await pump.next()
                    if decoded is None:
                        break
                    if isinstance(decoded, CorruptRecord):
                        stats.resyncs += 1
                        continue
                    payload = self.listen.response_serializer.serialize(decoded.message)
                    client_writer.write(
                        frame_payload(payload, self.listen.response_framing))
                    await client_writer.drain()
                    stats.responses += 1
            finally:
                half_close(client_writer)

        pumps = (asyncio.ensure_future(pump_requests()),
                 asyncio.ensure_future(pump_responses()))
        try:
            await asyncio.gather(*pumps)
        except BaseException as exc:
            # One direction failed: reel in the sibling pump so it cannot
            # keep mutating stats (or log unretrieved exceptions) after the
            # session was recorded as completed.
            for pump in pumps:
                pump.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)
            if isinstance(exc, BudgetExceeded):
                stats.budget_violations += 1
                self.trace.record("budget", resource=exc.resource,
                                  session=session)
            if isinstance(exc, Exception):
                stats.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self.completed.append(stats)
        return stats

    def _encode_upstream(self, message) -> tuple[bytes, "list | None"]:
        """Serialize one bridged request (with spans when the capture wants them)."""
        if self.capture is not None and self.record_spans:
            return self.upstream.request_serializer.serialize_with_spans(message)
        return self.upstream.request_serializer.serialize(message), None

    def _capture(self, session, direction, payload, message, spans=None) -> None:
        if self.capture is not None:
            self.capture.record(session=session, direction=direction,
                                data=payload, spans=spans, logical=message,
                                plan_fingerprint=self.upstream.request_fingerprint)

    # -- TCP front-end ---------------------------------------------------------

    async def dial_upstream(self, host: str, port: int, *,
                            stats: "ProxyStats | None" = None):
        """Dial the upstream under the connect deadline, retry policy and breaker.

        Every failed attempt is counted (``stats.dial_failures`` and the
        proxy-wide ``dial_failures``) and recorded on the breaker; an open
        breaker refuses immediately with
        :class:`~repro.net.resilience.CircuitOpen` — the fast-fail that
        protects a dying upstream from a dial storm.
        """

        async def once():
            deadline = Deadline.after(self._clock, self.timeouts.connect,
                                      operation="upstream connect")
            try:
                return await deadline.wait_for(asyncio.open_connection(host, port))
            except (OSError, DeadlineExceeded) as exc:
                self.dial_failures += 1
                if stats is not None:
                    stats.dial_failures += 1
                self.trace.record("dial_failure", error=type(exc).__name__)
                raise

        if self.retry is None:
            if self.breaker is not None:
                self.breaker.check("upstream dial")
                try:
                    result = await once()
                except (OSError, asyncio.TimeoutError, TimeoutError):
                    self.breaker.record_failure()
                    raise
                self.breaker.record_success()
                return result
            return await once()

        async def note_retry(attempt, exc):
            if stats is not None:
                stats.retries += 1

        return await retry_operation(
            once, self.retry, clock=self._clock, breaker=self.breaker,
            trace=self.trace, label="upstream_dial", on_retry=note_retry,
        )

    async def start_tcp(self, upstream_host: str, upstream_port: int,
                        host: str = "127.0.0.1", port: int = 0
                        ) -> tuple[str, int]:
        """Listen on ``host:port``, bridging every session to ``upstream``."""

        async def handle(reader, writer):
            session = f"proxy-{next(self._session_ids)}"
            stats = ProxyStats(session)
            try:
                up_reader, up_writer = await self.dial_upstream(
                    upstream_host, upstream_port, stats=stats)
            except Exception as exc:
                # A failed upstream dial is a diagnosed, recorded session —
                # never a silent drop — and the rejected client connection is
                # torn down completely, not left half-closed.
                stats.error = f"{type(exc).__name__}: {exc}"
                self.completed.append(stats)
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, ConnectionError):  # pragma: no cover
                    pass
                return
            try:
                await self.bridge(reader, writer, up_reader, up_writer,
                                  session_id=session, dial_stats=stats)
            except Exception:
                pass
            finally:
                for stream_writer in (writer, up_writer):
                    try:
                        stream_writer.close()
                    except Exception:  # pragma: no cover
                        pass

        self._tcp_server = await asyncio.start_server(handle, host, port)
        sockname = self._tcp_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def stop(self) -> None:
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None


