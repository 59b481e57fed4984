"""Metrics and checks computed from worker reports (no ``repro`` import)."""

from __future__ import annotations

import math
import statistics

WORKLOAD_NAMES = ("default_tier", "specialized_record", "dialect_churn")

#: the modules the cProfile pass reports, as ``src/repro`` module names
#: (``transforms`` and ``protocols.app`` group packages; ``asyncio`` is the
#: standard library's; ``codegen.generated`` is code the emitter produced).
PROFILED_MODULES = (
    "core.fieldpath", "core.message", "core.values", "wire.serializer",
    "wire.parser", "wire.pieces", "wire.plan", "wire.streaming", "net.framing",
    "net.session", "net.rotation", "codegen.generated", "codegen.specializer",
    "codegen.cache", "transforms", "protocols.app", "asyncio",
)

#: which span layer a profiled module's time belongs to, for the check that
#: cProfile and the spans agree; unlisted ``wire.*`` modules are codec,
#: other unlisted ``codegen.*``/``core.*`` modules are adoption (compiling).
MODULE_LAYER = {
    "protocols.app": "application", "core.message": "application",
    "core.fieldpath": "application",
    "codegen.generated": "codec", "core.values": "codec", "net.framing": "codec",
    "codegen.loader": "adopt", "net.rotation": "adopt", "transforms": "adopt",
    "asyncio": "loop", "net.session": "loop", "net.resilience": "loop",
}

#: the layers' shares may differ by this much before the top layers of the
#: spans and of cProfile are said to disagree.
AGREEMENT_TOLERANCE = 0.3
#: the codec replay may exceed the traced round trip by this share (the
#: replay runs the same work outside the session, not the same instructions).
RESIDUAL_TOLERANCE = 0.05

#: ``ledger.probe``'s time on a calm host (a 2.1 GHz Xeon): the host speed
#: that normalised time metrics are stated at.  Fixed for good, so that
#: metrics of different commits stay comparable.
PROBE_NOMINAL_NS = 1_500_000
#: rounds whose probes set one round's host slowness (see round_slowness).
PROBE_WINDOW = 5
#: how much of the probe's slowdown the measured work shares: the slope of
#: log round-trip time on log probe time, fitted over runs of all three
#: workloads on a shared host (0.4-0.8 by workload and metric).
PROBE_ELASTICITY = 0.6


def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def compare_digests(runs: list[dict]) -> list[str]:
    """Sessions whose wire digest differs between runs of the same seed."""
    mismatched = []
    first, *others = runs
    for other in others:
        for session in sorted(first.keys() & other.keys()):
            if first[session] != other[session]:
                mismatched.append(session)
    return mismatched


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values))


def slowness(probe_ns: float) -> float:
    """How much slower than nominal the host ran the measured work."""
    return (probe_ns / PROBE_NOMINAL_NS) ** PROBE_ELASTICITY


def round_slowness(rounds: list[dict]) -> list[float]:
    """Per round, how slow the host ran (:func:`slowness`).

    Each round takes the median probe of the :data:`PROBE_WINDOW` rounds
    centred on it, so a probe that a stray interrupt lengthened weighs
    nothing.
    """
    probes = [round_["probe_ns"] for round_ in rounds]
    half = PROBE_WINDOW // 2
    return [slowness(statistics.median(probes[max(0, i - half):i + half + 1]))
            for i in range(len(probes))]


def end_to_end(reports: list[dict], normalise: bool = True) -> tuple[dict, dict]:
    """End-to-end metrics of measure-mode workers, plus sample counts.

    With ``normalise``, every time is divided by the host's slowness when it
    was taken (:func:`round_slowness`; for set-up, the median of the probes
    around it), which states it at the nominal host speed.  Samples of every
    worker are pooled.  Percentiles are taken per protocol and combined as a
    geometric mean, which weighs each protocol alike (a pooled median would
    sit in whichever protocol's latencies fall in the middle of the mix).
    """
    pooled: dict[str, dict[str, list]] = {"latencies_ns": {}, "ready_ns": {}}
    elapsed_s = 0.0
    setups = []
    slowness_all = []
    for report in reports:
        phase = report["phases"]["measure"]
        rounds = phase["rounds"]
        by_round = round_slowness(rounds)
        slowness_all += by_round
        if not normalise:
            by_round = [1.0] * len(rounds)
        for name, counts in (("latencies_ns", "latency_samples"),
                             ("ready_ns", "ready_samples")):
            taken = dict.fromkeys(phase[name], 0)
            for round_, slow in zip(rounds, by_round):
                for protocol, end in round_[counts].items():
                    pooled[name].setdefault(protocol, []).extend(
                        sample / slow
                        for sample in phase[name][protocol][taken[protocol]:end])
                    taken[protocol] = end
        elapsed_s += sum(round_["elapsed_ns"] / slow
                         for round_, slow in zip(rounds, by_round)) / 1e9
        setup_slow = (slowness(statistics.median(report["setup_probes_ns"]))
                      if normalise else 1.0)
        setups.append(report["setup_s"] / setup_slow)
    latencies, ready = pooled["latencies_ns"], pooled["ready_ns"]

    def across(samples, q, scale):
        return geomean(percentile(values, q)
                       for values in samples.values() if values) / scale

    completed = sum(report["phases"]["measure"]["completed"] for report in reports)
    metrics = {
        "rt_per_s": (completed / elapsed_s, "1/s"),
        "rt_p50_us": (across(latencies, 50, 1e3), "us"),
        "rt_p95_us": (across(latencies, 95, 1e3), "us"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
        "dialect_ready_p50_ms": (across(ready, 50, 1e6), "ms"),
        "dialect_ready_p95_ms": (across(ready, 95, 1e6), "ms"),
    }
    samples = {
        "workers": len(reports),
        "round_trips_per_protocol": min(len(v) for v in latencies.values()),
        "adoptions_per_protocol": min(len(v) for v in ready.values()),
        "probed_rounds": len(slowness_all),
        "host_slowness_median": round(statistics.median(slowness_all), 3),
    }
    return metrics, samples


def _profile_layers(report: dict) -> tuple[dict, float]:
    """Per-round-trip µs of each layer by cProfile, less its per-call cost.

    cProfile charges a roughly constant cost to every call it records, which
    inflates call-heavy code.  That cost is estimated from this run: the
    profiled round trip's excess over the untraced one, per recorded call.
    """
    profiled = report["phases"]["profiled"]
    plain = report["phases"]["untraced"]
    rts = profiled["completed"]
    excess_us = (profiled["elapsed_ns"] / rts
                 - plain["elapsed_ns"] / plain["completed"]) / 1e3
    calls = sum(own + builtin for _, own, builtin in report["modules"].values())
    call_cost_us = max(0.0, excess_us / (calls / rts))
    layers: dict[str, float] = {}
    for module, (self_ns, own, builtin) in report["modules"].items():
        layer = MODULE_LAYER.get(module)
        if layer is None:
            if module.startswith("wire."):
                layer = "codec"
            elif module.startswith(("codegen.", "core.")):
                layer = "adopt"
            else:
                continue  # other code, and this benchmark's own
        corrected = (self_ns / 1e3 - call_cost_us * (own + builtin)) / rts
        layers[layer] = layers.get(layer, 0.0) + max(0.0, corrected)
    return layers, call_cost_us


def per_layer(report: dict, workload: str) -> tuple[dict, list]:
    """Per-layer metrics of a trace-mode worker, plus the self-check."""
    traced_rts = report["traced_completed"]
    span = report["span_ns"]
    replay = report["replay"]

    def us_per_rt(ns):
        return ns / traced_rts / 1e3

    layers = {
        "build": us_per_rt(span["build"]),
        "respond": us_per_rt(span["respond"]),
        "serialize": us_per_rt(replay["serialize"]),
        "frame": us_per_rt(replay["frame"]),
        "decode": us_per_rt(replay["decode"]),
        "adopt": us_per_rt(span["adopt"]),
    }
    rt_us = us_per_rt(report["traced_elapsed_ns"])
    layers["loop"] = rt_us - sum(layers.values())
    metrics = {"layer.rt_us": (rt_us, "us")}
    for name, value in layers.items():
        metrics[f"layer.{name}_us"] = (value, "us")
    metrics["layer.send_us"] = (us_per_rt(span["send"]), "us")
    metrics["layer.receive_us"] = (us_per_rt(span["receive"]), "us")
    for step, value in report["setup_ms"].items():
        metrics[f"setup.{step}_ms"] = (value, "ms")

    modules = report["modules"]
    profiled_rts = report["phases"]["profiled"]["completed"]
    total_ns = sum(self_ns for self_ns, _, _ in modules.values())
    for module in PROFILED_MODULES:
        self_ns, calls, _ = modules.get(module, (0.0, 0, 0))
        metrics[f"{module}.self_pct"] = (100 * self_ns / total_ns, "%")
        metrics[f"{module}.calls_per_rt"] = (calls / profiled_rts, "count")
    metrics["profile.self_us_per_rt"] = (total_ns / profiled_rts / 1e3, "us")
    profile_layers, call_cost_us = _profile_layers(report)
    metrics["profile.call_cost_ns"] = (call_cost_us * 1e3, "ns")

    cache = report["cache"]
    timed_rts = report["phases"]["untraced"]["completed"] + traced_rts
    plan_lookups = cache["plan_hits"] + cache["plan_misses"]
    module_lookups = cache["module_hits"] + cache["module_misses"]
    # No lookup means no miss: an unused cache reads as fully effective.
    metrics["wire.plan.cache_hit_ratio"] = (
        cache["plan_hits"] / plan_lookups if plan_lookups else 1.0, "ratio")
    metrics["codegen.cache.hit_ratio"] = (
        cache["module_hits"] / module_lookups if module_lookups else 1.0, "ratio")
    metrics["codegen.cache.misses_per_rt"] = (cache["module_misses"] / timed_rts,
                                              "count")
    metrics["codegen.cache.evictions_per_rt"] = (
        cache["module_evictions"] / timed_rts, "count")
    metrics["net.session.peak_buffered_bytes"] = (report["peak_buffered"], "bytes")
    metrics["net.session.wire_bytes_per_rt"] = (report["wire_bytes"] / traced_rts,
                                                "bytes")
    metrics["trace.overhead_ratio"] = (
        report["traced_rate"] / report["untraced_rate"], "ratio")

    span_layers = {"application": layers["build"] + layers["respond"],
                   "codec": layers["serialize"] + layers["frame"] + layers["decode"],
                   "adopt": layers["adopt"], "loop": layers["loop"]}
    checks = _self_check(workload, report, modules, span_layers, profile_layers,
                         rt_us)
    return metrics, checks


def _top_agrees(ranked: dict, other: dict) -> bool:
    """``other``'s top layer is within tolerance of the top of ``ranked``."""
    return ranked.get(max(other, key=other.get), 0.0) >= \
        (1 - AGREEMENT_TOLERANCE) * max(ranked.values())


def _self_check(workload, report, modules, span_layers, profile_layers, rt_us):
    """``[(name, passed, detail)]``: does each workload do what it is for?"""
    cache = report["cache"]
    checks = []
    if workload == "specialized_record":
        calls = modules.get("wire.streaming", (0, 0, 0))[1]
        checks.append(("streaming decode bypassed", calls == 0,
                       f"{calls} wire.streaming calls"))
    if workload in ("default_tier", "specialized_record"):
        checks.append(("no compile while timed", cache["module_misses"] == 0,
                       f"{cache['module_misses']} module cache misses"))
    if workload == "dialect_churn":
        checks.append(("rotations miss and evict",
                       cache["module_misses"] > 0 and cache["module_evictions"] > 0,
                       f"{cache['module_misses']} misses, "
                       f"{cache['module_evictions']} evictions"))
    loop = span_layers["loop"]
    checks.append(("layers add up to the round trip",
                   loop >= -RESIDUAL_TOLERANCE * rt_us,
                   f"loop residual {loop:.1f} of {rt_us:.1f} us"))
    checks.append(("replayed decodes match", report["replay"]["mismatches"] == 0,
                   f"{report['replay']['mismatches']} mismatches"))
    profile_top = max(profile_layers, key=profile_layers.get)
    span_top = max(span_layers, key=span_layers.get)
    agree = (_top_agrees(span_layers, profile_layers)
             and _top_agrees(profile_layers, span_layers))
    checks.append(("cProfile agrees with spans", agree,
                   f"top layer {span_top} by spans, {profile_top} by cProfile"))
    return checks
