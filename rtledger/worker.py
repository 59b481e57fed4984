"""One fresh-process run of one workload; prints a JSON report on stdout.

Started by ``run.py`` (never imported by it), so set-up, memory and cache
state are never inherited from an earlier run.  Usage::

    python3 rtledger/worker.py '{"workload": "default_tier", "seed": 1,
                                 "mode": "measure", "seconds": 5.0}'

``mode`` is ``measure`` (set up, then one untraced phase) or
``trace`` (set up, then alternating untraced and traced rounds with the
layer replay, then a profiled phase).
"""

from __future__ import annotations

import asyncio
import cProfile
import json
import os
import pstats
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = str(Path(__file__).resolve().parent) + os.sep
ROOT = Path(BENCH_DIR).parent
sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402  (needs the path above)

#: share of a traced run's seconds spent in alternating untraced/traced
#: rounds; the rest runs under cProfile.
TRACED_SHARE = 0.7
#: host-speed probes run just before set-up, and as many just after it.
SETUP_PROBES = 10


def module_group(filename: str, asyncio_dir: str) -> str:
    """The reporting group of a code object's file."""
    if filename.startswith("<generated:"):
        return "codegen.generated"
    if filename.startswith(asyncio_dir):
        return "asyncio"
    if filename.startswith(BENCH_DIR):
        return "bench"
    marker = f"{os.sep}repro{os.sep}"
    at = filename.rfind(marker)
    if at < 0:
        return "other"
    parts = Path(filename[at + len(marker):]).with_suffix("").parts
    if parts[0] == "transforms":
        return "transforms"
    if parts[0] == "protocols" and parts[-1] == "app":
        return "protocols.app"
    return ".".join(parts)


def profile_by_module(profiler: cProfile.Profile) -> dict:
    """``[self ns, calls, builtin calls]`` per module group.

    Time in built-in (C) functions is charged to the module of the Python
    function that called them, split by caller as cProfile recorded it: a
    module's self time includes the C calls it makes, which are counted
    apart from the calls of the module's own functions.
    """
    asyncio_dir = os.path.dirname(asyncio.__file__) + os.sep
    groups: dict[str, list] = {}

    def add(filename, self_s, calls, builtin_calls):
        slot = groups.setdefault(module_group(filename, asyncio_dir), [0.0, 0, 0])
        slot[0] += self_s * 1e9
        slot[1] += calls
        slot[2] += builtin_calls

    for (filename, _line, _name), (_cc, calls, self_s, _cum, callers) in \
            pstats.Stats(profiler).stats.items():
        if filename != "~":
            add(filename, self_s, calls, 0)
            continue
        for (caller_file, _l, _n), caller_stats in callers.items():
            add(caller_file, caller_stats[2], 0, caller_stats[0])
    return groups


def phase_report(result: ledger.PhaseResult) -> dict:
    return {
        "elapsed_ns": result.elapsed_ns,
        "attempted": result.attempted,
        "completed": result.completed,
        "failed": result.failed,
        "errors": result.errors[:5],
        "sessions": result.sessions,
        "digests": result.digests,
    }


async def measure(dep: ledger.Deployment, seconds: float) -> dict:
    result = (await ledger.Runner(dep).run_phase(seconds, probe_rounds=True))["plain"]
    report = phase_report(result)
    report["latencies_ns"] = result.latencies
    report["ready_ns"] = result.ready
    report["rounds"] = result.rounds
    return {"phases": {"measure": report}}


async def trace(dep: ledger.Deployment, seconds: float, keep_spans: bool) -> dict:
    """Alternating untraced/traced rounds, the layer replay, then cProfile.

    One session at a time, so that a span's wall time holds only its own
    layer's work (an await inside it cannot run another session's).
    """
    runner = ledger.Runner(dep, sessions=1)
    tracer = ledger.Tracer()
    before = ledger.counters()
    results = await runner.run_phase(seconds * TRACED_SHARE, tracer=tracer)
    cache = ledger.counter_delta(before, ledger.counters())
    plain, traced = results["plain"], results["traced"]

    profiler = cProfile.Profile()
    profiled = (await runner.run_phase(seconds * (1 - TRACED_SHARE),
                                       profiler=profiler))["plain"]

    span_ns: dict[str, int] = {}
    for _rt, layer, start, end in tracer.spans:
        span_ns[layer] = span_ns.get(layer, 0) + end - start
    report = {
        "phases": {"untraced": phase_report(plain),
                   "traced": phase_report(traced),
                   "profiled": phase_report(profiled)},
        "untraced_rate": plain.completed / (plain.elapsed_ns / 1e9),
        "traced_rate": traced.completed / (traced.elapsed_ns / 1e9),
        "traced_elapsed_ns": traced.elapsed_ns,
        "traced_completed": traced.completed,
        "span_ns": span_ns,
        "replay": tracer.replay,
        "cache": cache,
        "wire_bytes": traced.wire_bytes,
        "peak_buffered": max(plain.peak_buffered, traced.peak_buffered),
        "profiled_completed": profiled.completed,
        "modules": profile_by_module(profiler),
    }
    if keep_spans:
        report["spans"] = tracer.spans
    return report


async def main(config: dict) -> dict:
    workload = ledger.WORKLOADS[config["workload"]]
    setup_probes = [ledger.probe() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    dep = ledger.Deployment(workload, config["seed"])
    await dep.warm_up(dep.build_servers())
    setup_s = time.perf_counter() - start
    setup_probes += [ledger.probe() for _ in range(SETUP_PROBES)]
    if config["mode"] == "measure":
        report = await measure(dep, config["seconds"])
    else:
        report = await trace(dep, config["seconds"], config.get("keep_spans", False))
    report["round_trips_per_session"] = workload.round_trips_per_session
    report["setup_s"] = setup_s
    report["setup_probes_ns"] = setup_probes
    report["setup_ms"] = dep.setup_ms
    # ru_maxrss is in KiB on Linux.
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return report


if __name__ == "__main__":
    print(json.dumps(asyncio.run(main(json.loads(sys.argv[1])))))
