"""Round-trip ledger: obfuscated request/reply round trips, end to end.

Run from the repository root::

    python3 rtledger/run.py --workload default_tier --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: it starts :data:`WORKERS`
fresh worker processes one after another, each setting the workload up cold
and measuring for an equal share of ``--seconds``.  Their times are stated
at a nominal host speed, from a fixed probe task timed between rounds (see
``report.end_to_end``); the wall-clock values are printed beneath them
but left out of the result line.  ``--trace 1`` starts one
worker that measures the per-layer metrics (spans, the codec replay, cProfile
and cache counters) and runs the layer-separation self-check.

Every run checks outputs: each request the server decoded against the
message the client built, each reply the client decoded against the one the
responder returned, and each session's wire digest across runs of the same
seed.  A summary goes to standard output, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--out PATH``
also writes the full report (run metadata, sample counts, raw worker
reports and, for traced runs, every span) to ``PATH``; nothing is written
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import report

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: cold-started workers per untraced run; set-up time is their median.
WORKERS = 4
#: seconds the whole run may take; a worker still running then is killed
#: and the run fails.
RUN_DEADLINE_S = 170


def fail(message: str) -> None:
    print(f"rtledger: {message}", file=sys.stderr)
    sys.exit(2)


def run_worker(config: dict, deadline: float) -> dict:
    env = dict(os.environ)
    # Never inherit compiled modules from an earlier run.
    env.pop("REPRO_CODEGEN_CACHE", None)
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(config)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"worker still running {RUN_DEADLINE_S} s after the start: {config}")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"worker exited with code {done.returncode}: {config}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def revision() -> str:
    """The checkout's git commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def metadata(args) -> dict:
    try:
        import numpy  # noqa: F401  (only its presence is recorded)
        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "revision": revision(),
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "numpy": has_numpy,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full report here (JSON)")
    args = parser.parse_args()
    if args.workload not in report.WORKLOAD_NAMES:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(report.WORKLOAD_NAMES)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")

    deadline = time.monotonic() + RUN_DEADLINE_S
    meta = metadata(args)
    config = {"workload": args.workload, "seed": args.seed}
    wall_clock = {}
    if args.trace:
        workers = [run_worker({**config, "mode": "trace",
                               "seconds": args.seconds,
                               "keep_spans": args.out is not None}, deadline)]
        metrics, checks = report.per_layer(workers[0], args.workload)
        traced = workers[0]["phases"]
        # The alternating rounds are one run, the profiled phase another.
        digests = [{**traced["untraced"]["digests"], **traced["traced"]["digests"]},
                   traced["profiled"]["digests"]]
        phases = list(traced.values())
        samples = {"traced_round_trips": workers[0]["traced_completed"],
                   "profiled_round_trips": workers[0]["profiled_completed"]}
    else:
        workers = [run_worker({**config, "mode": "measure",
                               "seconds": args.seconds / WORKERS}, deadline)
                   for _ in range(WORKERS)]
        metrics, samples = report.end_to_end(workers)
        wall_clock, _ = report.end_to_end(workers, normalise=False)
        checks = []
        digests = [worker["phases"]["measure"]["digests"] for worker in workers]
        phases = [worker["phases"]["measure"] for worker in workers]

    mismatched = report.compare_digests(digests)
    attempted = sum(phase["attempted"] for phase in phases)
    # A session whose wire differs between runs fails every round trip in it.
    failed = min(attempted, sum(phase["failed"] for phase in phases)
                 + len(mismatched) * workers[0]["round_trips_per_session"])
    checks.append(("wire digests repeat across runs", not mismatched,
                   f"{len(mismatched)} of "
                   f"{len(set().union(*digests))} sessions differ"))
    correct = failed == 0 and all(passed for _, passed, _ in checks)

    print(f"rtledger {meta['workload']} seed={meta['seed']} "
          f"trace={meta['trace']} rev={meta['revision'][:12]} "
          f"python={meta['python']} nproc={meta['nproc']} numpy={meta['numpy']} "
          f"platform={meta['platform']}")
    print(f"  samples: {', '.join(f'{k}={v}' for k, v in samples.items())}")
    print(f"  failed_ratio: {failed / attempted:.6f} ({failed} of {attempted} "
          f"round trips)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40} {value:14.4f} {unit}")
    for name, (value, unit) in wall_clock.items():
        if (value, unit) != metrics[name]:
            print(f"  {name + ' (wall clock)':40} {value:14.4f} {unit}")
    for name, passed, detail in checks:
        print(f"  check {'ok  ' if passed else 'FAIL'} {name}: {detail}")
    for phase in phases:
        for error in phase["errors"]:
            print(f"  error: {error}")

    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.out is not None:
        args.out.write_text(json.dumps({
            **result, "meta": meta, "samples": samples, "checks": checks,
            "workers": workers,
        }) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
