"""A/B comparison on the round-trip ledger: a base revision against this checkout.

Run from the repository root::

    python3 tools/ledger_ab.py --base 41cdf4f --workload specialized_record \\
        --seed 1 --pairs 10
    python3 tools/ledger_ab.py --base 41cdf4f --workload default_tier \\
        --seed 1 --setup-only

Both sides run from fresh copies in one temporary directory, removed
afterwards: the base revision is exported with ``git archive``, and the
change is the working tree's tracked files (uncommitted edits included,
deleted files left out) plus its untracked files that ``.gitignore`` does
not exclude.  Nothing is registered in ``.git``, so an interrupted run
leaves nothing behind to clean up.  The side that goes first alternates
from pair to pair, so drift in host speed weighs on both sides alike.

Each pair of the default mode runs ``rtledger/run.py --trace 0`` for the
``run_seconds`` of ``BENCHMARK.json`` once on each side.  Any run whose
result line is not ``"correct": true`` stops the comparison with exit
status 1.  For every end-to-end metric ``BENCHMARK.json`` lists, two rows
follow: the median and quartiles of each side, and on the change's row the
pairs in which the change was better.  A tie counts for neither side.

``--setup-only`` runs ``rtledger/worker.py`` with ``"seconds": 0`` instead,
20 pairs unless ``--pairs`` says otherwise: each run sets the workload up in
a fresh process and plays no round.  The same rows follow for ``setup_s``
as measured, ``setup_s`` divided by the host slowness of its probes (the
copy's own ``rtledger/report.py`` ``slowness``, as ``run.py`` normalises
it), ``peak_rss_mb`` and each ``setup_ms`` step.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the directory each side runs from.  Their names have one length: one
#: commit run from ``base`` and ``change`` read set-up-only ``peak_rss_mb``
#: 0.7 MB higher on the ``change`` side (+2.2%, 10 of 10 pairs), and run
#: from ``a`` and ``b`` the same on both.
SIDE_DIRS = {"base": "base", "change": "work"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(base: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change beat the base; ties count for neither."""
    sign = 1 if better == "higher" else -1
    return sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)


def summary(metrics: list[dict], base: list[dict], change: list[dict]) -> list[str]:
    """Markdown table rows: each metric's base row, then its change row."""
    rows = ["| Metric | Side | Median | Q1 | Q3 | Pairs better |",
            "|---|---|---|---|---|---|"]
    for metric in metrics:
        name = metric["name"]
        sides = {label: [run["metrics"][name]["value"] for run in runs]
                 for label, runs in (("base", base), ("change", change))}
        won = wins(sides["base"], sides["change"], metric["better"])
        for label, values in sides.items():
            q1, median, q3 = quartiles(values)
            better = f"{won}/{len(values)}" if label == "change" else ""
            rows.append(f"| `{name}` ({metric['unit']}) | {label} | {median:,.4g} "
                        f"| {q1:,.4g} | {q3:,.4g} | {better} |")
    return rows


def setup_metrics(report: dict, slowness) -> dict:
    """A set-up-only worker ``report`` in the shape of a ledger result line:
    raw and normalised ``setup_s``, ``peak_rss_mb`` and every ``setup_ms``
    step.  ``slowness`` maps the median set-up probe to the host's slowness."""
    slow = slowness(statistics.median(report["setup_probes_ns"]))
    values = {"setup_s": report["setup_s"], "setup_s_normalised": report["setup_s"] / slow,
              "peak_rss_mb": report["peak_rss_mb"]}
    values.update((f"setup_ms.{step}", ms) for step, ms in report["setup_ms"].items())
    return {"metrics": {name: {"value": value} for name, value in values.items()}}


def setup_rows(result: dict) -> list[dict]:
    """The metrics of a :func:`setup_metrics` ``result``, for :func:`summary`."""
    units = {"setup_s": "s", "setup_s_normalised": "s", "peak_rss_mb": "MB"}
    return [{"name": name, "unit": units.get(name, "ms"), "better": "lower"}
            for name in result["metrics"]]


def copy_worktree(source: Path, target: Path) -> None:
    """Copy ``source``'s tracked files as they are on disk, and its untracked
    files that ``.gitignore`` does not exclude, into ``target``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=source, check=True, capture_output=True, text=True).stdout
    for name in listed.split("\0"):
        path = source / name
        if name and path.is_file():  # a deleted tracked file is still listed
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path, target / name)


@functools.cache
def load_slowness(checkout: Path):
    """``report.slowness`` of ``checkout``'s ``rtledger/``."""
    spec = importlib.util.spec_from_file_location(
        f"ledger_report_{checkout.name}", checkout / "rtledger" / "report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.slowness


def ledger_run(checkout: Path, args, seconds: float) -> dict:
    """One untraced ledger run in ``checkout``; its JSON result line."""
    done = subprocess.run(
        [sys.executable, "rtledger/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"ledger_ab: rtledger/run.py exited with {done.returncode} in {checkout}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result.get("correct") is not True:
        sys.stderr.write(done.stdout)
        sys.exit(f"ledger_ab: a run in {checkout} was not correct")
    return result


def setup_run(checkout: Path, args) -> dict:
    """One set-up-only worker in ``checkout``; its report as :func:`setup_metrics`."""
    config = {"workload": args.workload, "seed": args.seed, "mode": "measure",
              "seconds": 0}
    # As run.py starts its workers: never inherit compiled modules.
    env = {name: value for name, value in os.environ.items()
           if name != "REPRO_CODEGEN_CACHE"}
    done = subprocess.run([sys.executable, "rtledger/worker.py", json.dumps(config)],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"ledger_ab: rtledger/worker.py exited with {done.returncode} in {checkout}")
    return setup_metrics(json.loads(done.stdout), load_slowness(checkout))


def measure(sides: dict[str, Path], args, run) -> tuple[list[dict], list[dict]]:
    """``args.pairs`` alternated pairs of ``run(checkout)``: base runs, change runs."""
    results: dict[str, list[dict]] = {label: [] for label in sides}
    metric = "setup_s" if args.setup_only else "rt_per_s"
    for pair in range(args.pairs):
        order = list(sides.items())
        if pair % 2:
            order.reverse()
        for label, checkout in order:
            results[label].append(run(checkout))
            value = results[label][-1]["metrics"][metric]["value"]
            print(f"pair {pair + 1}/{args.pairs} {label}: {metric} {value:,.4g}",
                  file=sys.stderr, flush=True)
    return results["base"], results["change"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, help="default 10, or 20 with --setup-only")
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up alone, in fresh worker processes")
    args = parser.parse_args()
    if args.pairs is None:
        args.pairs = 20 if args.setup_only else 10
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    archive = subprocess.run(["git", "archive", "--format=tar", args.base], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="ledger_ab_") as tmp:
        sides = {label: Path(tmp, name) for label, name in SIDE_DIRS.items()}
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(sides["base"], filter="data")
        copy_worktree(ROOT, sides["change"])
        if args.setup_only:
            base, change = measure(sides, args, lambda checkout: setup_run(checkout, args))
            metrics = setup_rows(base[0])
            runs = "set-up-only runs"
        else:
            base, change = measure(
                sides, args, lambda checkout: ledger_run(checkout, args, seconds))
            metrics = benchmark["end_to_end"]
            runs = f"{seconds:g} s runs"
    print(f"{args.workload}, seed {args.seed}: {args.pairs} alternated pairs of "
          f"{runs}, base {args.base}, change the working tree")
    print("\n".join(summary(metrics, base, change)))


if __name__ == "__main__":
    main()
