"""A/B comparison on the round-trip ledger: a base revision against this checkout.

Run from the repository root::

    python3 tools/ledger_ab.py --base 41cdf4f --workload specialized_record \\
        --seed 1 --pairs 10

The base revision is exported with ``git archive`` into a temporary
directory, removed afterwards; nothing is registered in ``.git``, so an
interrupted run leaves nothing behind to clean up.  Each pair runs
``rtledger/run.py --trace 0`` for the ``run_seconds`` of ``BENCHMARK.json``
once on each side, one after the other; the
side that goes first alternates from pair to pair, so drift in host speed
weighs on both sides alike.  Any run whose result line is not
``"correct": true`` stops the comparison with exit status 1.

For every end-to-end metric ``BENCHMARK.json`` lists, two rows follow: the
median and quartiles of each side, and on the change's row the pairs in
which the change was better.  A tie counts for neither side.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def measure(base_dir: Path, args, seconds: float) -> tuple[list[dict], list[dict]]:
    base, change = [], []
    for pair in range(args.pairs):
        order = [("base", base_dir, base), ("change", ROOT, change)]
        if pair % 2:
            order.reverse()
        for label, checkout, runs in order:
            runs.append(ledger_run(checkout, args, seconds))
            value = runs[-1]["metrics"]["rt_per_s"]["value"]
            print(f"pair {pair + 1}/{args.pairs} {label}: rt_per_s {value:,.1f}",
                  file=sys.stderr, flush=True)
    return base, change


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    archive = subprocess.run(["git", "archive", "--format=tar", args.base], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="ledger_ab_") as checkout:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(checkout, filter="data")
        base, change = measure(Path(checkout), args, seconds)
    print(f"{args.workload}, seed {args.seed}: {args.pairs} alternated pairs of "
          f"{seconds:g} s runs, base {args.base}")
    print("\n".join(summary(benchmark["end_to_end"], base, change)))


if __name__ == "__main__":
    main()
