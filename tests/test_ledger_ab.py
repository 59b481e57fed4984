"""The summary arithmetic of ``tools/ledger_ab.py`` and its copy of the
working tree (no ledger run starts)."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ledger_ab.py"
spec = importlib.util.spec_from_file_location("ledger_ab", TOOL)
ledger_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ledger_ab)


def run(**values: float) -> dict:
    """A ledger result line carrying ``values``."""
    return {"correct": True, "metrics": {name: {"value": value}
                                         for name, value in values.items()}}


def test_quartiles_are_inclusive():
    assert ledger_ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ledger_ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ledger_ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    base, change = [10, 20, 30, 40], [11, 20, 29, 50]
    assert ledger_ab.wins(base, change, "higher") == 2
    assert ledger_ab.wins(base, change, "lower") == 1
    assert ledger_ab.wins(base, change, "lower") + ledger_ab.wins(
        change, base, "lower") == 3


def test_summary_prints_two_rows_per_metric():
    metrics = [{"name": "rt_per_s", "unit": "1/s", "better": "higher"},
               {"name": "rt_p50_us", "unit": "us", "better": "lower"}]
    base = [run(rt_per_s=100, rt_p50_us=5), run(rt_per_s=110, rt_p50_us=5),
            run(rt_per_s=90, rt_p50_us=5)]
    change = [run(rt_per_s=120, rt_p50_us=4), run(rt_per_s=105, rt_p50_us=5),
              run(rt_per_s=130, rt_p50_us=6)]
    rows = ledger_ab.summary(metrics, base, change)
    assert rows[2:] == [
        "| `rt_per_s` (1/s) | base | 100 | 95 | 105 |  |",
        "| `rt_per_s` (1/s) | change | 120 | 112.5 | 125 | 2/3 |",
        "| `rt_p50_us` (us) | base | 5 | 5 | 5 |  |",
        "| `rt_p50_us` (us) | change | 5 | 4.5 | 5.5 | 1/3 |",
    ]


def test_setup_only_metrics_divide_setup_s_by_the_median_probes_slowness():
    report = {"setup_s": 0.6, "setup_probes_ns": [1e6, 3e6, 3e6, 4e6, 9e9],
              "peak_rss_mb": 32.5, "setup_ms": {"derive": 300.0, "compile": 20.5}}
    result = ledger_ab.setup_metrics(report, lambda probe_ns: probe_ns / 1e6)
    assert {name: metric["value"] for name, metric in result["metrics"].items()} == {
        "setup_s": 0.6, "setup_s_normalised": pytest.approx(0.2), "peak_rss_mb": 32.5,
        "setup_ms.derive": 300.0, "setup_ms.compile": 20.5}
    assert [(row["name"], row["unit"], row["better"])
            for row in ledger_ab.setup_rows(result)] == [
        ("setup_s", "s", "lower"), ("setup_s_normalised", "s", "lower"),
        ("peak_rss_mb", "MB", "lower"), ("setup_ms.derive", "ms", "lower"),
        ("setup_ms.compile", "ms", "lower")]


def test_setup_only_runs_are_stated_at_the_ledgers_nominal_host_speed():
    """The slowness is the ledger's own: 1 at a 1.5 ms probe, and a probe
    four times slower slows set-up by 4 ** 0.6."""
    slowness = ledger_ab.load_slowness(ROOT)
    assert slowness(1_500_000) == 1.0
    assert slowness(6_000_000) == pytest.approx(4 ** 0.6)


def test_the_change_copy_is_the_working_tree_without_ignored_files(tmp_path):
    source, target = tmp_path / "source", tmp_path / "copy"
    (source / "src").mkdir(parents=True)

    def git(*args: str) -> None:
        subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@example.org",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=source, check=True, capture_output=True)

    git("init", "-q")
    (source / ".gitignore").write_text("__pycache__/\nBENCH_PR10.json\n")
    (source / "src" / "kept.py").write_text("committed\n")
    (source / "gone.py").write_text("deleted\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (source / "src" / "kept.py").write_text("edited\n")
    (source / "gone.py").unlink()
    (source / "src" / "new.py").write_text("untracked\n")
    (source / "src" / "__pycache__").mkdir()
    (source / "src" / "__pycache__" / "kept.cpython-311.pyc").write_bytes(b"\0")
    (source / "BENCH_PR10.json").write_text("{}")
    ledger_ab.copy_worktree(source, target)
    copied = sorted(path.relative_to(target).as_posix()
                    for path in target.rglob("*") if path.is_file())
    assert copied == [".gitignore", "src/kept.py", "src/new.py"]
    assert (target / "src" / "kept.py").read_text() == "edited\n"


def test_both_sides_run_from_paths_of_one_length():
    """The directory names alone moved ``peak_rss_mb`` (see ``SIDE_DIRS``)."""
    assert len({len(name) for name in ledger_ab.SIDE_DIRS.values()}) == 1
