"""The summary arithmetic of ``tools/ledger_ab.py`` (no ledger run starts)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ledger_ab.py"
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
