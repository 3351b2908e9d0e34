"""benchmarks/trajectory.py's pair summary, on fixed numbers.  The module is
loaded from its file; nothing is run."""
from __future__ import annotations

import pytest

from conftest import load

trajectory = load("benchmarks/trajectory.py")


def _report(round_s, failed=2, attempted=225):
    return {"correct": True, "failed": failed, "attempted": attempted,
            "metrics": {"round_s": {"value": round_s, "unit": "s"}}}


def test_pairs_take_ten_runs_a_side():
    assert trajectory.PAIRS == 10


def test_summary_gives_quartiles_and_wins_per_pair():
    base = [12.0, 11.0, 13.0, 12.5, 11.5, 12.0, 14.0, 11.8, 12.2, 12.1]
    change = [10.0, 10.5, 10.2, 12.5, 9.9, 10.1, 10.0, 12.0, 10.3, 10.4]
    summary = trajectory.summarize(
        [_report(x) for x in base], [_report(x, failed=i % 2) for i, x in enumerate(change)],
        ["round_s"],
    )
    # statistics.quantiles' default (exclusive) method, as perfbench --repeat
    assert summary["round_s"] == {
        "base": pytest.approx({"median": 12.05, "q1": 11.725, "q3": 12.625}, rel=1e-12),
        "change": pytest.approx({"median": 10.25, "q1": 10.0, "q3": 10.875}, rel=1e-12),
        # pair 3 ties (12.5, 12.5) and counts for neither side; pair 7 loses
        "lower_in": 8,
    }
    assert summary["base_ops"] == {"correct": True, "failed": 20, "attempted": 2250}
    assert summary["change_ops"] == {"correct": True, "failed": 5, "attempted": 2250}
