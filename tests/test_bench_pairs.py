"""The summary arithmetic of ``tools/bench_pairs.py``."""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

from bench_pairs import cpu_ticks, quartiles, report, steal_share, summarize  # noqa: E402


def test_quartiles_interpolate_linearly():
    assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_lower_is_better_counts_wins_and_ignores_ties():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [8.0, 11.0, 9.0, 14.0, 7.0]  # pair 2 ties, pair 4 loses
    s = summarize(parent, change, "lower")
    assert s["wins"] == 3 and s["pairs"] == 5
    assert s["parent"] == {"q1": 11.0, "median": 12.0, "q3": 13.0}
    assert s["change"]["median"] == 9.0
    assert s["delta_pct"] == pytest.approx(-25.0)
    assert not s["gain"]  # 3 of 5 wins is under nine tenths


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_parent_iqr():
    parent = [10.0 + 0.1 * i for i in range(10)]
    assert summarize(parent, [p - 2.0 for p in parent], "lower")["gain"]
    # every pair wins, but the medians differ by less than the parent's IQR (0.45)
    assert not summarize(parent, [p - 0.3 for p in parent], "lower")["gain"]
    # nine wins of ten still holds; eight does not
    nine = [p - 2.0 for p in parent[:9]] + [parent[9] + 1.0]
    eight = [p - 2.0 for p in parent[:8]] + [parent[8] + 1.0, parent[9] + 1.0]
    assert summarize(parent, nine, "lower")["gain"]
    assert not summarize(parent, eight, "lower")["gain"]


def test_higher_is_better_flips_the_direction():
    s = summarize([0.80, 0.81, 0.82], [0.90, 0.91, 0.70], "higher")
    assert s["wins"] == 2
    assert s["delta_pct"] == pytest.approx(100 * (0.90 - 0.81) / 0.81)


def test_summarize_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        summarize([], [], "lower")


def test_report_line_names_the_metric_and_marks_a_gain():
    s = summarize([2.0] * 10, [1.0] * 10, "lower")
    line = report("run_s", "s", s)
    assert line.startswith("run_s") and "-50.0%" in line and "10/10" in line
    assert line.endswith("GAIN")


def test_lower_is_better_is_worse_past_its_bound_of_the_parent_median():
    parent = [10.0, 10.0, 10.0]
    assert not summarize(parent, [12.5, 12.5, 12.5], "lower", 0.25)["worse"]
    s = summarize(parent, [12.6, 12.6, 12.6], "lower", 0.25)
    assert s["worse"] and report("run_s", "s", s).endswith("WORSE")
    assert not summarize(parent, [5.0, 5.0, 5.0], "lower", 0.25)["worse"]
    assert not summarize(parent, [100.0] * 3, "lower")["worse"]  # no bound given
    assert not report("run_s", "s", summarize(parent, parent, "lower", 0.0)).endswith("WORSE")


def test_higher_is_better_is_worse_past_its_bound_below_the_parent_median():
    parent = [0.80, 0.80, 0.80]
    assert not summarize(parent, [0.73, 0.73, 0.73], "higher", 0.1)["worse"]
    s = summarize(parent, [0.71, 0.71, 0.71], "higher", 0.1)
    assert s["worse"] and report("accuracy_mean", "fraction", s).endswith("WORSE")
    assert not summarize(parent, [0.99, 0.99, 0.99], "higher", 0.1)["worse"]


BEFORE = "cpu  100 0 50 800 10 0 5 35 0 0"
AFTER = "cpu  200 0 60 1500 10 0 5 85 20 0"  # 20 guest ticks, already in user


def test_steal_share_is_stolen_ticks_over_all_ticks_between_two_cpu_lines():
    assert cpu_ticks(BEFORE) == (35, 1000)
    assert cpu_ticks(AFTER) == (85, 1860)
    assert steal_share(BEFORE, AFTER) == pytest.approx(50 / 860)
    assert steal_share(BEFORE, BEFORE) == 0.0
