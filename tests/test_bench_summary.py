"""Tests of the arithmetic in tools/bench_pairs.py, which writes BENCH files.

Its paired perfbench runs are tested in tools/test_bench_pairs.py.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402

END_TO_END = {
    "item_cost_mean": {"name": "item_cost_mean", "better": "lower", "bound": 0.2},
    "ok_share": {"name": "ok_share", "better": "higher", "bound": 0.1},
}


def test_seed_lists_and_ranges():
    assert bench_pairs.parse_seeds("61-64") == [61, 62, 63, 64]
    assert bench_pairs.parse_seeds("5,7") == [5, 7]


def test_summary_counts_wins_on_each_metrics_better_side():
    costs = [(10.0, 8.0), (12.0, 9.0), (11.0, 11.5), (9.0, 9.0)]
    pairs = [
        {
            "parent": {"mc.item_cost_mean": p, "mc.ok_share": 0.5, "mc.other": 1},
            "change": {
                "mc.item_cost_mean": c, "mc.ok_share": 0.5 + (p > c) / 4, "mc.other": 2
            },
        }
        for p, c in costs
    ]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert set(summary) == {"mc"} and set(summary["mc"]) == set(END_TO_END)
    cost = summary["mc"]["item_cost_mean"]
    assert (cost["change_wins"], cost["parent_wins"]) == (2, 1)
    assert cost["parent"] == {"median": 10.5, "q1": 9.75, "q3": 11.25}
    assert cost["parent_iqr"] == 1.5
    assert cost["median_ratio"] == 9.0 / 10.5
    share = summary["mc"]["ok_share"]
    assert (share["change_wins"], share["parent_wins"]) == (2, 0)
    claim = bench_pairs.claim(summary, "mc.item_cost_mean", len(pairs))
    assert claim["change_wins"] == 2 and claim["pairs"] == 4


def test_one_run_gives_the_same_quartiles_on_both_sides():
    pairs = [{"parent": {"mc.ok_share": 1.0}, "change": {"mc.ok_share": 1.0}}]
    share = bench_pairs.summarize(pairs, END_TO_END)["mc"]["ok_share"]
    assert share["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert (share["change_wins"], share["parent_wins"]) == (0, 0)
