"""Test of the paired perfbench runs of tools/bench_pairs.py; it takes about
half a minute, so it stays out of tier-1.  Run with `python3 -m pytest tools/`.
The arithmetic is tested in tests/test_bench_summary.py.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402


def test_one_quick_pair_on_two_copies_of_one_tree(tmp_path):
    trees = {}
    for side in ("parent", "change"):
        tree = tmp_path / side
        for part in ("src", "perfbench"):
            skip = shutil.ignore_patterns("out", "__pycache__")
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        trees[side] = tree
    [pair] = bench_pairs.run_pairs(trees, [5], 2)
    assert pair["seed"] == 5 and pair["first"] == "parent"
    assert pair["correct"] == {"parent": True, "change": True}
    assert set(pair["parent"]) == set(pair["change"])
    assert pair["parent"]["mc.ok_share"] == pair["change"]["mc.ok_share"] == 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    summary = bench_pairs.summarize([pair], end_to_end)
    assert set(summary) == {"gba", "det", "mc"}
    assert set(summary["mc"]) == set(end_to_end)
    assert bench_pairs.claim(summary, "mc.item_cost_mean", 1)["pairs"] == 1


def test_traced_rows_take_the_median_of_alternating_runs(monkeypatch):
    """`checks` runs each tree TRACE_RUNS times traced, alternating which
    tree goes first, keeps every count and the median of every time, and
    stops when one tree's runs give different counts."""
    calls = []
    times = {"parent": iter([5.0, 1.0, 3.0] * 2), "change": iter([2.0, 9.0, 4.0] * 2)}

    def fake(tree, *args):
        side, workload = tree.name, args[1]
        if args[-1] == 0:
            return {}, f"{workload}\n  output sha256 {side}-{workload}\n"
        calls.append((workload, side))
        metrics = {
            "core.Tela.calls": 7,
            "core.product.states_out": 11,
            "core.Tela.self_s": next(times[side]),
            "trace.item_wall_s": 0.5,
        }
        values = {k: {"value": v} for k, v in metrics.items()}
        return {"attempted": 96, "metrics": values}, ""

    monkeypatch.setattr(bench_pairs, "perfbench", fake)
    trees = {"parent": Path("parent"), "change": Path("change")}
    trace, digests = bench_pairs.checks(trees)
    assert bench_pairs.TRACE_RUNS == 3
    for workload in bench_pairs.CHECK_WORKLOADS:
        order = [side for w, side in calls if w == workload]
        assert order == ["parent", "change", "change", "parent", "parent", "change"]
        assert digests[workload] == {s: f"{s}-{workload}" for s in trees}
        assert trace[workload]["items"] == {"parent": 96, "change": 96}
    assert trace["det"]["parent"] == {
        "core.Tela.calls": 7,
        "core.product.states_out": 11,
        "core.Tela.self_s": 3.0,
        "trace.item_wall_s": 0.5,
    }
    assert trace["det"]["change"]["core.Tela.self_s"] == 4.0

    runs = [{"core.Tela.calls": 7, "core.Tela.self_s": 1.0}] * 2
    runs += [{"core.Tela.calls": 8, "core.Tela.self_s": 1.0}]
    with pytest.raises(SystemExit, match="core.Tela.calls"):
        bench_pairs.traced_median(runs)
    for key in ("determinize.degeneralize.states_out", "core.product.trans_out"):
        with pytest.raises(SystemExit, match=key):
            bench_pairs.traced_median([{key: 1}, {key: 1}, {key: 2}])
