"""Test of the paired perfbench runs of tools/bench_pairs.py; it takes about
half a minute, so it stays out of tier-1.  Run with `python3 -m pytest tools/`.
The arithmetic is tested in tests/test_bench_summary.py.
"""

import json
import shutil
import sys
from pathlib import Path

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
