"""Tests of tools/mc_differential.py.  The pair runs both trees' workers on
a few inputs, so it stays out of tier-1 with tools/test_bench_pairs.py.
Run with `python3 -m pytest tools/`.
"""

import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import mc_differential  # noqa: E402


def test_one_pair_of_copies_of_one_tree_agrees(tmp_path):
    trees = []
    for side in ("parent", "change"):
        tree = tmp_path / side
        for part in ("src", "perfbench"):
            skip = shutil.ignore_patterns("out", "__pycache__")
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        trees.append(tree)
    out = io.StringIO()
    with redirect_stdout(out):
        code = mc_differential.main(
            ["--parent", str(trees[0]), "--change", str(trees[1]), "--count", "4"]
        )
    report = json.loads(out.getvalue())
    assert code == 0
    assert report["items"] == 4
    for key in mc_differential.SIZES:
        sizes = report["sizes"][key]
        assert sizes["parent"] == sizes["change"] > 0
        assert report["grew"][key] == report["shrank"][key] == 0
    assert report["sizes"]["gfm_quotient"]["change"] <= report["sizes"]["gfm"]["change"]
    product = report["sizes"]["product_states"]["change"]
    assert product <= report["sizes"]["product_actions"]["change"]
    assert report["pr_max_diff"] == 0.0
    assert report["mismatches"] == report["crashes"] == []
    assert report["input_mismatches"] == 0


def row(digest, pr, positive, gfm=10, ld=8, actions=40):
    return {"input": digest, "pr": pr, "positive": positive, "gfm": gfm,
            "gfm_quotient": gfm // 2, "product_states": 3 * gfm,
            "product_actions": actions, "ld": ld, "ld_quotient": ld // 2}


def test_mismatches_crashes_and_size_changes_are_reported():
    """Input 0 agrees within the tolerance and shrinks, input 1 differs in
    both answers and grows, input 2 crashes on the change's side and input 3
    is another input on each side; only inputs 0 and 1 are summed.  Input 0's
    product keeps its action count while its states shrink, and input 1's
    gains actions."""
    parent = {"rows": [
        row("w", 0.5, True), row("x", 0.25, True), row("y", 1.0, True), row("z", 0.0, False),
    ]}
    crashed = row("y", 1.0, True)
    crashed["positive"] = {"error": "KeyError"}
    change = {"rows": [
        row("w", 0.5 + 1e-12, True, gfm=6, ld=4), row("x", 0.5, False, gfm=12, actions=45),
        crashed,
        row("other", 0.0, False),
    ]}
    report = mc_differential.compare(parent, change)
    assert report["items"] == 4
    assert report["sizes"]["gfm"] == {"parent": 20, "change": 18}
    assert report["sizes"]["ld_quotient"] == {"parent": 8, "change": 6}
    assert report["sizes"]["product_states"] == {"parent": 60, "change": 54}
    assert report["sizes"]["product_actions"] == {"parent": 80, "change": 85}
    assert report["grew"] == {"gfm": 1, "gfm_quotient": 1, "product_states": 1,
                              "product_actions": 1, "ld": 0, "ld_quotient": 0}
    assert report["shrank"] == {"gfm": 1, "gfm_quotient": 1, "product_states": 1,
                                "product_actions": 0, "ld": 1, "ld_quotient": 1}
    assert report["pr_max_diff"] == 0.25
    assert report["mismatches"] == [[1, "pr", 0.25, 0.5], [1, "positive", True, False]]
    assert report["crashes"] == [["change", 2, "positive", "KeyError"]]
    assert report["input_mismatches"] == 1
