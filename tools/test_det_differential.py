"""Tests of tools/det_differential.py.  The pair runs both trees' workers
on a few inputs, so it stays out of tier-1 with tools/test_bench_pairs.py.
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
sys.path.insert(0, str(ROOT / "src"))

import det_differential  # noqa: E402
import tela  # noqa: E402
from tela.determinize import DET_METHODS, empty_language_automaton  # noqa: E402


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
        code = det_differential.main(
            ["--parent", str(trees[0]), "--change", str(trees[1]), "--count", "4"]
        )
    report = json.loads(out.getvalue())
    assert code == 0
    assert report["constructions"] == 4 * len(DET_METHODS)
    assert report["returned"]["parent"] == report["returned"]["change"] > 0
    assert report["gained"] == 0 and report["lost"] == []
    assert report["common"] == report["compared"] == report["returned"]["change"]
    assert report["identical"] == report["common"]
    assert report["states_common"]["parent"] == report["states_common"]["change"]
    share = report["returned"]["change"] / report["constructions"]
    assert report["ok_share"] == {"parent": share, "change": share}
    mean = report["states_common"]["change"] / report["common"]
    assert report["states_mean"] == {"parent": mean, "change": mean}
    assert report["grew"] == [] and report["shrank"] == 0
    assert report["mismatches"] == report["crashes"] == []


def test_a_language_change_a_gain_a_loss_a_growth_and_a_crash_are_reported():
    """Input 0 is checked against the parent's outputs; the parent returns
    nothing for input 1, so its output is checked on sampled words; on input
    2 the change loses m2 and returns a larger m1 of the same language."""
    ap = ("a",)
    empty_automaton = empty_language_automaton(ap)
    empty = tela.print_hoa(empty_automaton)
    empty_2 = tela.print_hoa(
        tela.Tela(
            ap=ap,
            n_states=2,
            initial=frozenset({0}),
            transitions=((0, 0, 1, 0), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 1, 0)),
            acceptance=empty_automaton.acceptance,
            n_marks=0,
        )
    )
    universal_nba = tela.Tela(
        ap=ap,
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 1), (0, 1, 0, 1)),
        acceptance=tela.inf_(1),
        n_marks=1,
    )
    universal = tela.print_hoa(tela.safra_determinize(universal_nba))
    budget = {"error": "BudgetExceeded"}
    methods = ["m1", "m2", "m3"]
    parent = {"methods": methods, "rows": [
        {"input": "x", "m1": universal, "m2": budget, "m3": budget},
        {"input": "y", "m1": budget, "m2": budget, "m3": budget},
        {"input": "z", "m1": empty, "m2": universal, "m3": budget},
    ]}
    change = {"methods": methods, "rows": [
        {"input": "x", "m1": empty, "m2": universal, "m3": {"error": "KeyError"}},
        {"input": "y", "text": tela.print_hoa(universal_nba),
         "m1": empty, "m2": budget, "m3": budget},
        {"input": "z", "m1": empty_2, "m2": budget, "m3": budget},
    ]}
    report = det_differential.compare(parent, change)
    assert report["returned"] == {"parent": 3, "change": 4}
    assert report["ok_share"] == {"parent": 3 / 9, "change": 4 / 9}
    u = tela.parse_hoa(universal).n_states
    assert u == 1
    assert report["states_mean"] == {"parent": 3 / 3, "change": 5 / 4}
    assert report["gained"] == 2 and report["lost"] == [[2, "m2"]]
    assert report["common"] == 2 and report["identical"] == 0
    assert report["states_common"] == {"parent": 2, "change": 3}
    assert report["grew"] == [[2, "m1"]] and report["shrank"] == 0
    assert report["compared"] == 3 and report["word_checked"] == 1
    assert report["mismatches"][0] == [0, "m1", True, False]
    assert {tuple(m[:3]) for m in report["mismatches"][1:]} == {(1, "m1", "word")}
    assert report["crashes"] == [["change", 0, "m3", "KeyError"]]
