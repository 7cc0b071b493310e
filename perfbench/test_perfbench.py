"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tela  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _tiny(workload: str, trace: int) -> tuple[str, dict]:
    """A run of at least 3 items, traced or not."""
    proc = _run(
        "--workload", workload, "--seed", "3",
        "--seconds", "2" if trace else "0.4", "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return proc.stdout, json.loads(lines[-1])


def test_spec_matches_the_code():
    assert list(SPEC) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    ]
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]
    } == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == tracing.per_layer_names()
    assert all(
        m["unit"] == tracing.unit_of(m["name"]) for m in SPEC["per_layer"]
    )
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["gba", "det", "mc"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    text, result = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert any(
            line.split()[:1] == [m["name"]] and line.split()[2:3] == [m["unit"]]
            for line in text.splitlines()
        )
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
        assert "failed_share" in text


@pytest.mark.parametrize("workload", ["gba", "det", "mc"])
def test_traced_self_times_add_up_to_the_item_wall_time(workload):
    _, result = _tiny(workload, 1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    total = sum(values[f"{m}.self_s"] for m in tracing.ITEM_MODULES)
    total += values["trace.unattributed_s"]
    assert total == pytest.approx(values["trace.item_wall_s"], rel=1e-9)
    assert values["trace.unattributed_s"] >= 0


def test_same_seed_gives_identical_exact_results():
    first, _ = _tiny("det", 0)
    second, _ = _tiny("det", 0)
    digest = [line for line in first.splitlines() if "output sha256" in line]
    assert digest and digest[0] in second
    assert "determinism: identical to the previous run" in second


def _one_state(marks_on_a: int) -> tela.Tela:
    """Deterministic and complete over {a}: accepts the words with
    infinitely many `a` while the `a` loop carries mark 0."""
    return tela.Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 0), (0, 1, 0, marks_on_a)),
        acceptance=tela.inf_(1),
        n_marks=1,
    )


def test_gba_checker_catches_an_output_with_marks_cleared():
    a = _one_state(1)
    words = [((), (1,)), ((0,), (0, 1))]
    out = workloads.Outcome()
    out.data["verdicts"] = workloads.gba_verdicts(a, {"cnf": a}, words)
    assert workloads.gba_check(None, out) == []
    out.data["verdicts"] = workloads.gba_verdicts(a, {"cnf": _one_state(0)}, words)
    assert workloads.gba_check(None, out)


def test_det_checker_catches_an_output_with_marks_cleared():
    def outputs(*automata):
        return {
            method: (tela.print_hoa(d), d)
            for method, d in zip(workloads.DET_METHODS, automata)
        }

    good = outputs(_one_state(1), _one_state(1))
    out = workloads.Outcome(data={"outputs": good, "agree": workloads.det_agreement(good)})
    assert workloads.det_check(None, out) == []
    bad = outputs(_one_state(1), _one_state(0))
    out = workloads.Outcome(data={"outputs": bad, "agree": workloads.det_agreement(bad)})
    assert workloads.det_check(None, out)


def test_mc_checker_catches_a_probability_off_by_a_hundredth():
    (inp,) = workloads.mc_generate(random.Random("mc:1"), 1)
    out = workloads.mc_item(inp)
    reference = workloads.mc_reference(inp)
    assert workloads.mc_check(inp, out, reference) == []
    out.data["pr"] += 0.01
    assert workloads.mc_check(inp, out, reference)
    out.data["pr"] -= 0.01
    out.data["positive"] = not out.data["positive"]
    assert workloads.mc_check(inp, out, reference)


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "gba", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
