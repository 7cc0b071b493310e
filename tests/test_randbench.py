"""Tests for random automaton generation and the benchmark harness."""

import ast
import hashlib
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tela
import tela.randbench as randbench
from tela import Tela, TelaError, inf_, print_hoa
from tela.core import BudgetExceeded
from tela.randbench import (
    CONFIG_KEYS,
    BenchConfig,
    BenchError,
    DET_METHODS,
    cnf_blowup_automaton,
    format_report,
    format_table,
    nondeterminism_amount,
    parse_bench_config,
    random_tela,
    run_benchmark,
    _lower_median,
)
from tela.transforms import GBA_METHODS


def test_random_tela_is_seed_deterministic():
    a = random_tela(5, 4, 0.5, 0.3, acc="dnf", seed=11, n_ap=2)
    assert a == random_tela(5, 4, 0.5, 0.3, acc="dnf", seed=11, n_ap=2)
    assert a != random_tela(5, 4, 0.5, 0.3, acc="dnf", seed=12, n_ap=2)
    assert a.ap == ("a", "b")
    assert a.initial == frozenset({0})


def test_random_tela_is_always_nondeterministic():
    for seed in range(15):
        a = random_tela(4, 2, 0.3, 0.2, seed=seed)
        assert nondeterminism_amount(a) > 0


def test_random_tela_density_controls_transition_count():
    for seed in (0, 1):
        a = random_tela(50, 1, 0.3, 0.0, seed=seed, n_ap=2)
        expected = 50 * 4 * 50 * 0.3
        assert abs(len(a.transitions) - expected) < 0.1 * expected


def test_random_tela_argument_validation():
    with pytest.raises(TelaError, match="n_states"):
        random_tela(3, 2, 0.5, 0.2)
    with pytest.raises(TelaError, match="n_states"):
        random_tela(51, 2, 0.5, 0.2)
    with pytest.raises(TelaError, match="n_marks"):
        random_tela(4, 0, 0.5, 0.2)
    with pytest.raises(TelaError, match="n_marks"):
        random_tela(4, 17, 0.5, 0.2)
    with pytest.raises(TelaError, match="edge_density"):
        random_tela(4, 2, 0.0, 0.2)
    with pytest.raises(TelaError, match="edge_density"):
        random_tela(4, 2, 1.5, 0.2)
    with pytest.raises(TelaError, match="mark_prob"):
        random_tela(4, 2, 0.5, -0.1)
    with pytest.raises(TelaError, match="acc"):
        random_tela(4, 2, 0.5, 0.2, acc="cnf")
    with pytest.raises(TelaError, match="n_ap"):
        random_tela(4, 2, 0.5, 0.2, n_ap=0)
    with pytest.raises(TelaError, match="n_ap"):
        random_tela(4, 2, 0.5, 0.2, n_ap=9)
    with pytest.raises(TelaError, match="at least 4 marks"):
        random_tela(4, 3, 0.5, 0.2, acc="dnf")


def test_nondeterminism_amount_counts_target_pairs():
    def one_state(transitions, n_states=1):
        return Tela(
            ap=("a",),
            n_states=n_states,
            initial=frozenset({0}),
            transitions=transitions,
            acceptance=inf_(1),
            n_marks=1,
        )

    det = one_state(((0, 0, 0, 0), (0, 1, 0, 0)))
    assert nondeterminism_amount(det) == 0

    two = one_state(((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0)), n_states=4)
    assert nondeterminism_amount(two) == Fraction(1, 4)

    three = one_state(
        ((0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 2, 0), (0, 1, 0, 0)), n_states=3
    )
    assert nondeterminism_amount(three) == Fraction(1, 1)


def test_cnf_blowup_automaton_shape():
    a = cnf_blowup_automaton(3)
    assert a.n_states == 1
    assert a.ap == ("a",)
    assert a.n_marks == 6
    assert (0, 0, 0, 0) in a.transitions
    assert (0, 1, 0, 0b111111) in a.transitions
    with pytest.raises(TelaError, match="n must be"):
        cnf_blowup_automaton(0)
    with pytest.raises(TelaError, match="n must be"):
        cnf_blowup_automaton(13)


def test_lower_median():
    assert _lower_median([3.0]) == 3.0
    assert _lower_median([2.0, 1.0]) == 1.0
    assert _lower_median([3.0, 1.0, 2.0]) == 2.0
    assert _lower_median([1.0, 2.0, math.inf]) == 2.0
    assert _lower_median([math.inf, math.inf]) == math.inf
    assert math.isnan(_lower_median([]))


def test_parse_bench_config_defaults_and_overrides():
    assert parse_bench_config("") == BenchConfig()
    cfg = parse_bench_config(
        "# a comment\n"
        "pipeline = det\n"
        "family = dnf\n"
        "instances = 7\n"
        "seed = 42\n"
        "states = 5..9\n"
        "marks = 6\n"
        "ap = 3\n"
        "density = 0.4\n"
        "mark_prob = 0.25\n"
        "methods = product, via-gba:cnf\n"
        "baseline = product\n"
        "time_budget = 2.5\n"
        "state_budget = 1000\n"
        "validate_words = 8\n"
        "workers = 2\n"
        "report = out.txt  # trailing comment\n"
    )
    assert cfg.pipeline == "det"
    assert cfg.family == "dnf"
    assert cfg.instances == 7
    assert cfg.seed == 42
    assert (cfg.states_min, cfg.states_max) == (5, 9)
    assert cfg.n_marks == 6
    assert cfg.n_ap == 3
    assert cfg.edge_density == 0.4
    assert cfg.mark_prob == 0.25
    assert cfg.resolved_methods() == ("product", "via-gba:cnf")
    assert cfg.resolved_baseline() == "product"
    assert cfg.time_budget == 2.5
    assert cfg.state_budget == 1000
    assert cfg.validate_words == 8
    assert cfg.workers == 2
    assert cfg.report_path == "out.txt"

    auto = parse_bench_config("density = auto\nfig2 = 2..5\n")
    assert auto.edge_density is None
    assert (auto.fig2_min, auto.fig2_max) == (2, 5)
    assert auto.resolved_methods() == GBA_METHODS
    assert auto.resolved_baseline() == "cnf"
    assert parse_bench_config("pipeline=det\n").resolved_methods() == DET_METHODS


def test_parse_bench_config_lets_a_budget_failure_through(monkeypatch):
    """A time limit expiring while a value is converted stays a
    BudgetExceeded, not a config error of its line."""

    def expire(value, key):
        raise BudgetExceeded("time limit of 1 s exceeded", "time")

    monkeypatch.setattr(randbench, "_parse_range", expire)
    with pytest.raises(BudgetExceeded) as info:
        parse_bench_config("states = 4..6\n")
    assert not isinstance(info.value, BenchError)
    assert info.value.kind == "time"


def test_parse_bench_config_errors():
    cases = [
        ("pipeline=nope\n", "pipeline must be gba or det"),
        ("family=foo\n", "family must be random, dnf or fig2"),
        ("states=6..4\n", "empty range"),
        ("bogus=1\n", "unknown key 'bogus'"),
        ("no equals here\n", "expected key=value"),
        ("instances=ten\n", "line 1"),
        ("seed=1\ninstances=ten\n", "line 2"),
        ("methods=product\n", "not available in gba pipeline"),
        ("pipeline=det\nmethods=cnf\n", "not available in det pipeline"),
        ("methods=cnf\nbaseline=remfin_rewrite\n", "baseline must be one of"),
        ("seed=1\ntime_budget=nan\n", "^line 2: time_budget out of range"),
        ("time_budget=inf\n", "^line 1: time_budget out of range"),
        ("time_budget=0\n", "^line 1: time_budget out of range"),
        ("time_budget=-1\n", "^line 1: time_budget out of range"),
        ("state_budget=0\n", "^line 1: state_budget out of range"),
        ("state_budget=-5\n", "^line 1: state_budget out of range"),
        ("workers=0\n", "^line 1: workers out of range"),
        ("instances=-2\n", "^line 1: instances out of range"),
        ("validate_words=-1\n", "^line 1: validate_words out of range"),
        ("seed=1\nmarks=0\n", "^line 2: marks out of range: 0$"),
        ("marks=17\n", "^line 1: marks out of range: 17$"),
        ("states=1..3\n", "^line 1: states out of range: 1..3$"),
        ("states=4..51\n", "^line 1: states out of range: 4..51$"),
        ("ap=0\n", "^line 1: ap out of range: 0$"),
        ("ap=9\n", "^line 1: ap out of range: 9$"),
        ("mark_prob=2\n", "^line 1: mark_prob out of range: 2$"),
        ("mark_prob=-0.5\n", "^line 1: mark_prob out of range: -0.5$"),
        ("mark_prob=nan\n", "^line 1: mark_prob out of range: nan$"),
        ("density=0\n", "^line 1: density out of range: 0$"),
        ("density=1.5\n", "^line 1: density out of range: 1.5$"),
        ("density=nan\n", "^line 1: density out of range: nan$"),
    ]
    for text, fragment in cases:
        with pytest.raises(BenchError, match=fragment):
            parse_bench_config(text)


def test_run_benchmark_fig2_family():
    cfg = parse_bench_config("pipeline=gba\nfamily=fig2\nfig2=1..3\nvalidate_words=5\n")
    report = run_benchmark(cfg)
    assert len(report.instances) == 3
    assert report.mismatches == []
    assert report.language_checks > 0
    for i, n in enumerate(range(1, 4)):
        assert report.results[i]["cnf"]["marks"] == 2**n
        assert report.results[i]["remfin_rewrite"]["marks"] <= 2
        assert all(report.results[i][m]["status"] == "ok" for m in GBA_METHODS)
    assert list(report.ratios) == ["all"]
    assert report.ratios["all"]["cnf"] == {"states": 1.0, "time": 1.0, "marks": 1.0}


@pytest.mark.parametrize("workers", [1, 2])
def test_run_benchmark_stops_each_method_at_its_time_budget(workers):
    """Determinizations that run for seconds uncapped stop at the 0.05 s
    budget, in this process and in pool workers alike."""
    cfg = parse_bench_config(
        "pipeline=det\nfamily=dnf\ninstances=2\nstates=5\nmarks=4\nap=2\n"
        "density=0.4\nmark_prob=0.3\nseed=1\ntime_budget=0.05\n"
        f"state_budget=1000000\nworkers={workers}\n"
    )
    records = [r for row in run_benchmark(cfg).results for r in row.values()]
    assert any(r["status"] == "timeout" for r in records)
    assert all(r["time"] <= cfg.time_budget + 0.5 for r in records)


def test_run_benchmark_records_a_gba_timeout():
    """cnf's 2^12 acceptance sets take longer than the budget."""
    cfg = parse_bench_config(
        "pipeline=gba\nfamily=fig2\nfig2=12..12\ntime_budget=0.002\n"
        "validate_words=2\n"
    )
    (row,) = run_benchmark(cfg).results
    assert row["cnf"]["status"] == "timeout"
    assert all(r["time"] <= cfg.time_budget + 0.5 for r in row.values())


def test_run_benchmark_random_family():
    cfg = parse_bench_config(
        "pipeline=gba\nfamily=random\ninstances=4\nstates=4..5\nmarks=4\n"
        "seed=3\nvalidate_words=5\n"
    )
    report = run_benchmark(cfg)
    assert len(report.instances) == 4
    assert report.mismatches == []
    for stats in report.method_stats.values():
        assert stats["ok"] == 4
        assert stats["timeouts"] == 0
        assert stats["memouts"] == 0
        assert math.isfinite(stats["median_states"])
    for row in report.instances:
        assert row["group"] is not None
        assert row["group"] in report.ratios
        assert 2 <= row["dnf_len"] <= 21


def test_run_benchmark_det_pipeline():
    cfg = parse_bench_config(
        "pipeline=det\nfamily=fig2\nfig2=1..2\nmethods=product,via-gba:cnf\n"
        "baseline=product\n"
    )
    report = run_benchmark(cfg)
    assert report.mismatches == []
    assert report.language_checks == 2
    for per_method in report.results:
        assert per_method["product"]["status"] == "ok"
        assert per_method["via-gba:cnf"]["status"] == "ok"
        assert "gba_states" in per_method["via-gba:cnf"]
        assert "gba_states" not in per_method["product"]


def test_run_benchmark_workers_agree():
    solo = run_benchmark(parse_bench_config("family=fig2\nfig2=1..3\nworkers=1\n"))
    pooled = run_benchmark(parse_bench_config("family=fig2\nfig2=1..3\nworkers=2\n"))
    assert solo.language_checks == pooled.language_checks
    assert solo.mismatches == pooled.mismatches
    assert solo.instances == pooled.instances
    for left, right in zip(solo.results, pooled.results):
        for method in left:
            trimmed = lambda r: {k: v for k, v in r.items() if k != "time"}
            assert trimmed(left[method]) == trimmed(right[method])


def test_report_formats():
    cfg = parse_bench_config("family=fig2\nfig2=1..2\n")
    report = run_benchmark(cfg)
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0] == "telabench 1"
    assert any(line.startswith("config pipeline=gba") for line in lines)
    assert any(line.startswith("instance 0 ") for line in lines)
    assert any(line.startswith("result 0 cnf status=ok") for line in lines)
    assert any(line.startswith("summary cnf ") for line in lines)
    assert any(line.startswith("ratio all cnf ") for line in lines)
    assert "validation checks=" in text
    assert "mismatches=0" in text

    table = format_table(report)
    assert table.splitlines()[0].startswith("method")
    assert "0 mismatches" in table


# Four small configs: pooled workers, det memouts under a low state budget, the
# dnf family, and fig2 with custom methods and baseline.
PINNED_CONFIGS = (
    "pipeline=gba\nfamily=random\ninstances=6\nstates=4..5\nmarks=4\nseed=5\n"
    "validate_words=5\nworkers=2\n",
    "pipeline=det\nfamily=random\ninstances=6\nstates=4..5\nmarks=4\nap=1\nseed=2\n"
    "state_budget=80\n",
    "pipeline=gba\nfamily=dnf\ninstances=4\nstates=4..5\nmarks=5\nseed=7\n"
    "validate_words=4\n",
    "pipeline=det\nfamily=fig2\nfig2=1..2\n"
    "methods=product,via-gba:cnf,via-gba:remfin_rewrite\nbaseline=via-gba:cnf\n",
)
PINNED_REPORT_DIGEST = (
    "7201f7aba65f340233ba42a770f6532e14547a2bc817eae19f79e2bd885a676e"
)


def test_bench_reports_match_the_pinned_digest():
    """Every report line but the timings is pinned, so a harness rewrite must
    reproduce statuses, sizes, ratios, checks and mismatches exactly."""
    digest = hashlib.sha256()
    for text in PINNED_CONFIGS:
        report = format_report(run_benchmark(parse_bench_config(text)))
        digest.update(re.sub(r"(\s)(median_time|time)=\S+", r"\1\2=*", report).encode())
    assert digest.hexdigest() == PINNED_REPORT_DIGEST


def test_readme_lists_every_config_key_with_its_default():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Benchmark configuration", 1)[1]
    block = section.split("```\n", 2)[1]
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()]
    assert sorted(keys) == sorted(CONFIG_KEYS)
    assert parse_bench_config(block) == BenchConfig()


# The random_tela arguments of perfbench's gba, det and mc generators.
BENCHMARK_GENERATORS = {
    "gba": dict(
        n_states=4, n_marks=6, edge_density=3 / 4, mark_prob=0.2, acc="dnf", n_ap=1
    ),
    "det": dict(
        n_states=4, n_marks=3, edge_density=3 / 4, mark_prob=0.2, acc="random-el",
        n_ap=1,
    ),
    "mc": dict(
        n_states=4, n_marks=2, edge_density=9 / 10, mark_prob=0.2, acc="random-el",
        n_ap=1,
    ),
}
BENCHMARK_INPUTS_DIGEST = (
    "163c0ccb332bc03a73f656ce6c21d8a7006aa021daa92fd8fd360d0a70bd74ff"
)


def perfbench_generator_arguments() -> dict[str, dict]:
    """The constant keyword arguments of the `tela.random_tela` call in each
    `<name>_generate` of perfbench/workloads.py, read from its source."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    found = {}
    for node in ast.parse(path.read_text()).body:
        if not (isinstance(node, ast.FunctionDef) and node.name.endswith("_generate")):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            if ast.unparse(call.func) == "tela.random_tela":
                found[node.name.removesuffix("_generate")] = {
                    kw.arg: eval(ast.unparse(kw.value))
                    for kw in call.keywords
                    if kw.arg != "seed"
                }
    return found


def test_benchmark_inputs_match_the_pinned_digest():
    """The automata the benchmark measures, drawn at its generator arguments
    over fixed seeds, so that a change to `to_dnf` or `random_tela` cannot
    change them unnoticed."""
    assert perfbench_generator_arguments() == BENCHMARK_GENERATORS
    digest = hashlib.sha256()
    for name, kw in BENCHMARK_GENERATORS.items():
        for seed in range(60):
            text = print_hoa(random_tela(**kw, seed=seed))
            digest.update(f"{name} {seed}\n{text}\n".encode())
    assert digest.hexdigest() == BENCHMARK_INPUTS_DIGEST


def test_import_tela_leaves_the_process_pool_unloaded():
    """Only a pooled benchmark run needs multiprocessing, so a fresh
    `import tela` does not load it."""
    src = Path(tela.__file__).resolve().parents[1]
    code = "import sys, tela; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
