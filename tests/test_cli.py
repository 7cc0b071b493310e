"""End-to-end tests for the command line interface."""

import io
import os
import pathlib
import resource
import subprocess
import sys

import pytest

import tela
from tela import FALSE, MAX_MARKS, MAX_STATES, Tela, accepts, inf_, parse_hoa, print_hoa
from tela.acceptance import gba_marksets
from tela.cli import main
from tela.core import is_complete, is_deterministic
from tela.determinize import DET_METHODS, empty_language_automaton
from tela.limitdet import build_gfm, build_ld
from tela.randbench import cnf_blowup_automaton, random_tela
from tela.transforms import GBA_METHODS, ensure_dnf

from helpers import EXAMPLE_MDP, example_automaton, shifted_from


def universal_automaton():
    return Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 1), (0, 1, 0, 1)),
        acceptance=inf_(1),
        n_marks=1,
    )


def write_hoa(tmp_path, name, a):
    path = tmp_path / name
    path.write_text(print_hoa(a))
    return str(path)


def test_convert_emits_a_gba(tmp_path, capsys):
    path = write_hoa(tmp_path, "ex.hoa", example_automaton())
    assert main(["convert", "--to", "gba", path]) == 0
    out = parse_hoa(capsys.readouterr().out)
    assert gba_marksets(out.acceptance) is not None


def test_convert_reads_stdin_by_default(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(print_hoa(example_automaton())))
    assert main(["convert", "--to", "gba", "--method", "remfin_rewrite"]) == 0
    parse_hoa(capsys.readouterr().out)


def test_determinize_fig2_instance(tmp_path, capsys):
    path = write_hoa(tmp_path, "fig2.hoa", cnf_blowup_automaton(3))
    assert main(["determinize", path]) == 0
    first = capsys.readouterr().out
    out = parse_hoa(first)
    assert is_deterministic(out)
    assert is_complete(out)

    assert main(["determinize", path]) == 0
    assert capsys.readouterr().out == first


def test_determinize_methods_and_state_cap(tmp_path, capsys):
    path = write_hoa(tmp_path, "ex.hoa", example_automaton())
    for method in ("product-nolangcover", "via-gba:cnf", "via-gba:remfin_split"):
        assert main(["determinize", "--method", method, path]) == 0
        assert is_deterministic(parse_hoa(capsys.readouterr().out))

    blown = write_hoa(tmp_path, "blow.hoa", cnf_blowup_automaton(4))
    assert main(["determinize", "--state-cap", "2", blown]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_limitdet_methods_output_limit_deterministic(tmp_path, capsys):
    path = write_hoa(tmp_path, "ex.hoa", example_automaton())
    for method in ("sum", "ld", "gfm"):
        assert main(["limitdet", "--method", method, path]) == 0
        produced = tmp_path / f"{method}.hoa"
        produced.write_text(capsys.readouterr().out)
        assert main(["check", "limitdet", str(produced)]) == 0
        assert capsys.readouterr().out == "SYNTACTIC\n"


def test_limitdet_sum_state_cap_exits_3(tmp_path, capsys):
    a = random_tela(
        n_states=4, n_marks=4, edge_density=0.4, mark_prob=0.3, acc="dnf",
        seed=7, n_ap=1,
    )
    path = write_hoa(tmp_path, "big.hoa", a)
    assert main(["limitdet", "--method", "sum", "--state-cap", "100", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_limitdet_state_cap_without_sum_is_a_usage_error(tmp_path, capsys):
    path = write_hoa(tmp_path, "a.hoa", example_automaton())
    for method in ("ld", "gfm"):
        with pytest.raises(SystemExit) as excinfo:
            main(["limitdet", "--method", method, "--state-cap", "100", path])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--state-cap applies only to limitdet --method sum" in captured.err


def test_non_positive_state_cap_is_a_usage_error(tmp_path, capsys):
    path = write_hoa(tmp_path, "a.hoa", example_automaton())
    for argv in (
        ["determinize", "--state-cap", "0", path],
        ["determinize", "--state-cap", "-1", path],
        ["determinize", "--state-cap", "x", path],
        ["limitdet", "--method", "sum", "--state-cap", "-5", path],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--state-cap: expected a positive integer" in captured.err


def test_check_empty(tmp_path, capsys):
    uni = universal_automaton()
    empty_path = write_hoa(tmp_path, "empty.hoa", uni.with_acceptance(FALSE, 1))
    assert main(["check", "empty", empty_path]) == 0
    assert capsys.readouterr().out == "EMPTY\n"

    uni_path = write_hoa(tmp_path, "uni.hoa", uni)
    assert main(["check", "empty", uni_path]) == 1
    out = capsys.readouterr().out
    assert "|" in out
    assert "EMPTY" not in out
    prefix, _, cycle = out.partition("|")
    assert cycle.strip()


def test_check_deterministic(tmp_path, capsys):
    det = write_hoa(tmp_path, "det.hoa", empty_language_automaton(("a",)))
    assert main(["check", "deterministic", det]) == 0
    assert capsys.readouterr().out == "DETERMINISTIC\n"

    nondet = write_hoa(tmp_path, "nd.hoa", example_automaton())
    assert main(["check", "deterministic", nondet]) == 1
    assert capsys.readouterr().out == "NONDETERMINISTIC\n"


def test_check_limitdet_answers(tmp_path, capsys):
    path = write_hoa(tmp_path, "ex.hoa", example_automaton())
    assert main(["check", "limitdet", path]) == 1
    assert capsys.readouterr().out == "NO\n"

    det = write_hoa(tmp_path, "det.hoa", empty_language_automaton(("a",)))
    assert main(["check", "limitdet", det]) == 0
    assert capsys.readouterr().out == "SYNTACTIC\n"


def test_mc_quantitative(tmp_path, capsys):
    mdp = tmp_path / "m.mdp"
    mdp.write_text(EXAMPLE_MDP)
    aut = write_hoa(tmp_path, "ex.hoa", example_automaton())
    assert main(["mc", "--mdp", str(mdp), "--aut", aut, "--quant"]) == 0
    assert capsys.readouterr().out == "1.000000000000\n"


def test_mc_quantitative_prints_an_exact_one(tmp_path, capsys):
    mdp = tmp_path / "m.mdp"
    mdp.write_text(
        "states 2\nlabel 1 {a}\n"
        "trans 0 go 0 1/2\ntrans 0 go 1 1/2\ntrans 1 stay 1 1\n"
    )
    inf_a = Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 0), (0, 1, 0, 1)),
        acceptance=inf_(1),
        n_marks=1,
    )
    aut = write_hoa(tmp_path, "inf_a.hoa", inf_a)
    assert main(["mc", "--mdp", str(mdp), "--aut", aut, "--quant"]) == 0
    assert capsys.readouterr().out == "1.000000000000\n"


def test_mc_rejects_a_second_initial_line(tmp_path, capsys):
    mdp = tmp_path / "m.mdp"
    mdp.write_text("states 2\ninitial 0\ninitial 1\ntrans 0 a 0 1\ntrans 1 a 1 1\n")
    aut = write_hoa(tmp_path, "ex.hoa", example_automaton())
    assert main(["mc", "--mdp", str(mdp), "--aut", aut, "--quant"]) == 3
    assert "line 3: duplicate initial line" in capsys.readouterr().err


def test_mc_qualitative(tmp_path, capsys):
    mdp = tmp_path / "m.mdp"
    mdp.write_text(EXAMPLE_MDP)

    gfm = write_hoa(tmp_path, "gfm.hoa", build_gfm(ensure_dnf(example_automaton())))
    assert main(["mc", "--mdp", str(mdp), "--aut", gfm, "--qual"]) == 0
    assert capsys.readouterr().out == "POSITIVE\n"

    zero = write_hoa(tmp_path, "zero.hoa", empty_language_automaton(("p", "q")))
    assert main(["mc", "--mdp", str(mdp), "--aut", zero, "--qual"]) == 1
    assert capsys.readouterr().out == "ZERO\n"

    raw = write_hoa(tmp_path, "raw.hoa", example_automaton())
    assert main(["mc", "--mdp", str(mdp), "--aut", raw, "--qual"]) == 3
    assert "not limit-deterministic" in capsys.readouterr().err


def test_mc_qualitative_checks_labels_like_quantitative(tmp_path, capsys):
    # No Start line, or no disjunct, must not short-cut the label check.
    mdp = tmp_path / "b.mdp"
    mdp.write_text("states 1\nlabel 0 {b}\ntrans 0 stay 0 1\n")
    hoa = print_hoa(universal_automaton())
    for name, text in (
        ("nostart.hoa", hoa.replace("Start: 0\n", "")),
        ("never.hoa", hoa.replace("Acceptance: 1 Inf(0)", "Acceptance: 1 f")),
    ):
        aut = tmp_path / name
        aut.write_text(text)
        for mode in ("--qual", "--quant"):
            assert main(["mc", "--mdp", str(mdp), "--aut", str(aut), mode]) == 3
            assert "label of state 0 uses ['b']" in capsys.readouterr().err


def test_random_seeded_is_reproducible(capsys):
    argv = ["random", "--states", "4", "--marks", "4", "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert first.err == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == first.out
    expected = random_tela(
        n_states=4, n_marks=4, edge_density=0.5, mark_prob=0.2,
        acc="random-el", seed=9, n_ap=2,
    )
    assert parse_hoa(first.out) == expected


def test_random_without_seed_reports_one(capsys):
    assert main(["random", "--states", "4", "--marks", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("seed: ")
    int(captured.err.split(":", 1)[1])
    parse_hoa(captured.out)


def test_bench_report_to_stdout(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("family=fig2\nfig2=1..2\nreport=-\n")
    assert main(["bench", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("telabench 1\n")
    assert "mismatches=0" in out


def test_bench_report_to_file(tmp_path, capsys):
    report = tmp_path / "report.txt"
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"family=fig2\nfig2=1..2\nreport={report}\n")
    assert main(["bench", "--config", str(cfg)]) == 0
    table = capsys.readouterr().out
    assert table.splitlines()[0].startswith("method")
    assert "0 mismatches" in table
    assert report.read_text().startswith("telabench 1\n")


# Two transitions that differ only in their marks: infinitely many !a.
PARALLEL_HOA = """\
HOA: v1
States: 1
Start: 0
AP: 1 "a"
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0
[!0] 0 {0}
[!0] 0 {1}
[0] 0
--END--
"""


def test_parallel_transitions_through_every_command(tmp_path, capsys):
    path = tmp_path / "parallel.hoa"
    path.write_text(PARALLEL_HOA)
    assert main(["check", "empty", str(path)]) == 1
    assert capsys.readouterr().out == "| !0\n"
    commands = [["determinize", "--method", m] for m in DET_METHODS]
    commands += [["convert", "--to", "gba", "--method", m] for m in GBA_METHODS]
    for command in commands:
        assert main(command + [str(path)]) == 0, command
        out = parse_hoa(capsys.readouterr().out)
        assert accepts(out, (1,), (0, 1)) and not accepts(out, (0,), (1,)), command


def test_bad_inputs_exit_3(tmp_path, capsys):
    assert main(["check", "empty", str(tmp_path / "missing.hoa")]) == 3
    assert capsys.readouterr().err.startswith("error:")

    bad = tmp_path / "bad.hoa"
    bad.write_text("HOA: v1\nmystery\n")
    assert main(["check", "empty", str(bad)]) == 3
    assert "line 2" in capsys.readouterr().err

    dup = tmp_path / "dup.hoa"
    hoa = print_hoa(universal_automaton())
    dup.write_text(hoa.replace('AP: 1 "a"', 'AP: 2 "a" "a"'))
    assert main(["check", "empty", str(dup)]) == 3
    assert "line 4: duplicate atomic proposition names" in capsys.readouterr().err

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("pipeline=warp\n")
    assert main(["bench", "--config", str(cfg)]) == 3
    assert "pipeline" in capsys.readouterr().err

    cfg.write_text("seed=1\nmarks=0\n")
    assert main(["bench", "--config", str(cfg)]) == 3
    assert "error: line 2: marks out of range: 0" in capsys.readouterr().err


def test_deep_nesting_exits_3_with_line(tmp_path, capsys):
    depth = 5000
    head = 'HOA: v1\nStates: 1\nStart: 0\nAP: 1 "a"\n'
    nested = "(" * depth + "{}" + ")" * depth
    cases = [
        (f"Acceptance: 1 {nested.format('Inf(0)')}", "[t]", 5),
        ("Acceptance: 1 Inf(0)", f"[{nested.format('0')}]", 8),
        ("Acceptance: 1 Inf(0)", f"[{'!' * depth}0]", 8),
    ]
    for acceptance, label, line in cases:
        path = tmp_path / "deep.hoa"
        path.write_text(
            f"{head}{acceptance}\n--BODY--\nState: 0\n{label} 0\n--END--\n"
        )
        assert main(["check", "empty", str(path)]) == 3
        assert f"line {line}:" in capsys.readouterr().err


def run_cli_capped(argv):
    """Run `python -m tela.cli` in a child process whose address space is
    capped at 512 MB, so an input that makes it allocate without bound
    fails there instead of exhausting the machine."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = str(pathlib.Path(tela.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-m", "tela.cli", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=cap,
        env=env,
    )


def test_huge_mdp_state_count_exits_3_under_a_memory_cap(tmp_path):
    mdp = tmp_path / "huge.mdp"
    mdp.write_text(f"states {10**12}\ntrans 0 a 0 1\n")
    aut = write_hoa(tmp_path, "uni.hoa", universal_automaton())
    done = run_cli_capped(["mc", "--mdp", str(mdp), "--aut", aut, "--qual"])
    assert done.returncode == 3, done.stderr
    assert "line 1: state 1 has no action" in done.stderr


def test_huge_mark_count_exits_3_under_a_memory_cap(tmp_path):
    hoa = print_hoa(universal_automaton())
    assert "Acceptance: 1 Inf(0)" in hoa
    path = tmp_path / "marks.hoa"
    path.write_text(hoa.replace("Acceptance: 1 Inf(0)", "Acceptance: 99999999999999 t"))
    done = run_cli_capped(["check", "deterministic", str(path)])
    assert done.returncode == 3, done.stderr
    line = hoa.splitlines().index("Acceptance: 1 Inf(0)") + 1
    assert f"line {line}: at most {MAX_MARKS} acceptance sets" in done.stderr


def test_huge_state_count_exits_3_under_a_memory_cap(tmp_path):
    hoa = print_hoa(universal_automaton())
    assert hoa.splitlines()[1] == "States: 1"
    path = tmp_path / "states.hoa"
    path.write_text(hoa.replace("States: 1", "States: 1000000000000"))
    commands = [
        ["check", "limitdet"],
        ["convert", "--to", "gba"],
        ["determinize", "--state-cap", "100"],
        ["limitdet", "--method", "ld"],
    ]
    for command in commands:
        done = run_cli_capped([*command, str(path)])
        assert done.returncode == 3, (command, done.stderr)
        assert f"line 2: at most {MAX_STATES} states" in done.stderr, command


def test_many_unused_states_answer_under_a_memory_cap(tmp_path, capsys):
    """A file that declares the most states the parser takes, over eight
    atomic propositions, but uses one: the breakpoint construction's
    successor tables stay the size of the transitions, and printing the
    result walks the transitions, not every (state, letter) slot.  The
    output is the one-state file's, with the breakpoint states numbered
    past the unused ones.  The emptiness and limit-determinism checks walk
    state bitmasks, and answer as on the one-state file."""
    used = Tela(
        ap=tuple("abcdefgh"),
        n_states=1,
        initial=frozenset({0}),
        transitions=tuple((0, letter, 0, 1) for letter in range(256)),
        acceptance=inf_(1),
        n_marks=1,
    )
    hoa = print_hoa(used)
    path = tmp_path / "unused.hoa"
    path.write_text(hoa.replace("States: 1\n", f"States: {MAX_STATES}\n"))
    done = run_cli_capped(["limitdet", "--method", "ld", str(path)])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # Two breakpoint states follow the input's: the seed and its successor.
    assert lines[1] == f"States: {MAX_STATES + 2}"
    assert lines[-1] == "--END--"
    small = build_ld(ensure_dnf(used))
    assert small.n_states == 3
    assert done.stdout == print_hoa(shifted_from(small, 1, MAX_STATES - 1))
    assert lines.count("State: 1") == 1
    one = tmp_path / "used.hoa"
    one.write_text(hoa)
    for command, code in ((["check", "empty"], 1), (["check", "limitdet"], 0)):
        done = run_cli_capped([*command, str(path)])
        assert main([*command, str(one)]) == code
        assert (done.returncode, done.stdout) == (code, capsys.readouterr().out)


def test_unexpected_exception_exits_4(tmp_path, capsys, monkeypatch):
    def broken(a):
        raise RuntimeError("boom")

    monkeypatch.setattr("tela.cli.accepting_lasso", broken)
    path = write_hoa(tmp_path, "uni.hoa", universal_automaton())
    assert main(["check", "empty", path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert err.endswith("\ninternal error: RuntimeError: boom\n")


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "bogus", "x"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["mc", "--mdp", "m", "--aut", "a"])
    assert excinfo.value.code == 2
    capsys.readouterr()
