"""Tests for HOA parsing and canonical printing."""

import pathlib
import random

import pytest

from tela import Tela, parse_hoa, print_hoa
from tela.acceptance import and_, fin_, inf_
import tela.hoaio as hoaio
from tela.core import BudgetExceeded, is_deterministic
from tela.determinize import empty_language_automaton
from tela.hoaio import HoaParseError
from tela.randbench import random_tela

from helpers import example_automaton, random_automaton
from oracles import oracle_label_letters

DATA = pathlib.Path(__file__).parent / "data"

MINIMAL = """HOA: v1
States: 2
Start: 0
AP: 1 "a"
Acceptance: 1 Inf(0)
--BODY--
State: 0
[t] 1
State: 1
[0] 1 {0}
[!0] 0
--END--
"""


def test_parse_minimal_buechi():
    a = parse_hoa(MINIMAL)
    assert a.n_states == 2
    assert a.initial == frozenset({0})
    assert a.ap == ("a",)
    assert a.n_marks == 1
    assert a.acceptance == inf_(1)
    assert set(a.transitions) == {
        (0, 0, 1, 0),
        (0, 1, 1, 0),
        (1, 1, 1, 1),
        (1, 0, 0, 0),
    }


def test_parse_hoa_lets_a_budget_failure_through(monkeypatch):
    """A time limit expiring while the parsed automaton is built stays a
    BudgetExceeded, not a parse error."""

    def expire(**fields):
        raise BudgetExceeded("time limit of 1 s exceeded", "time")

    monkeypatch.setattr(hoaio, "Tela", expire)
    with pytest.raises(BudgetExceeded) as info:
        parse_hoa(MINIMAL)
    assert not isinstance(info.value, HoaParseError)
    assert info.value.kind == "time"


def test_parse_acceptance_header_formula():
    text = MINIMAL.replace("Acceptance: 1 Inf(0)", "Acceptance: 2 Fin(0) & Inf(1)")
    a = parse_hoa(text)
    assert a.n_marks == 2
    assert a.acceptance == and_([fin_(1), inf_(2)])


def test_parse_collects_multiple_start_lines():
    text = MINIMAL.replace("Start: 0", "Start: 1\nStart: 0")
    assert parse_hoa(text).initial == frozenset({0, 1})


def test_parse_ignores_informational_headers():
    text = MINIMAL.replace(
        "AP: 1 \"a\"",
        "name: \"demo\"\ntool: \"telatool\"\nproperties: trans-labels\n"
        "acc-name: Buchi\nAP: 1 \"a\"",
    )
    assert parse_hoa(text) == parse_hoa(MINIMAL)


def test_parse_accepts_quoted_state_names():
    text = MINIMAL.replace("State: 0", 'State: 0 "hub"')
    assert parse_hoa(text) == parse_hoa(MINIMAL)


def test_quotes_and_backslashes_in_names_round_trip():
    a = Tela(
        ap=('say "hi"', "back\\slash"),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 3, 0, 1),),
        acceptance=inf_(1),
        n_marks=1,
    )
    out = print_hoa(a)
    assert 'AP: 2 "say \\"hi\\"" "back\\\\slash"\n' in out
    assert parse_hoa(out) == a
    named = out.replace("State: 0", 'State: 0 "a \\"quoted\\" \\\\ name"')
    assert parse_hoa(named) == a


def test_parse_dedupes_repeated_transitions():
    text = MINIMAL.replace("[t] 1", "[t] 1\n[0] 1\n[!0] 1")
    a = parse_hoa(text)
    assert sorted(t for t in a.transitions if t[0] == 0) == [(0, 0, 1, 0), (0, 1, 1, 0)]


def test_label_formula_expansion():
    text = """HOA: v1
States: 1
Start: 0
AP: 2 "a" "b"
Acceptance: 1 Inf(0)
--BODY--
State: 0
[0 | !1] 0 {0}
[(!0 & 1) | f] 0
--END--
"""
    a = parse_hoa(text)
    marked = sorted(t[1] for t in a.transitions if t[3] == 1)
    plain = sorted(t[1] for t in a.transitions if t[3] == 0)
    assert marked == [0, 1, 3]
    assert plain == [2]

    blanket = text.replace("[0 | !1] 0 {0}", "[t] 0 {0}")
    b = parse_hoa(blanket)
    assert sorted(t[1] for t in b.transitions if t[3] == 1) == [0, 1, 2, 3]


def random_label(rng: random.Random, n_ap: int, depth: int = 0) -> str:
    """Label text over n_ap APs with `!`, parentheses, unparenthesized
    `&`/`|` chains and uneven spacing."""

    def gap() -> str:
        return rng.choice(["", "", " ", "  "])

    roll = rng.random() if depth < 4 else 0.0
    if roll < 0.35:
        atoms = ["t", "f"] + [str(i) for i in range(n_ap)] * 3
        return rng.choice(atoms)
    if roll < 0.5:
        return "!" + gap() + random_label(rng, n_ap, depth + 1)
    if roll < 0.65:
        return "(" + gap() + random_label(rng, n_ap, depth + 1) + gap() + ")"
    op = rng.choice("&|")
    return gap().join(
        [random_label(rng, n_ap, depth + 1), op, random_label(rng, n_ap, depth + 1)]
    )


def test_label_expansion_matches_the_oracle():
    rng = random.Random(3)
    for _ in range(1000):
        n_ap = rng.randint(0, 8)
        label = random_label(rng, n_ap)
        names = "".join(f' "p{i}"' for i in range(n_ap))
        text = (
            f"HOA: v1\nStates: 1\nStart: 0\nAP: {n_ap}{names}\n"
            f"Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[{label}] 0\n--END--\n"
        )
        letters = [t[1] for t in parse_hoa(text).transitions]
        assert letters == oracle_label_letters(label, n_ap), label


def test_round_trip_reproduces_random_automata():
    rng = random.Random(20260814)
    for _ in range(60):
        a = random_automaton(
            rng, max_states=5, n_marks=3, n_ap=2, density=0.6, mark_prob=0.4
        )
        assert parse_hoa(print_hoa(a)) == a
    for seed in range(40):
        a = random_tela(
            n_states=5,
            n_marks=4,
            edge_density=0.5,
            mark_prob=0.3,
            acc="dnf",
            seed=seed,
            n_ap=2,
        )
        assert parse_hoa(print_hoa(a)) == a


def test_printing_is_byte_deterministic():
    a = example_automaton()
    first = print_hoa(a)
    assert print_hoa(a) == first
    assert print_hoa(parse_hoa(first)) == first


def test_print_matches_golden_file():
    golden = (DATA / "empty_language.hoa").read_text()
    assert print_hoa(empty_language_automaton(("a", "b"))) == golden


def test_deterministic_property_line_tracks_the_predicate():
    det = empty_language_automaton(("a",))
    assert is_deterministic(det)
    assert "properties: deterministic" in print_hoa(det)

    nondet = example_automaton()
    assert not is_deterministic(nondet)
    assert "properties:" not in print_hoa(nondet)


def test_printed_labels_and_mark_sets():
    a = Tela(
        ap=("a", "b"),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 2, 0, 5),),
        acceptance=and_([inf_(1), inf_(4)]),
        n_marks=3,
    )
    out = print_hoa(a)
    assert "[!0&1] 0 {0 2}" in out
    assert "Acceptance: 3 Inf(0) & Inf(2)" in out
    assert parse_hoa(out) == a


def test_zero_ap_round_trip():
    a = Tela(
        ap=(),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 1),),
        acceptance=inf_(1),
        n_marks=1,
    )
    out = print_hoa(a)
    assert "AP: 0\n" in out
    assert "[t] 0 {0}" in out
    assert parse_hoa(out) == a


PARSE_ERROR_CASES = [
    (MINIMAL.replace("HOA: v1", "HOA: v2"), 1, "unsupported HOA version"),
    (MINIMAL.replace("HOA: v1\n", ""), 1, "missing HOA: v1 header"),
    (MINIMAL.replace("States: 2\n", ""), 1, "missing States header"),
    (MINIMAL.replace("Acceptance: 1 Inf(0)\n", ""), 1, "missing Acceptance header"),
    (MINIMAL.replace("Start: 0", "States: 2\nStart: 0"), 3, "duplicate States header"),
    (MINIMAL.replace("Start: 0", "HOA: v1\nStart: 0"), 3, "duplicate HOA header"),
    (
        MINIMAL.replace("Start: 0", 'AP: 1 "a"\nStart: 0'),
        5,
        "duplicate AP header",
    ),
    (
        MINIMAL.replace("--BODY--", "Acceptance: 1 Inf(0)\n--BODY--"),
        6,
        "duplicate Acceptance header",
    ),
    (MINIMAL.replace("Start: 0", "Start: 0&1"), 3, "single state per Start line"),
    (MINIMAL.replace("Start: 0", "Start: 5"), 3, "initial state 5 out of range"),
    (
        MINIMAL.replace("Start: 0", "Start: 0\nStart: 0\nStart: 7"),
        5,
        "initial state 7 out of range",
    ),
    (MINIMAL.replace('AP: 1 "a"', 'AP: 2 "a"'), 4, "declares 2 names but lists 1"),
    (
        MINIMAL.replace('AP: 1 "a"', 'AP: 2 "a" junk, "b" )'),
        4,
        "AP names must be quoted strings separated by whitespace",
    ),
    (
        MINIMAL.replace('AP: 1 "a"', 'AP: 9 "a" "b" "c" "d" "e" "f" "g" "h" "i"'),
        4,
        "at most 8 atomic propositions",
    ),
    (
        MINIMAL.replace('AP: 1 "a"', 'AP: 2 "a" "a"'),
        4,
        "duplicate atomic proposition names",
    ),
    (MINIMAL.replace('AP: 1 "a"', "Bogus: 3"), 4, "unknown header 'Bogus'"),
    (MINIMAL.replace("Start: 0", "just some text\nStart: 0"), 3, "expected a header"),
    (MINIMAL.replace("States: 2", "States: two"), 2, "bad state count"),
    (
        MINIMAL.replace("Acceptance: 1 Inf(0)", "Acceptance: 1 Inf(3)"),
        5,
        "mark 3 out of range",
    ),
    (
        MINIMAL.replace("Acceptance: 1 Inf(0)", "Acceptance: 1 Inf(!0)"),
        5,
        "negated mark atoms are unsupported",
    ),
    (MINIMAL.replace("State: 0", "State: 0 {0}"), 7, "state-based acceptance"),
    (MINIMAL.replace("State: 0", "State: [t] 0"), 7, "state labels are not supported"),
    (MINIMAL.replace("State: 1", "State: 0"), 9, "state 0 declared twice"),
    (MINIMAL.replace("State: 0", "State: 7"), 7, "state 7 out of range"),
    (MINIMAL.replace("[t] 1", "[t] 7"), 8, "state 7 out of range"),
    (MINIMAL.replace("[t] 1", "[t] 1 {4}"), 8, "mark 4 out of range"),
    (MINIMAL.replace("[t] 1", "1"), 8, "implicit transition labels"),
    (MINIMAL.replace("[t] 1", "[t] 0 1"), 8, "single target state after the label"),
    (MINIMAL.replace("State: 0\n", ""), 7, "transition before any State line"),
    (MINIMAL.replace("[t] 1", "[1] 1"), 8, "references AP 1, only 1 declared"),
    (MINIMAL.replace("[t] 1", "[] 1"), 8, "empty label"),
    (MINIMAL.replace("[t] 1", "[t t] 1"), 8, "trailing input in label"),
    (MINIMAL.replace("[t] 1", "[(t] 1"), 8, "ends unexpectedly"),
    (MINIMAL.replace("[t] 1", "[a] 1"), 8, "bad character 'a'"),
    (MINIMAL.replace("--END--\n", ""), 11, "missing --END--"),
]


def test_parse_error_lines_and_messages():
    for text, line, fragment in PARSE_ERROR_CASES:
        with pytest.raises(HoaParseError) as excinfo:
            parse_hoa(text)
        assert fragment in str(excinfo.value), fragment
        assert excinfo.value.line == line, fragment
        assert str(excinfo.value).startswith(f"line {line}:"), fragment


def test_missing_body_marker():
    headers_only = "HOA: v1\nStates: 1\nStart: 0\nAP: 0\nAcceptance: 0 t\n"
    with pytest.raises(HoaParseError, match="missing --BODY--") as excinfo:
        parse_hoa(headers_only)
    assert excinfo.value.line == 5
