"""HOA v1 input and output for the supported automaton subset.

Supported: explicit transition labels over at most 8 atomic propositions,
transition-based acceptance marks, multiple initial states (one per Start
line).  State-based acceptance, label aliases, implicit labels and initial
state conjunctions are rejected with a diagnostic carrying the line number.

Printing is canonical and byte-deterministic: fixed header order, states
ascending, one transition line per letter sorted by (letter, target, marks).
Parsing the printed form reproduces the automaton structurally.

Header and body lines are read here; Acceptance formulas and transition
labels go to acceptance.parse_formula, labels folding into letter sets.
"""

from __future__ import annotations

import operator
import re
from functools import partial, reduce

from .acceptance import (
    AcceptanceError,
    format_acceptance,
    mark_indices,
    parse_acceptance,
    parse_formula,
)
from .core import (
    MAX_AP,
    MAX_MARKS,
    MAX_STATES,
    BudgetExceeded,
    Tela,
    TelaError,
    Transition,
    is_deterministic,
)


class HoaParseError(TelaError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# A HOA string; inside it a backslash escapes the next character.
_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')
_ESCAPE = re.compile(r"\\(.)")
# The names of an AP header: HOA strings separated by whitespace, nothing else.
_AP_NAMES = re.compile(rf"(?:{_QUOTED.pattern}(?:\s+{_QUOTED.pattern})*)?")

# _AP_LETTERS[n][i]: the letters over n APs in which AP i holds, as a bitmask
# with bit l standing for letter l.
_AP_LETTERS = [
    [sum(1 << letter for letter in range(1 << n) if letter >> i & 1) for i in range(n)]
    for n in range(MAX_AP + 1)
]
_INTERSECT = partial(reduce, operator.and_)
_UNITE = partial(reduce, operator.or_)


def parse_hoa(text: str) -> Tela:
    lines = text.splitlines()
    pos = 0

    version = None
    n_states = None
    initial: dict[int, int] = {}  # initial state -> its first Start line
    ap: tuple[str, ...] | None = None
    n_marks = None
    acceptance = None

    while pos < len(lines):
        lineno = pos + 1
        line = lines[pos].strip()
        pos += 1
        if not line:
            continue
        if line == "--BODY--":
            break
        if ":" not in line:
            raise HoaParseError(f"expected a header, got {line!r}", lineno)
        key, _, rest = line.partition(":")
        rest = rest.strip()
        if key == "HOA":
            if version is not None:
                raise HoaParseError("duplicate HOA header", lineno)
            if rest != "v1":
                raise HoaParseError(f"unsupported HOA version {rest!r}", lineno)
            version = rest
        elif key == "States":
            if n_states is not None:
                raise HoaParseError("duplicate States header", lineno)
            n_states = _parse_int(rest, "state count", lineno)
            if n_states > MAX_STATES:
                raise HoaParseError(f"at most {MAX_STATES} states", lineno)
        elif key == "Start":
            if not rest.isdigit():
                raise HoaParseError(
                    "only a single state per Start line is supported", lineno
                )
            initial.setdefault(int(rest), lineno)
        elif key == "AP":
            if ap is not None:
                raise HoaParseError("duplicate AP header", lineno)
            parts = rest.split(None, 1)
            count = _parse_int(parts[0] if parts else "", "AP count", lineno)
            listed = parts[1] if len(parts) > 1 else ""
            if not _AP_NAMES.fullmatch(listed):
                raise HoaParseError(
                    f"AP names must be quoted strings separated by whitespace, "
                    f"got {listed!r}",
                    lineno,
                )
            names = [_ESCAPE.sub(r"\1", name) for name in _QUOTED.findall(listed)]
            if len(names) != count:
                raise HoaParseError(
                    f"AP header declares {count} names but lists {len(names)}", lineno
                )
            if count > MAX_AP:
                raise HoaParseError(f"at most {MAX_AP} atomic propositions", lineno)
            if len(set(names)) != count:
                raise HoaParseError("duplicate atomic proposition names", lineno)
            ap = tuple(names)
        elif key == "Acceptance":
            if acceptance is not None:
                raise HoaParseError("duplicate Acceptance header", lineno)
            parts = rest.split(None, 1)
            n_marks = _parse_int(parts[0] if parts else "", "mark count", lineno)
            if n_marks > MAX_MARKS:
                raise HoaParseError(f"at most {MAX_MARKS} acceptance sets", lineno)
            try:
                acceptance = parse_acceptance(
                    parts[1] if len(parts) > 1 else "", n_marks
                )
            except AcceptanceError as exc:
                raise HoaParseError(str(exc), lineno) from exc
        elif key in ("name", "tool", "properties", "acc-name"):
            continue
        else:
            raise HoaParseError(f"unknown header {key!r}", lineno)
    else:
        raise HoaParseError("missing --BODY--", len(lines))

    if version is None:
        raise HoaParseError("missing HOA: v1 header", 1)
    if n_states is None:
        raise HoaParseError("missing States header", 1)
    if ap is None:
        ap = ()
    if acceptance is None or n_marks is None:
        raise HoaParseError("missing Acceptance header", 1)

    transitions: list[Transition] = []
    declared: set[int] = set()
    # Printed automata repeat a few labels on every state; parse each once.
    label_letters: dict[str, list[int]] = {}
    current: int | None = None
    ended = False

    while pos < len(lines):
        lineno = pos + 1
        line = lines[pos].strip()
        pos += 1
        if not line:
            continue
        if line == "--END--":
            ended = True
            break
        if line.startswith("State:"):
            rest = line[len("State:") :].strip()
            if "{" in rest:
                raise HoaParseError(
                    "state-based acceptance marks are not supported", lineno
                )
            if rest.startswith("["):
                raise HoaParseError("state labels are not supported", lineno)
            parts = rest.split(None, 1)
            if not parts or not parts[0].isdigit():
                raise HoaParseError(f"bad State line {line!r}", lineno)
            if len(parts) > 1 and not _QUOTED.fullmatch(parts[1].strip()):
                raise HoaParseError(f"bad State line {line!r}", lineno)
            current = int(parts[0])
            if current >= n_states:
                raise HoaParseError(f"state {current} out of range", lineno)
            if current in declared:
                raise HoaParseError(f"state {current} declared twice", lineno)
            declared.add(current)
            continue
        if current is None:
            raise HoaParseError("transition before any State line", lineno)
        if not line.startswith("["):
            raise HoaParseError(
                "implicit transition labels are not supported", lineno
            )
        close = line.find("]")
        if close < 0:
            raise HoaParseError("unterminated label", lineno)
        label = line[1:close]
        rest = line[close + 1 :].strip()
        marks = 0
        if "{" in rest:
            body, _, mark_txt = rest.partition("{")
            rest = body.strip()
            mark_txt = mark_txt.strip()
            if not mark_txt.endswith("}"):
                raise HoaParseError("unterminated mark set", lineno)
            for tok in mark_txt[:-1].split():
                m = _parse_int(tok, "mark", lineno)
                if m >= n_marks:
                    raise HoaParseError(
                        f"mark {m} out of range, acceptance declares {n_marks}", lineno
                    )
                marks |= 1 << m
        if not rest.isdigit():
            raise HoaParseError(
                "expected a single target state after the label", lineno
            )
        dst = int(rest)
        if dst >= n_states:
            raise HoaParseError(f"state {dst} out of range", lineno)
        letters = label_letters.get(label)
        if letters is None:
            letters = label_letters[label] = _label_letters(label, len(ap), lineno)
        for letter in letters:
            transitions.append((current, letter, dst, marks))
    if not ended:
        raise HoaParseError("missing --END--", len(lines))
    for q, lineno in initial.items():
        if q >= n_states:
            raise HoaParseError(f"initial state {q} out of range", lineno)

    try:
        return Tela(
            ap=ap,
            n_states=n_states,
            initial=frozenset(initial),
            transitions=tuple(transitions),
            acceptance=acceptance,
            n_marks=n_marks,
        )
    except BudgetExceeded:
        raise
    except TelaError as exc:
        raise HoaParseError(str(exc), len(lines)) from exc


def print_hoa(a: Tela) -> str:
    out = ["HOA: v1", f"States: {a.n_states}"]
    for q in sorted(a.initial):
        out.append(f"Start: {q}")
    escaped = (name.replace("\\", "\\\\").replace('"', '\\"') for name in a.ap)
    names = " ".join(f'"{name}"' for name in escaped)
    out.append(f"AP: {len(a.ap)}" + (f" {names}" if names else ""))
    out.append(f"Acceptance: {a.n_marks} {format_acceptance(a.acceptance)}")
    if is_deterministic(a):
        out.append("properties: deterministic")
    out.append("--BODY--")
    labels = [_letter_label(letter, len(a.ap)) for letter in range(a.n_letters)]
    # The transitions are sorted, so each state's come together, in letter
    # order; one pass prints them all, however many letters are unused.
    ts = a.transitions
    pos = 0
    for q in range(a.n_states):
        out.append(f"State: {q}")
        while pos < len(ts) and ts[pos][0] == q:
            _, letter, dst, marks = ts[pos]
            pos += 1
            mark_txt = ""
            if marks:
                indices = " ".join(str(i) for i in mark_indices(marks))
                mark_txt = f" {{{indices}}}"
            out.append(f"[{labels[letter]}] {dst}{mark_txt}")
    out.append("--END--")
    return "\n".join(out) + "\n"


def _letter_label(letter: int, n_ap: int) -> str:
    if n_ap == 0:
        return "t"
    return "&".join(
        str(i) if letter >> i & 1 else f"!{i}" for i in range(n_ap)
    )


def _parse_int(token: str, what: str, lineno: int) -> int:
    if not token.isdigit():
        raise HoaParseError(f"bad {what} {token!r}", lineno)
    return int(token)


def _label_letters(label: str, n_ap: int, lineno: int) -> list[int]:
    """Letters (assignments) satisfying a HOA label formula over AP indices."""
    every = (1 << (1 << n_ap)) - 1

    def leaf(kind: str, k: int | None) -> int | None:
        if kind != "int":
            return {"t": every, "f": 0}.get(kind)
        if k >= n_ap:
            raise AcceptanceError(
                f"label {label!r} references AP {k}, only {n_ap} declared"
            )
        return _AP_LETTERS[n_ap][k]

    try:
        letters = parse_formula(label, "label", leaf, _INTERSECT, _UNITE, every.__xor__)
    except AcceptanceError as exc:
        raise HoaParseError(str(exc), lineno) from exc
    return list(mark_indices(letters))
