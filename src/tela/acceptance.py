"""Acceptance conditions over transition marks.

An acceptance condition is a positive Boolean formula over atoms Inf(S) and
Fin(S), where S is a set of mark indices (a bitmask).  A run satisfies Inf(S)
iff some mark in S occurs on infinitely many of its transitions, and Fin(S)
iff no mark in S does.  Atoms range over mark sets rather than single marks:
Inf(S) abbreviates the disjunction of Inf(j) for j in S, and Fin(S) the
conjunction of Fin(j) for j in S, which keeps merged Fin atoms from
multiplying marks.

Mark sets are plain ints used as bitmasks.  A DNF disjunct with no Inf atom
has an empty tuple of Inf sets: the empty conjunction holds on every run, so
such a disjunct asks only that its Fin set stay clear.  Constructions that
need an Inf set in every disjunct read the DNF through `dnf_structure`;
`transforms.ensure_dnf` puts a fresh mark on every transition for them.

This module owns the HOA Boolean syntax: `parse_formula` reads both
Acceptance formulas (through `parse_acceptance`) and transition labels
(through hoaio).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator


class AcceptanceError(ValueError):
    pass


class NotInDnfError(AcceptanceError):
    pass


def mark_indices(bits: int) -> Iterator[int]:
    """The indices of the set bits, in ascending order, one step per set
    bit, so a sparse mask over many states costs what its members cost."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


@dataclass(frozen=True)
class Acceptance:
    """Base class for acceptance formula nodes."""


@dataclass(frozen=True)
class BoolConst(Acceptance):
    value: bool


@dataclass(frozen=True)
class Inf(Acceptance):
    marks: int


@dataclass(frozen=True)
class Fin(Acceptance):
    marks: int


@dataclass(frozen=True)
class And(Acceptance):
    parts: tuple[Acceptance, ...]


@dataclass(frozen=True)
class Or(Acceptance):
    parts: tuple[Acceptance, ...]


TRUE = BoolConst(True)
FALSE = BoolConst(False)


def inf_(marks: int) -> Acceptance:
    """Inf over a mark set; the empty set is unsatisfiable."""
    return Inf(marks) if marks else FALSE


def fin_(marks: int) -> Acceptance:
    """Fin over a mark set; the empty set is trivially satisfied."""
    return Fin(marks) if marks else TRUE


def and_(parts: Iterable[Acceptance]) -> Acceptance:
    """Conjunction; flattens, simplifies constants, merges Fin atoms.

    Fin(S) & Fin(S') is the same condition as Fin(S | S'), so sibling Fin
    atoms collapse into one.  This keeps formulas canonical enough that the
    text form round-trips structurally.
    """
    flat: list[Acceptance] = []
    fin_marks = 0
    fin_pos = -1
    for p in parts:
        if isinstance(p, And):
            items: Iterable[Acceptance] = p.parts
        else:
            items = (p,)
        for q in items:
            if q == TRUE:
                continue
            if q == FALSE:
                return FALSE
            if isinstance(q, Fin):
                if fin_pos < 0:
                    fin_pos = len(flat)
                    flat.append(q)
                fin_marks |= q.marks
            else:
                flat.append(q)
    if fin_pos >= 0:
        flat[fin_pos] = Fin(fin_marks)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def or_(parts: Iterable[Acceptance]) -> Acceptance:
    """Disjunction; flattens, simplifies constants, merges Inf atoms."""
    flat: list[Acceptance] = []
    inf_marks = 0
    inf_pos = -1
    for p in parts:
        if isinstance(p, Or):
            items: Iterable[Acceptance] = p.parts
        else:
            items = (p,)
        for q in items:
            if q == FALSE:
                continue
            if q == TRUE:
                return TRUE
            if isinstance(q, Inf):
                if inf_pos < 0:
                    inf_pos = len(flat)
                    flat.append(q)
                inf_marks |= q.marks
            else:
                flat.append(q)
    if inf_pos >= 0:
        flat[inf_pos] = Inf(inf_marks)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def evaluate(seen: int, phi: Acceptance) -> bool:
    """Decide phi for a run whose infinitely recurring marks are `seen`."""
    match phi:
        case BoolConst(value=v):
            return v
        case Inf(marks=m):
            return bool(seen & m)
        case Fin(marks=m):
            return not seen & m
        case And(parts=ps):
            return all(evaluate(seen, p) for p in ps)
        case Or(parts=ps):
            return any(evaluate(seen, p) for p in ps)
    raise AcceptanceError(f"not an acceptance formula: {phi!r}")


def length(phi: Acceptance) -> int:
    """Number of atoms, counting an atom over a mark set as its expansion size."""
    match phi:
        case BoolConst():
            return 1
        case Inf(marks=m) | Fin(marks=m):
            return m.bit_count()
        case And(parts=ps) | Or(parts=ps):
            return sum(length(p) for p in ps)
    raise AcceptanceError(f"not an acceptance formula: {phi!r}")


def all_marks(phi: Acceptance) -> int:
    match phi:
        case BoolConst():
            return 0
        case Inf(marks=m) | Fin(marks=m):
            return m
        case And(parts=ps) | Or(parts=ps):
            bits = 0
            for p in ps:
                bits |= all_marks(p)
            return bits
    raise AcceptanceError(f"not an acceptance formula: {phi!r}")


def negate(phi: Acceptance) -> Acceptance:
    """Complement condition: dualize operators and swap Inf with Fin."""
    match phi:
        case BoolConst(value=v):
            return FALSE if v else TRUE
        case Inf(marks=m):
            return fin_(m)
        case Fin(marks=m):
            return inf_(m)
        case And(parts=ps):
            return or_(negate(p) for p in ps)
        case Or(parts=ps):
            return and_(negate(p) for p in ps)
    raise AcceptanceError(f"not an acceptance formula: {phi!r}")


def offset_marks(phi: Acceptance, offset: int) -> Acceptance:
    """Shift every mark index up by `offset`."""
    match phi:
        case BoolConst():
            return phi
        case Inf(marks=m):
            return Inf(m << offset)
        case Fin(marks=m):
            return Fin(m << offset)
        case And(parts=ps):
            return And(tuple(offset_marks(p, offset) for p in ps))
        case Or(parts=ps):
            return Or(tuple(offset_marks(p, offset) for p in ps))
    raise AcceptanceError(f"not an acceptance formula: {phi!r}")


@dataclass(frozen=True)
class DnfDisjunct:
    """One disjunct Fin(fin) & Inf(infs[0]) & ... & Inf(infs[-1]).

    infs is empty for a disjunct with no Inf atom; the empty conjunction
    holds on every run.
    """

    fin: int
    infs: tuple[int, ...]

    def holds(self, marks: int) -> bool:
        """Truth for a run whose infinitely recurring marks are `marks`."""
        return not marks & self.fin and all(marks & s for s in self.infs)


@dataclass(frozen=True)
class DnfAcceptance:
    """Disjunctive normal form; no disjuncts means the condition is false."""

    disjuncts: tuple[DnfDisjunct, ...]


@lru_cache(maxsize=1024)
def to_dnf(phi: Acceptance) -> DnfAcceptance:
    """Distribute into DNF, merging Fin atoms per disjunct.

    Duplicate Inf sets within a disjunct and duplicate disjuncts are dropped
    (first occurrence kept); no other subsumption is applied, so the output
    order is deterministic.  Results are cached per formula, as the
    constructions of one input ask for the same acceptance's DNF many times;
    a DNF is immutable, so every caller may share it.
    """

    def walk(node: Acceptance) -> list[tuple[int, tuple[int, ...]]]:
        match node:
            case BoolConst(value=v):
                return [(0, ())] if v else []
            case Inf(marks=m):
                return [(0, (m,))]
            case Fin(marks=m):
                return [(m, ())]
            case Or(parts=ps):
                out: list[tuple[int, tuple[int, ...]]] = []
                for p in ps:
                    out.extend(walk(p))
                return out
            case And(parts=ps):
                acc = [(0, ())]
                for p in ps:
                    branch = walk(p)
                    acc = [(f1 | f2, i1 + i2) for (f1, i1) in acc for (f2, i2) in branch]
                return acc
        raise AcceptanceError(f"not an acceptance formula: {node!r}")

    disjuncts: list[DnfDisjunct] = []
    seen_disjuncts = set()
    for fin, infs in walk(phi):
        uniq: list[int] = []
        for s in infs:
            if s not in uniq:
                uniq.append(s)
        d = DnfDisjunct(fin, tuple(uniq))
        if d not in seen_disjuncts:
            seen_disjuncts.add(d)
            disjuncts.append(d)
    return DnfAcceptance(tuple(disjuncts))


def dnf_length(dnf: DnfAcceptance) -> int:
    """Atom count of the DNF; a disjunct without Inf atoms counts one for
    its missing Inf, as if it carried Inf over every transition."""
    total = 0
    for d in dnf.disjuncts:
        total += d.fin.bit_count()
        total += sum(s.bit_count() for s in d.infs) or 1
    return total


def offset_dnf(dnf: DnfAcceptance, offset: int) -> DnfAcceptance:
    return DnfAcceptance(
        tuple(
            DnfDisjunct(d.fin << offset, tuple(s << offset for s in d.infs))
            for d in dnf.disjuncts
        )
    )


def disjunct_formula(d: DnfDisjunct) -> Acceptance:
    """Formula form of a single disjunct, which must carry an Inf set."""
    if not d.infs:
        raise AcceptanceError("disjunct has no Inf set; see transforms.ensure_dnf")
    return and_([fin_(d.fin), *[Inf(s) for s in d.infs]])


def dnf_formula(dnf: DnfAcceptance) -> Acceptance:
    return or_(disjunct_formula(d) for d in dnf.disjuncts)


def dnf_structure(phi: Acceptance) -> DnfAcceptance:
    """The DNF of phi for constructions that need an Inf set in every
    disjunct: `to_dnf`, raising NotInDnfError on a disjunct without one
    (`transforms.ensure_dnf` gives it an Inf over every transition)."""
    dnf = to_dnf(phi)
    if any(not d.infs for d in dnf.disjuncts):
        raise NotInDnfError(
            "not in DNF: disjunct without Inf atom (needs an Inf over all "
            "transitions; see transforms.ensure_dnf)"
        )
    return dnf


def is_finless(phi: Acceptance) -> bool:
    match phi:
        case BoolConst() | Inf():
            return True
        case Fin():
            return False
        case And(parts=ps) | Or(parts=ps):
            return all(is_finless(p) for p in ps)
    raise AcceptanceError(f"not an acceptance formula: {phi!r}")


def finless_to_gba(phi: Acceptance) -> list[int]:
    """CNF of a Fin-free condition, each clause merged into one Inf mark set.

    Returns mark sets S_1..S_K with /\\ Inf(S_j) equivalent to phi.  Clauses
    are produced by left-to-right distribution; duplicate clauses are removed,
    no other subsumption, so the output is deterministic.
    """
    if not is_finless(phi):
        raise AcceptanceError("finless_to_gba requires a Fin-free condition")

    def clauses(node: Acceptance) -> list[int]:
        match node:
            case BoolConst(value=v):
                return [] if v else [0]
            case Inf(marks=m):
                return [m]
            case And(parts=ps):
                out: list[int] = []
                for p in ps:
                    out.extend(clauses(p))
                return out
            case Or(parts=ps):
                acc = [0]
                for p in ps:
                    branch = clauses(p)
                    acc = [c1 | c2 for c1 in acc for c2 in branch]
                return acc
        raise AcceptanceError(f"not an acceptance formula: {node!r}")

    out: list[int] = []
    seen = set()
    for c in clauses(phi):
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def gba_marksets(phi: Acceptance) -> list[int] | None:
    """Mark sets of a generalized-Buchi condition /\\ Inf(S_j), else None."""
    if phi == TRUE:
        return []
    if isinstance(phi, Inf):
        return [phi.marks]
    if isinstance(phi, And) and all(isinstance(p, Inf) for p in phi.parts):
        return [p.marks for p in phi.parts]  # type: ignore[union-attr]
    return None


def format_acceptance(phi: Acceptance) -> str:
    """Canonical HOA Acceptance formula text.

    Mark-set atoms expand to their single-mark form: Inf(S) as a disjunction,
    Fin(S) as a conjunction.  Parsing merges these back, so the round trip is
    structural.
    """

    def fmt(node: Acceptance, ctx: int) -> str:
        match node:
            case BoolConst(value=v):
                return "t" if v else "f"
            case Inf(marks=m):
                txt = " | ".join(f"Inf({j})" for j in mark_indices(m))
                return f"({txt})" if m.bit_count() > 1 and ctx > 1 else txt
            case Fin(marks=m):
                txt = " & ".join(f"Fin({j})" for j in mark_indices(m))
                return f"({txt})" if m.bit_count() > 1 and ctx > 2 else txt
            case And(parts=ps):
                return " & ".join(fmt(p, 2) for p in ps)
            case Or(parts=ps):
                txt = " | ".join(fmt(p, 1) for p in ps)
                return f"({txt})" if ctx > 1 else txt
        raise AcceptanceError(f"not an acceptance formula: {node!r}")

    return fmt(phi, 1)


def parse_acceptance(text: str, n_marks: int | None = None) -> Acceptance:
    """Parse the HOA Acceptance formula syntax (t, f, Inf(k), Fin(k), &, |)."""
    def leaf(kind: str, k: int | None) -> Acceptance | None:
        if kind not in ("Inf", "Fin"):
            return {"t": TRUE, "f": FALSE}.get(kind)
        if n_marks is not None and k >= n_marks:
            raise AcceptanceError(
                f"mark {k} out of range, acceptance declares {n_marks}"
            )
        return Inf(1 << k) if kind == "Inf" else Fin(1 << k)

    return parse_formula(text, "acceptance formula", leaf, and_, or_)


def parse_formula(text: str, what: str, leaf, conj, disj, neg=None):
    """Fold a formula in the HOA Boolean syntax bottom-up as it is read.

    `|` binds loosest, then `&`, then prefix `!`; an atom is t, f, an
    integer, Inf(k), Fin(k) or a parenthesized formula.  `leaf(kind, k)` gives
    an atom's value (kind "t", "f", "int", "Inf" or "Fin"; k None for t and f),
    or None where that atom is not allowed.  `conj` and `disj` fold the
    operand lists of & and |, `neg` the operand of ! (None rejects !).
    Malformed text raises AcceptanceError naming `what`.
    """
    tokens = _tokenize(text, what)
    if not tokens:
        raise AcceptanceError(f"empty {what}")
    where = f"in {what} {text!r}"
    pos = 0

    def take() -> tuple[str, int]:
        nonlocal pos
        if pos >= len(tokens):
            raise AcceptanceError(f"{what} {text!r} ends unexpectedly")
        pos += 1
        return tokens[pos - 1]

    def expect(want: str) -> None:
        tok, col = take()
        if tok != want:
            raise AcceptanceError(f"expected {want!r} at column {col} {where}")

    def parse_or():
        parts = [parse_and()]
        while pos < len(tokens) and tokens[pos][0] == "|":
            take()
            parts.append(parse_and())
        return disj(parts)

    def parse_and():
        parts = [parse_atom()]
        while pos < len(tokens) and tokens[pos][0] == "&":
            take()
            parts.append(parse_atom())
        return conj(parts)

    def parse_atom():
        tok, col = take()
        if tok == "!" and neg is not None:
            return neg(parse_atom())
        if tok == "(":
            value = parse_or()
            expect(")")
            return value
        if tok in ("Inf", "Fin"):
            expect("(")
            num, num_col = take()
            if not num.isdigit():
                raise AcceptanceError(
                    f"expected mark index at column {num_col} {where}"
                    " (negated mark atoms are unsupported)"
                )
            expect(")")
            value = leaf(tok, int(num))
        elif tok.isdigit():
            value = leaf("int", int(tok))
        else:
            value = leaf(tok, None) if tok in ("t", "f") else None
        if value is None:
            raise AcceptanceError(f"unexpected token {tok!r} at column {col} {where}")
        return value

    try:
        result = parse_or()
    except RecursionError:
        raise AcceptanceError(f"{what} nested too deeply") from None
    if pos != len(tokens):
        raise AcceptanceError(f"trailing input {where} at column {tokens[pos][1]}")
    return result


def _tokenize(text: str, what: str) -> list[tuple[str, int]]:
    """Tokens of the HOA Boolean syntax with their columns."""
    tokens: list[tuple[str, int]] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()&|!":
            tokens.append((c, i))
            i += 1
        elif text.startswith(("Inf", "Fin"), i):
            tokens.append((text[i : i + 3], i))
            i += 3
        elif c in "tf" and not text[i + 1 : i + 2].isalnum():
            tokens.append((c, i))
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append((text[i:j], i))
            i = j
        else:
            raise AcceptanceError(
                f"bad character {c!r} at column {i} in {what} {text!r}"
            )
    return tokens
