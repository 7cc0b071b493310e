"""Acceptance transformations: Fin-removal and TELA-to-GBA translations.

Fin-removal builds the main copy plus one copy per DNF disjunct.  Copy i
drops the transitions of the disjunct's Fin set, keeps bridge transitions
from the main copy into copy i for every original transition, and the
rewritten condition asks that some copy i sees all of its Inf sets
infinitely often.  Runs that stay in the main copy see no marks and cannot
accept; accepting runs commit to one copy.  Copy i keeps only the states
from which all of its Inf sets stay reachable, and the output only the
states reachable from the initial ones.

Four translations to generalized-Buchi acceptance:

- cnf: Fin-removal, then CNF of the resulting Fin-free condition with each
  clause's Inf atoms merged; up to 2^|acc| acceptance sets.
- remfin_split: disjoint GBA sum over the split of the Fin-removal output.
- split_remfin: split first, Fin-removal per disjunct, then the GBA sum.
- remfin_rewrite: single Fin-removal structure whose copies share k = max k_i
  acceptance sets, padding shorter disjuncts with Inf over all their copy's
  transitions.

The copy-based methods use at most |acc| acceptance sets.
"""

from __future__ import annotations

from functools import reduce

from .acceptance import (
    FALSE,
    DnfAcceptance,
    DnfDisjunct,
    Inf,
    and_,
    dnf_formula,
    dnf_structure,
    finless_to_gba,
    or_,
    to_dnf,
)
from .core import (
    Tela,
    TelaError,
    _reachable_part,
    complete,
    empty_language_automaton,
    project_marks,
    reach,
    split,
    sum_gba,
    with_all_mark,
)

GBA_METHODS = ("cnf", "remfin_split", "split_remfin", "remfin_rewrite")


def ensure_dnf(a: Tela) -> Tela:
    """Rewrite the acceptance condition into syntactic DNF.

    A disjunct without Inf atoms needs Inf over all transitions; in that case
    a fresh mark carried by every transition is added first.
    """
    dnf = to_dnf(a.acceptance)
    if any(not d.infs for d in dnf.disjuncts):
        a, mark = with_all_mark(a)
        dnf = DnfAcceptance(
            tuple(DnfDisjunct(d.fin, d.infs or (1 << mark,)) for d in dnf.disjuncts)
        )
    return a.with_acceptance(dnf_formula(dnf), a.n_marks)


def remove_fin(a: Tela) -> Tela:
    """Remove Fin atoms from a DNF-acceptance automaton, language-preserving.

    The output condition is the disjunction over copies i of the conjunction
    of Inf over that copy's surviving Inf-set transitions, using sum(k_i)
    fresh marks numbered copy-major: copy i's marks are shifted past the
    k_1 + ... + k_(i-1) marks of the copies before it.
    """
    dnf = dnf_structure(a.acceptance)
    layout, conjunctions, total = [], [], 0
    for d in dnf.disjuncts:
        layout.append((total, 0))
        bits = range(total, total + len(d.infs))
        conjunctions.append(and_(Inf(1 << j) for j in bits))
        total += len(d.infs)
    return _fin_removal_structure(a, dnf, layout, or_(conjunctions), total)


def remove_fin_gba(a: Tela) -> Tela:
    """Fin-removal variant whose output is generalized-Buchi directly.

    All copies share k = max k_i acceptance sets; set j on copy i collects
    the copy's j-th Inf set, or all of the copy's transitions when j exceeds
    k_i (the padding keeps shorter disjuncts satisfiable exactly when their
    own sets recur).
    """
    dnf = dnf_structure(a.acceptance)
    k = max((len(d.infs) for d in dnf.disjuncts), default=0)
    layout = [(0, (1 << k) - (1 << len(d.infs))) for d in dnf.disjuncts]
    acceptance = and_(Inf(1 << j) for j in range(k)) if k else FALSE
    return _fin_removal_structure(a, dnf, layout, acceptance, k)


def _fin_removal_structure(
    a: Tela,
    dnf: DnfAcceptance,
    layout: list[tuple[int, int]],
    acceptance,
    n_marks: int,
) -> Tela:
    """Main copy plus copy i per disjunct; with layout[i] = (shift, pad), a
    copy-i transition carries the original marks projected onto the
    disjunct's Inf sets, shifted left by `shift`, OR `pad`.

    Copy i keeps the states from which every Inf set of disjunct i is
    reachable over the transitions that avoid its Fin set.  The result is
    restricted to the part reachable from the initial states and renumbered
    in ascending state order.
    """
    n = a.n_states
    transitions = [(s, letter, d, 0) for s, letter, d, _ in a.transitions]
    for i, (disjunct, (shift, pad)) in enumerate(zip(dnf.disjuncts, layout)):
        base = (i + 1) * n
        inner = [t for t in a.transitions if not t[3] & disjunct.fin]
        back: dict[int, list[int]] = {}
        for s, _, d, _ in inner:
            back.setdefault(d, []).append(s)
        useful = set(range(n))
        for inf in disjunct.infs:
            useful &= reach({s for s, _, _, m in inner if m & inf}, back)
        transitions += [
            (s, letter, base + d, 0) for s, letter, d, _ in a.transitions if d in useful
        ]
        transitions += [
            (base + s, letter, base + d, project_marks(m, disjunct.infs) << shift | pad)
            for s, letter, d, m in inner
            if s in useful and d in useful
        ]
    return _reachable_part(a.ap, a.initial, transitions, acceptance, n_marks)


def to_gba(a: Tela, method: str) -> Tela:
    """Translate any TELA to a language-equal generalized-Buchi TELA."""
    if method not in GBA_METHODS:
        raise TelaError(f"unknown GBA method {method!r}; choose from {GBA_METHODS}")
    a = ensure_dnf(a)
    if a.acceptance == FALSE:
        return empty_language_automaton(a.ap).with_acceptance(Inf(1), 1)
    if method == "cnf":
        g = remove_fin(a)
        clause_sets = finless_to_gba(g.acceptance)
        transitions = [
            (s, letter, d, project_marks(marks, clause_sets))
            for s, letter, d, marks in g.transitions
        ]
        return Tela(
            ap=g.ap,
            n_states=g.n_states,
            initial=g.initial,
            transitions=tuple(transitions),
            acceptance=and_(Inf(1 << j) for j in range(len(clause_sets))),
            n_marks=len(clause_sets),
        )
    if method == "remfin_rewrite":
        return remove_fin_gba(a)
    if method == "remfin_split":
        parts = split(complete(remove_fin(a)))
    else:  # split_remfin
        parts = [complete(remove_fin(part)) for part in split(a)]
    return reduce(sum_gba, parts)
