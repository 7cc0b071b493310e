"""Acceptance transformations: Fin-removal and TELA-to-GBA translations.

Every construction that works per DNF disjunct reads its input through
`ensure_dnf`: the GBA translations, the per-disjunct determinizations, the
breakpoint components and so `pr_max_tela`.  It writes back the DNF without
implied parts (`acceptance.absorb_dnf`): Inf sets lose their disjunct's Fin
marks, only minimal Inf sets stay, and a disjunct that implies another
goes.  Each construction builds one copy, determinization or component per
disjunct and Inf set, so every part dropped there is one not built.
`acceptance.to_dnf` itself keeps the raw distribution, which the random
generator and the benchmark's DNF-length buckets read.

Fin-removal builds the main copy plus one copy per DNF disjunct.  Copy i
drops the transitions of the disjunct's Fin set, keeps bridge transitions
from the main copy into copy i for every original transition, and the
rewritten condition asks that some copy i sees all of its Inf sets
infinitely often.  Runs that stay in the main copy see no marks and cannot
accept; accepting runs commit to one copy.  Copy i keeps only the states
from which all of its Inf sets stay reachable, and the output only the
states reachable from the initial ones.  Both are found on bitmasks of the
input's states, one successor mask per state per copy, before any output
transition exists; each kept transition is then emitted once, already
renumbered, its marks projected through a table keyed by mark value.

Four translations to generalized-Buchi acceptance:

- cnf: Fin-removal, then CNF of the resulting Fin-free condition with each
  clause's Inf atoms merged; up to 2^|acc| acceptance sets.
- remfin_split: disjoint GBA sum over the split of the Fin-removal output.
- split_remfin: split first, Fin-removal per disjunct, then the GBA sum.
  Both sum all parts in one n-ary `sum_gba` call.
- remfin_rewrite: single Fin-removal structure whose copies share k = max k_i
  acceptance sets, padding shorter disjuncts with Inf over all their copy's
  transitions.

The copy-based methods use at most |acc| acceptance sets.
"""

from __future__ import annotations

from .acceptance import (
    FALSE,
    DnfAcceptance,
    DnfDisjunct,
    Inf,
    absorb_dnf,
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
    closure,
    complete,
    empty_language_automaton,
    project_marks,
    split,
    sum_gba,
    with_all_mark,
)

GBA_METHODS = ("cnf", "remfin_split", "split_remfin", "remfin_rewrite")


def ensure_dnf(a: Tela) -> Tela:
    """Rewrite the acceptance condition into syntactic DNF without implied
    parts (`absorb_dnf`).

    A disjunct without Inf atoms needs Inf over all transitions; in that case
    a fresh mark carried by every transition is added first.  Writing the
    DNF back merges its bare Inf disjuncts into one (`or_`), which another
    disjunct may imply, so the absorption repeats until the DNF read back is
    the one written.
    """
    dnf = absorb_dnf(to_dnf(a.acceptance))
    if any(not d.infs for d in dnf.disjuncts):
        a, mark = with_all_mark(a)
        dnf = DnfAcceptance(
            tuple(DnfDisjunct(d.fin, d.infs or (1 << mark,)) for d in dnf.disjuncts)
        )
    phi = dnf_formula(dnf)
    while (again := absorb_dnf(to_dnf(phi))) != to_dnf(phi):
        phi = dnf_formula(again)
    return a.with_acceptance(phi, a.n_marks)


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
    own sets recur).  A condition with no disjunct gives `to_gba`'s
    empty-language GBA.
    """
    dnf = dnf_structure(a.acceptance)
    if not dnf.disjuncts:
        return _empty_gba(a)
    k = max(len(d.infs) for d in dnf.disjuncts)
    layout = [(0, (1 << k) - (1 << len(d.infs))) for d in dnf.disjuncts]
    acceptance = and_(Inf(1 << j) for j in range(k))
    return _fin_removal_structure(a, dnf, layout, acceptance, k)


def _empty_gba(a: Tela) -> Tela:
    """One state, no accepting run, and the one acceptance set Inf(0)."""
    return empty_language_automaton(a.ap).with_acceptance(Inf(1), 1)


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
    reachable over the transitions that avoid its Fin set.  Reachability
    runs on bitmasks of the input's states, with one successor mask per
    state per copy: the main copy keeps what the initial states reach, copy
    i what the bridges from it reach among the copy's useful states (no
    useful state is reachable from one that is not).  The kept states are
    numbered main copy first, then copy by copy, each in ascending state
    order, and each kept transition is emitted once, already renumbered.
    """
    n = a.n_states
    full = (1 << n) - 1
    succ = [0] * n
    for s, _, d, _ in a.transitions:
        succ[s] |= 1 << d
    main = closure(sum(1 << q for q in a.initial), succ)
    entry = 0
    for q in range(n):
        if main >> q & 1:
            entry |= succ[q]
    number, top = _numbering(main, 0, n)
    transitions = [
        (number[s], letter, number[d], 0)
        for s, letter, d, _ in a.transitions
        if number[s] is not None
    ]
    marks = {t[3] for t in a.transitions}
    for disjunct, (shift, pad) in zip(dnf.disjuncts, layout):
        fin = disjunct.fin
        inner = [t for t in a.transitions if not t[3] & fin]
        post, back = [0] * n, [0] * n
        for s, _, d, _ in inner:
            post[s] |= 1 << d
            back[d] |= 1 << s
        useful = full
        for inf in disjunct.infs:
            useful &= closure(sum({1 << t[0] for t in inner if t[3] & inf}), back)
        copy, top = _numbering(closure(entry & useful, post) & useful, top, n)
        transitions += [
            (number[s], letter, copy[d], 0)
            for s, letter, d, _ in a.transitions
            if number[s] is not None and copy[d] is not None
        ]
        project = {m: project_marks(m, disjunct.infs) << shift | pad for m in marks}
        transitions += [
            (copy[s], letter, copy[d], project[m])
            for s, letter, d, m in inner
            if copy[s] is not None and copy[d] is not None
        ]
    return Tela(
        ap=a.ap,
        n_states=top,
        initial=frozenset(number[q] for q in a.initial),
        transitions=tuple(transitions),
        acceptance=acceptance,
        n_marks=n_marks,
    )


def _numbering(states: int, top: int, n: int) -> tuple[list[int | None], int]:
    """Numbers from `top` on for the states of the bitmask `states` in
    ascending order, None for the other states below n; and the next free
    number."""
    number: list[int | None] = [None] * n
    for q in range(n):
        if states >> q & 1:
            number[q] = top
            top += 1
    return number, top


def to_gba(a: Tela, method: str) -> Tela:
    """Translate any TELA to a language-equal generalized-Buchi TELA."""
    if method not in GBA_METHODS:
        raise TelaError(f"unknown GBA method {method!r}; choose from {GBA_METHODS}")
    a = ensure_dnf(a)
    if a.acceptance == FALSE:
        return _empty_gba(a)
    if method == "cnf":
        g = remove_fin(a)
        clause_sets = finless_to_gba(g.acceptance)
        project = {m: project_marks(m, clause_sets) for m in {t[3] for t in g.transitions}}
        transitions = [(s, letter, d, project[m]) for s, letter, d, m in g.transitions]
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
    return sum_gba(*parts)
