"""Shared builders: the running example automaton and Markov chain, small
seeded generators for automata and MDPs that stay within oracle reach,
two automata built from the breakpoint kernel of `tela.limitdet` that no
library route returns, and the maximal end components of an MDP or a
product, which the library finds only inside its analyses.
"""

from __future__ import annotations

import random
from dataclasses import replace

from tela import (
    Inf,
    Mdp,
    Tela,
    and_,
    dnf_length,
    fin_,
    inf_,
    or_,
    parse_mdp,
    to_dnf,
)
from tela.acceptance import dnf_structure
from tela.core import image, post_masks
from tela.limitdet import _add_breakpoint_parts, _breakpoint_explore, _live_mask
from tela.mdp import EndComponent, _action_items, _mec_decompose


def example_automaton() -> Tela:
    """Eight-state automaton guessing two-letter blocks.

    States 0..3 expect a_i then b_j, states 4..7 expect b_i then a_j, and
    every transition is accepting, so the language is any infinite
    alternation of an a-letter and a b-letter.  Letters: 0 = a1, 1 = a2,
    2 = b1, 3 = b2.
    """
    trans = []
    for i in (0, 1):
        for j in (0, 1):
            src = 2 * i + j
            for k in (0, 1):
                trans.append((src, i, 4 + 2 * j + k, 1))
    for i in (0, 1):
        for j in (0, 1):
            src = 4 + 2 * i + j
            for k in (0, 1):
                trans.append((src, 2 + i, 2 * j + k, 1))
    return Tela(
        ap=("p", "q"),
        n_states=8,
        initial=frozenset({0, 1, 2, 3}),
        transitions=tuple(trans),
        acceptance=Inf(1),
        n_marks=1,
    )


EXAMPLE_MDP = """\
states 4
initial 0
label 0 {}
label 1 {p}
label 2 {q}
label 3 {p,q}
trans 0 go 2 1/2
trans 0 go 3 1/2
trans 1 go 2 1/2
trans 1 go 3 1/2
trans 2 go 0 1/2
trans 2 go 1 1/2
trans 3 go 0 1/2
trans 3 go 1 1/2
"""


def example_mdp() -> Mdp:
    return parse_mdp(EXAMPLE_MDP)


def random_formula(rng: random.Random, n_marks: int, depth: int = 3):
    """Random acceptance tree over single- or two-mark atoms."""
    kind = rng.randrange(4) if depth > 0 else rng.randrange(2)
    if kind < 2:
        mask = 1 << rng.randrange(n_marks)
        if rng.random() < 0.4:
            mask |= 1 << rng.randrange(n_marks)
        return inf_(mask) if kind == 0 else fin_(mask)
    parts = [random_formula(rng, n_marks, depth - 1) for _ in range(2)]
    return and_(parts) if kind == 2 else or_(parts)


def random_dnf_formula(rng: random.Random, n_marks: int):
    """Random formula that is already a small syntactic DNF."""
    disjuncts = []
    for _ in range(rng.randint(1, 3)):
        atoms = [
            inf_(1 << rng.randrange(n_marks)) for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.5:
            atoms.append(fin_(1 << rng.randrange(n_marks)))
        disjuncts.append(and_(atoms))
    return or_(disjuncts)


def random_automaton(
    rng: random.Random,
    max_states: int = 4,
    n_marks: int = 3,
    n_ap: int = 1,
    density: float = 0.5,
    mark_prob: float = 0.3,
    dnf_only: bool = False,
    max_dnf_atoms: int | None = None,
    ap: tuple[str, ...] | None = None,
) -> Tela:
    """Small random automaton; unlike the library generator it also covers
    the one-to-three state range the brute-force oracles need."""
    n = rng.randint(1, max_states)
    names = ap if ap is not None else tuple("abcdefgh"[:n_ap])
    n_letters = 1 << len(names)
    trans = []
    while not trans:
        for q in range(n):
            for letter in range(n_letters):
                for d in range(n):
                    if rng.random() < density:
                        marks = 0
                        for b in range(n_marks):
                            if rng.random() < mark_prob:
                                marks |= 1 << b
                        trans.append((q, letter, d, marks))
    while True:
        phi = (
            random_dnf_formula(rng, n_marks)
            if dnf_only
            else random_formula(rng, n_marks)
        )
        if max_dnf_atoms is None or dnf_length(to_dnf(phi)) <= max_dnf_atoms:
            break
    initial = frozenset(rng.sample(range(n), rng.randint(1, n)))
    return Tela(
        ap=names,
        n_states=n,
        initial=initial,
        transitions=tuple(trans),
        acceptance=phi,
        n_marks=n_marks,
    )


def random_mdp(
    rng: random.Random, max_states: int = 3, atoms: tuple[str, ...] = ("p", "q")
) -> Mdp:
    """Small random MDP in text form, with one or two actions per state."""
    n = rng.randint(1, max_states)
    lines = [f"states {n}", "initial 0"]
    for s in range(n):
        chosen = sorted(x for x in atoms if rng.random() < 0.5)
        lines.append(f"label {s} {{{','.join(chosen)}}}")
    for s in range(n):
        for i in range(rng.randint(1, 2)):
            if n == 1 or rng.random() < 0.4:
                lines.append(f"trans {s} a{i} {rng.randrange(n)} 1")
            else:
                t1, t2 = rng.sample(range(n), 2)
                lines.append(f"trans {s} a{i} {t1} 1/2")
                lines.append(f"trans {s} a{i} {t2} 1/2")
    return parse_mdp("\n".join(lines) + "\n")


def shifted_from(a: Tela, first: int, k: int) -> Tela:
    """`a` with states `first` and up renumbered k higher."""

    def move(q: int) -> int:
        return q + k if q >= first else q

    return replace(
        a,
        n_states=a.n_states + k,
        initial=frozenset(map(move, a.initial)),
        transitions=tuple(
            (move(s), letter, move(d), marks) for s, letter, d, marks in a.transitions
        ),
    )


def breakpoint_automaton(a: Tela) -> Tela | None:
    """The breakpoint component of the first DNF disjunct alone, seeded with
    the initial state set: deterministic, Buchi on its break transitions,
    and a lone state with no transition when no initial state is live for
    the disjunct.  None when the DNF has no disjunct."""
    disjuncts = dnf_structure(a.acceptance).disjuncts
    if not disjuncts:
        return None
    d = disjuncts[0]
    seed = sum(1 << q for q in a.initial)
    live = _live_mask(a, d.fin, d.infs)
    order, transitions = _breakpoint_explore(a, d.fin, d.infs, [seed], live)
    return Tela(
        ap=a.ap,
        n_states=max(1, len(order)),
        initial=frozenset({0}),
        transitions=transitions,
        acceptance=Inf(1),
        n_marks=1,
    )


def singleton_seeded_gfm(a: Tela) -> Tela:
    """`build_gfm` with bridges into one-state seeds only, not into every
    nonempty subset of the successor set: the language stays, but the
    automaton is not good for MDPs."""
    post = post_masks(a)
    subsets = [sum(1 << q for q in a.initial)]
    index = {subsets[0]: 0}
    transitions, bridges = [], []
    for src, p in enumerate(subsets):  # grows while it is read
        for letter, row in enumerate(post):
            theta = image(row, p)[0]
            if not theta:
                continue
            if theta not in index:
                index[theta] = len(subsets)
                subsets.append(theta)
            transitions.append((src, letter, index[theta], 0))
            bridges += [
                (src, letter, 1 << q) for q in range(a.n_states) if theta >> q & 1
            ]
    n_states = _add_breakpoint_parts(
        a, [r for _, _, r in bridges], bridges, transitions, len(subsets)
    )
    return Tela(
        ap=a.ap,
        n_states=n_states,
        initial=frozenset({0}),
        transitions=tuple(transitions),
        acceptance=Inf(1),
        n_marks=1,
    )


def mec_decomposition(p) -> list[EndComponent]:
    """The maximal end components of an `Mdp` or a `ProductMdp`, with actions
    given as indices into each state's action tuple."""
    return _mec_decompose(_action_items(p.actions))
