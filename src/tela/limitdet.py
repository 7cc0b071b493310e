"""Limit-deterministic automata: checks and constructions.

An automaton is limit-deterministic when its states split into a
nondeterministic part Q_N and a deterministic part Q_D, closed under
successors, such that accepting runs eventually behave deterministically.
The canonical partition puts into Q_N exactly the states from which some
nondeterministic choice is still reachable; it is the coarsest valid split.
Limit-determinism is decided by the emptiness search of `analysis` run on
the transitions with both ends in Q_N, from the initial states in Q_N.

Three constructions produce limit-deterministic automata from a TELA with
DNF acceptance:

- limit_det_sum: determinize each disjunct separately and take the disjoint
  sum; nondeterminism is confined to the initial choice.
- build_ld: keep the original automaton as an unmarked nondeterministic
  part and jump, at any transition, into a deterministic breakpoint
  component for one disjunct.
- build_gfm: replace the nondeterministic part by the subset automaton and
  jump from a subset P into a breakpoint component seeded with any nonempty
  subset of P's successors.  The output is good for MDPs: resolving its
  nondeterminism cannot lower the probability mass of accepted runs.

Breakpoint components track (R, B, l): R the tracked run set over
Fin-deleted transitions, l a level cycling through the disjunct's k Inf
sets, and B the runs that visited the level's set since the last
breakpoint.  Seeds enter at level 0, which breaks on the first step into
level 1; level l waits until B covers R and then breaks into level
l % k + 1, so level 0 is never seen again.  The single output mark sits on
break transitions.  R, B and the subsets of build_gfm
are state bitmasks, whose successors `core.image` takes from one
`core.post_masks` table per breakpoint level and one for the subsets.

Each component tracks live states only.  A state is live for a disjunct
when it reaches, over the transitions that avoid the disjunct's Fin marks,
a strongly connected component whose inside transitions meet every Inf set
(for a disjunct with no Inf set, any component with a transition inside):
`_live_mask` takes those components from `core.accepting_scc_states` and
their backward `core.closure` over the same transitions.  A component is
seeded with R & live, a bridge whose R & live is empty is dropped, and
every step ANDs R, the hits and B with the mask.  This keeps the language:

- A dead state has only dead successors, so the trimmed R after any word
  is the untrimmed R after that word, intersected with the live states.
- B at a step of a level phase holds the states of R reached from R at the
  phase's start by a path over a transition of the level's Inf set.  Every
  path into a live state stays in live states, so the trimmed B holds at
  least the untrimmed B's live part, and a phase that started earlier
  covers at least as much.  When the untrimmed component accepts a word,
  an accepting run from its seed exists and stays live, so the trimmed R
  never empties, and by induction its j-th break comes no later than the
  untrimmed one's: the trimmed component accepts every word the untrimmed
  one accepts.
- A break means that every state of R has a path back to the previous
  break through the level's Inf set.  Breaking infinitely often, by
  König's lemma, gives one run from the seed that avoids Fin and visits
  every Inf set infinitely often: the trimmed component accepts only words
  with an accepting run from its seed, as the untrimmed one does.

So build_ld and build_gfm accept the language of their input, as before.
A GFM product cannot exceed Pr(L), since it accepts only words of L, and
cannot fall below it: every strategy of the untrimmed product, with each
jump into R taken into R & live, accepts at least as often in the trimmed
one, and a jump into a seed with no live state accepted nothing anyway.

A break at level k goes straight to level 1.  From every breakpoint state
this accepts the words that the level-0 rule accepts, which sends that
break to level 0, whose next step breaks again into level 1, so that each
round takes one step more:

- A run's R-sequence does not depend on the levels, and the B of a phase
  started at step t holds the states of R reached from R at step t by a
  path over the level's Inf set.
- A phase that starts no later ends no later: every state of R at a later
  start is reached from R at the earlier one, so the earlier phase's B
  holds the later one's.  From any state, the level-1 phase that starts at
  the break, not one step after it, ends no later, and by induction so
  does every later phase: this rule accepts every word the level-0 rule
  accepts.
- Conversely, a phase ends no later than any phase of its level that
  starts after it and ends, by the same extension of paths backwards.  A
  component that breaks infinitely often starts phases of every level
  infinitely often, so every phase that the level-0 rule starts ends, and
  that rule breaks infinitely often as well.

The two rules share the subset part and the bridges, and each breakpoint
state accepts the same words under both, so every strategy of a GFM
product accepts with the same probability under both, and so does the
best one.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce

from .acceptance import Inf, dnf_structure, mark_indices, to_dnf
from .analysis import _lasso
from .core import (
    Lasso,
    Tela,
    TelaError,
    Transition,
    accepting_scc_states,
    closure,
    empty_language_automaton,
    explore,
    flatten_edges,
    image,
    post_masks,
    sum_automata,
)
from .determinize import disjunct_determinizations

GFM_STATE_LIMIT = 12


def _nondet_mask(a: Tela) -> int:
    """Q_N as a state bitmask: the states from which a nondeterministic
    choice is reachable.  Its cost follows the transitions, not the declared
    state count."""
    nondet = 0
    for (q, _), ts in a.index.items():
        if len(ts) > 1:
            nondet |= 1 << q
    back: defaultdict[int, int] = defaultdict(int)
    for s, _, d, _ in a.transitions:
        back[d] |= 1 << s
    return closure(nondet, back)


def canonical_partition(a: Tela) -> tuple[frozenset[int], frozenset[int]]:
    """Split states into (Q_N, Q_D): Q_N holds the states from which a
    nondeterministic choice is reachable, Q_D all others."""
    q_n = frozenset(mark_indices(_nondet_mask(a)))
    return q_n, frozenset(range(a.n_states)) - q_n


def limit_det_violation(a: Tela) -> Lasso | None:
    """An accepting lasso that stays inside the nondeterministic part, or
    None when the automaton is limit-deterministic.

    Every run either stays in Q_N forever or moves to Q_D for good, so the
    automaton is limit-deterministic exactly when no accepting run remains
    in Q_N.  Q_N is closed under predecessors, so such a run starts in an
    initial state of Q_N and takes only transitions inside Q_N: the
    emptiness search runs on those transitions alone.
    """
    q_n = _nondet_mask(a)
    inside = tuple(t for t in a.transitions if q_n >> t[0] & 1 and q_n >> t[2] & 1)
    initial = frozenset(q for q in a.initial if q_n >> q & 1)
    return _lasso(inside, initial, to_dnf(a.acceptance))


def is_limit_deterministic(a: Tela) -> bool:
    return limit_det_violation(a) is None


def is_syntactically_limit_deterministic(a: Tela) -> bool:
    """Whether every transition carrying an Inf-relevant mark lies inside the
    deterministic part.  Needs DNF acceptance."""
    dnf = dnf_structure(a.acceptance)
    q_n = _nondet_mask(a)
    bits = 0
    for d in dnf.disjuncts:
        for s in d.infs:
            bits |= s
    for s, _, d, marks in a.transitions:
        if marks & bits and (q_n >> s & 1 or q_n >> d & 1):
            return False
    return True


def limit_det_sum(a: Tela, state_cap: int | None = None) -> Tela:
    """Limit-deterministic automaton as a disjoint sum of per-disjunct
    determinizations; each Safra run stops at `state_cap` states with
    BudgetExceeded."""
    parts = list(disjunct_determinizations(a, state_cap))
    return reduce(sum_automata, parts) if parts else empty_language_automaton(a.ap)


_BpState = tuple[int, int, int]


def _live_mask(a: Tela, fin: int, infs: tuple[int, ...]) -> int:
    """The states that reach, over transitions avoiding `fin`, a strongly
    connected component whose inside transitions meet every set of `infs`,
    as a bitmask: the states with an accepting run for the disjunct."""
    back: defaultdict[int, int] = defaultdict(int)
    for s, _, d, marks in a.transitions:
        if not marks & fin:
            back[d] |= 1 << s
    return closure(accepting_scc_states(a.transitions, fin, infs), back)


def _breakpoint_explore(
    a: Tela, fin: int, infs: tuple[int, ...], seed_sets: list[int], live: int
) -> tuple[list[_BpState], tuple[Transition, ...]]:
    """Deterministic breakpoint exploration over Fin-deleted transitions,
    restricted to the states of the bitmask `live`.

    Returns the discovered (R, B, l) states, R and B state bitmasks, seeded
    from (R & live, 0, 0) for each given R with a live state, and the
    internal transitions, marked 1 where they break.  Transitions with an
    empty successor set are omitted.
    """
    k = len(infs)
    # tables[l][letter][q]: q's successors over Fin-deleted transitions, and
    # those reached over the transitions of level l's Inf set.
    tables = [post_masks(a, fin)] + [post_masks(a, fin, s) for s in infs]

    def expand(state: _BpState, number):
        r, b, level = state
        for letter, row in enumerate(tables[level]):
            r2, hits = image(row, r)
            r2 &= live
            if not r2:
                continue
            if level == 0:
                # Level 1, or level 0 again when there is no Inf set: such
                # a disjunct breaks on every step.
                yield letter, number((r2, 0, min(k, 1))), 1
                continue
            b2 = (hits | image(row, b)[0]) & live
            if b2 == r2:
                yield letter, number((r2, 0, level % k + 1)), 1
            else:
                yield letter, number((r2, b2, level)), 0

    seeds = [(r & live, 0, 0) for r in seed_sets if r & live]
    order, edges = explore(seeds, expand)
    return order, flatten_edges(edges)


def _add_breakpoint_parts(
    a: Tela,
    seeds: list[int],
    bridges: list[tuple[int, int, int]],
    transitions: list[Transition],
    offset: int,
) -> int:
    """Append one breakpoint component per DNF disjunct, numbered from
    `offset`, and a transition (src, letter) into each component's seed
    (R & live, 0, 0) for every bridge (src, letter, R) whose R holds a
    state live for the disjunct; returns the state count."""
    for disjunct in dnf_structure(a.acceptance).disjuncts:
        live = _live_mask(a, disjunct.fin, disjunct.infs)
        order, trans = _breakpoint_explore(
            a, disjunct.fin, disjunct.infs, seeds, live
        )
        index = {state: offset + j for j, state in enumerate(order)}
        for si, letter, di, brk in trans:
            transitions.append((offset + si, letter, offset + di, brk))
        for src, letter, r in bridges:
            if r & live:
                transitions.append((src, letter, index[(r & live, 0, 0)], 0))
        offset += len(order)
    return offset


def build_ld(a: Tela) -> Tela:
    """Limit-deterministic Buchi automaton: the input as nondeterministic
    part plus per-disjunct breakpoint components entered one step behind
    any original transition."""
    targets = sorted({d for _, _, d, _ in a.transitions})
    transitions: list[Transition] = [
        (s, letter, d, 0) for s, letter, d, _ in a.transitions
    ]
    n_states = _add_breakpoint_parts(
        a,
        [1 << q for q in targets],
        [(s, letter, 1 << d) for s, letter, d, _ in a.transitions],
        transitions,
        a.n_states,
    )
    return Tela(
        ap=a.ap,
        n_states=n_states,
        initial=a.initial,
        transitions=tuple(transitions),
        acceptance=Inf(1),
        n_marks=1,
    )


def build_gfm(a: Tela) -> Tela:
    """Good-for-MDP limit-deterministic Buchi automaton.

    The nondeterministic part is the subset automaton; from a subset state,
    on each letter, bridges lead into every breakpoint component seeded with
    any nonempty subset of the successor set.  Offering every subset, not
    only the single states, is what makes it good for MDPs: a one-state seed
    guesses one run, which the MDP can then defeat with positive probability.
    """
    if a.n_states > GFM_STATE_LIMIT:
        raise TelaError(
            f"good-for-MDP construction is limited to {GFM_STATE_LIMIT} states"
        )

    post = post_masks(a)

    def expand(p: int, number):
        for letter, row in enumerate(post):
            theta = image(row, p)[0]
            if theta:
                yield letter, number(theta), theta

    sub_order, sub_edges = explore([sum(1 << q for q in a.initial)], expand)
    bridges: list[tuple[int, int, int]] = []
    for src, out in enumerate(sub_edges):
        for letter, _, theta in out:
            # Every nonempty subset of theta, in increasing order: the seed
            # order fixes the numbering of the breakpoint states.
            r = -theta & theta
            while r:
                bridges.append((src, letter, r))
                r = (r - theta) & theta
    transitions: list[Transition] = [
        (s, letter, d, 0) for s, letter, d, _ in flatten_edges(sub_edges)
    ]
    n_states = _add_breakpoint_parts(
        a, [r for _, _, r in bridges], bridges, transitions, len(sub_order)
    )
    return Tela(
        ap=a.ap,
        n_states=n_states,
        initial=frozenset({0}),
        transitions=tuple(transitions),
        acceptance=Inf(1),
        n_marks=1,
    )
