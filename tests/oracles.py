"""Independent reference implementations backing the test suite.

These avoid the library's own algorithms on purpose: formulas are evaluated
by direct recursion, strongly connected components come from Kosaraju's
double sweep, and emptiness enumerates the subsets of marks occurring in
Fin atoms that a run may visit forever.  A second, brute-force emptiness
check tries every mark union with a naive transitive closure.  Membership
of an ultimately periodic word reduces to emptiness of a lasso-shaped
product built here.  HOA transition labels are rewritten into Python
expressions and evaluated per letter.  Maximal reachability probabilities
come from every memoryless deterministic scheduler, each induced Markov
chain solved exactly by Gaussian elimination over fractions.  One Safra-tree
step is recomputed with Python sets of node names and per-state images, and
the states on an accepting cycle, which Safra's child labels keep, come from
one depth-first search per state.
Determinism and completeness compare transitions pairwise and slot by slot,
and the breakpoint exploration runs on frozensets with its own numbering,
restricted to the states that one emptiness check per state finds live.
Strong bisimulation is the greatest fixpoint of a relation over state pairs,
shrunk pair by pair, with no partition refinement; direct simulation under
generalized-Buchi acceptance is shrunk the same way, comparing the sets of
Inf indices each transition meets, with no worklist and no bitmasks; the
reduction by it merges and prunes in two passes over every transition, then
keeps the part reachable from the initial states by a plain fixpoint.
Fin-removal builds every copy in full over Python sets and only then cuts
the result to its reachable part.
Limit-determinism grows the nondeterministic part by a plain predecessor
fixpoint and checks the emptiness of the automaton restricted to it, exits
sent to a trap and a fresh mark demanded on the internal transitions.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

from tela import And, BoolConst, Fin, Inf, Or, Tela, TelaError, and_, or_
from tela.acceptance import dnf_structure

ORACLE_STATE_LIMIT = 7
ORACLE_MARK_LIMIT = 16


class OracleLimitError(TelaError):
    pass


def eval_marks(phi, seen: int) -> bool:
    """Truth of an acceptance formula for a run whose set of marks visited
    infinitely often is `seen`."""
    if isinstance(phi, BoolConst):
        return phi.value
    if isinstance(phi, Inf):
        return bool(seen & phi.marks)
    if isinstance(phi, Fin):
        return not seen & phi.marks
    if isinstance(phi, And):
        return all(eval_marks(p, seen) for p in phi.parts)
    if isinstance(phi, Or):
        return any(eval_marks(p, seen) for p in phi.parts)
    raise TypeError(f"unexpected formula node: {phi!r}")


def fin_mark_union(phi) -> int:
    """Union of all marks appearing in Fin atoms of the formula."""
    if isinstance(phi, Fin):
        return phi.marks
    if isinstance(phi, (And, Or)):
        bits = 0
        for p in phi.parts:
            bits |= fin_mark_union(p)
        return bits
    return 0


def kosaraju(n_states: int, edges) -> list[set[int]]:
    """Strongly connected components from (src, dst) pairs, by a forward
    depth-first post-order and a reverse sweep."""
    fwd = [[] for _ in range(n_states)]
    rev = [[] for _ in range(n_states)]
    for s, d in edges:
        fwd[s].append(d)
        rev[d].append(s)
    order = []
    seen = [False] * n_states
    for root in range(n_states):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, 0)]
        while stack:
            node, i = stack.pop()
            if i < len(fwd[node]):
                stack.append((node, i + 1))
                nxt = fwd[node][i]
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, 0))
            else:
                order.append(node)
    comp = [-1] * n_states
    n_comp = 0
    for root in reversed(order):
        if comp[root] >= 0:
            continue
        comp[root] = n_comp
        stack = [root]
        while stack:
            node = stack.pop()
            for prev in rev[node]:
                if comp[prev] < 0:
                    comp[prev] = n_comp
                    stack.append(prev)
        n_comp += 1
    out = [set() for _ in range(n_comp)]
    for q, c in enumerate(comp):
        out[c].add(q)
    return out


def oracle_empty(a: Tela) -> bool:
    """Emptiness by guessing which Fin-relevant marks a run repeats forever.

    For each allowed subset of those marks, transitions carrying a forbidden
    one are dropped; a reachable strongly connected transition set can be
    walked so that exactly the union of its marks recurs, and marks outside
    every Fin atom can only help the positive formula.
    """
    succ: dict[int, list[int]] = {}
    for s, _, d, _ in a.transitions:
        succ.setdefault(s, []).append(d)
    reach = set(a.initial)
    frontier = list(reach)
    while frontier:
        q = frontier.pop()
        for d in succ.get(q, ()):
            if d not in reach:
                reach.add(d)
                frontier.append(d)
    fin_bits = fin_mark_union(a.acceptance)
    bits = [1 << i for i in range(a.n_marks) if fin_bits >> i & 1]
    for choice in range(1 << len(bits)):
        allowed = 0
        for j, bit in enumerate(bits):
            if choice >> j & 1:
                allowed |= bit
        banned = fin_bits & ~allowed
        kept = [t for t in a.transitions if t[0] in reach and not t[3] & banned]
        for comp in kosaraju(a.n_states, [(t[0], t[2]) for t in kept]):
            internal = [t for t in kept if t[0] in comp and t[2] in comp]
            if not internal:
                continue
            union = 0
            for t in internal:
                union |= t[3]
            if eval_marks(a.acceptance, union):
                return False
    return True


def brute_force_empty(a: Tela) -> bool:
    """Emptiness oracle by exhaustive enumeration, independent of is_empty.

    The language is non-empty iff some reachable, mutually connected set of
    transitions has a mark union satisfying the acceptance condition.  All
    2^n_marks candidate mark unions are tried; connectivity uses a naive
    transitive closure and satisfaction eval_marks, sharing nothing with
    the DNF-based path.
    """
    if a.n_states > ORACLE_STATE_LIMIT:
        raise OracleLimitError(
            f"oracle limited to {ORACLE_STATE_LIMIT} states, got {a.n_states}"
        )
    if a.n_marks > ORACLE_MARK_LIMIT:
        raise OracleLimitError(
            f"oracle limited to {ORACLE_MARK_LIMIT} marks, got {a.n_marks}"
        )
    reach = set(a.initial)
    while True:
        grown = {d for (s, _, d, _) in a.transitions if s in reach} - reach
        if not grown:
            break
        reach |= grown
    for want in range(1 << a.n_marks):
        if not eval_marks(a.acceptance, want):
            continue
        sub = [
            t
            for t in a.transitions
            if t[0] in reach and not (t[3] & ~want)
        ]
        closure = {q: {q} for q in range(a.n_states)}
        for s, _, d, _ in sub:
            closure[s].add(d)
        changed = True
        while changed:
            changed = False
            for q in closure:
                extra = set()
                for r in closure[q]:
                    extra |= closure[r]
                if not extra <= closure[q]:
                    closure[q] |= extra
                    changed = True
        for q in range(a.n_states):
            members = {r for r in closure[q] if q in closure[r]}
            internal = [t for t in sub if t[0] in members and t[2] in members]
            if not internal:
                continue
            got = 0
            for t in internal:
                got |= t[3]
            if got == want:
                return False
    return True


def oracle_accepts(a: Tela, u, v) -> bool:
    """Membership of the word u v^omega, via oracle_empty on the product of
    the automaton with the lasso shape of the word."""
    word = tuple(u) + tuple(v)
    n_pos = len(word)
    by_letter: dict[int, list] = {}
    for t in a.transitions:
        by_letter.setdefault(t[1], []).append(t)
    trans = []
    for i, letter in enumerate(word):
        nxt = i + 1 if i + 1 < n_pos else len(u)
        for s, _, d, marks in by_letter.get(letter, ()):
            trans.append((s * n_pos + i, 0, d * n_pos + nxt, marks))
    shell = Tela(
        ap=("x",),
        n_states=a.n_states * n_pos,
        initial=frozenset(q * n_pos for q in a.initial),
        transitions=tuple(trans),
        acceptance=a.acceptance,
        n_marks=a.n_marks,
    )
    return not oracle_empty(shell)


def random_word(rng: random.Random, n_letters: int, max_len: int = 4):
    """A random lasso word (u, v) with a non-empty cycle part."""
    u = tuple(rng.randrange(n_letters) for _ in range(rng.randint(0, max_len)))
    v = tuple(rng.randrange(n_letters) for _ in range(rng.randint(1, max_len)))
    return u, v


_LABEL_WORDS = {"t": "True", "f": "False", "!": "not", "&": "and", "|": "or"}


def oracle_label_letters(label: str, n_ap: int) -> list[int]:
    """Letters satisfying a HOA label: the label is rewritten into a Python
    expression (Python's not/and/or have HOA's precedence) and evaluated
    for every letter."""

    def word(m: re.Match) -> str:
        tok = m.group()
        if tok.isdigit():
            return f" ((letter >> {tok}) % 2 == 1) "
        return f" {_LABEL_WORDS[tok]} "

    python = re.sub(r"\d+|[tf!&|]", word, label).strip()
    expr = compile(python, "<label>", "eval")
    return [
        letter for letter in range(1 << n_ap) if eval(expr, {"letter": letter})
    ]


def oracle_mecs(m) -> list[tuple[frozenset[int], dict[int, tuple[int, ...]]]]:
    """Maximal end components of an MDP by trying every state subset.

    A subset C is an end component when every state of C keeps an action
    whose support stays in C and those actions make C strongly connected
    (one Kosaraju component); the maximal ones under inclusion are the
    MECs.  Each comes with its states' kept action indices, ordered by the
    smallest state.
    """
    n = len(m.actions)
    ends = []
    for bits in range(1, 1 << n):
        members = [s for s in range(n) if bits >> s & 1]
        local = {s: i for i, s in enumerate(members)}
        kept = {
            s: tuple(
                aid
                for aid, act in enumerate(m.actions[s])
                if all(t in local for t, _ in act.dist)
            )
            for s in members
        }
        if not all(kept.values()):
            continue
        edges = [
            (local[s], local[t])
            for s, aids in kept.items()
            for aid in aids
            for t, _ in m.actions[s][aid].dist
        ]
        if len(kosaraju(len(members), edges)) == 1:
            ends.append((frozenset(members), kept))
    return sorted(
        (
            (states, kept)
            for states, kept in ends
            if not any(states < other for other, _ in ends)
        ),
        key=lambda mec: min(mec[0]),
    )


def oracle_max_reach(actions, initial: int, target) -> Fraction:
    """Exact maximal probability of reaching `target` from `initial`.

    `actions[s]` lists state s's actions, each with a `dist` of (successor,
    probability) pairs.  Memoryless deterministic schedulers suffice for
    maximal reachability, so try every one: in its Markov chain, states that
    cannot reach the target get 0, target states 1, and the others solve
    x_s = sum_t p(s, t) x_t, which has one solution there.
    """
    n = len(actions)
    best = Fraction(0)
    for choice in itertools.product(*(range(len(acts)) for acts in actions)):
        dist = [dict(actions[s][choice[s]].dist) for s in range(n)]
        alive = set(target)
        grew = True
        while grew:
            grew = False
            for s in range(n):
                if s not in alive and any(t in alive for t in dist[s]):
                    alive.add(s)
                    grew = True
        free = sorted(alive - set(target))
        col = {s: i for i, s in enumerate(free)}
        # Rows of [I - P restricted to free | P into the target].
        rows = []
        for s in free:
            row = [Fraction(0)] * (len(free) + 1)
            row[col[s]] += 1
            for t, p in dist[s].items():
                if t in col:
                    row[col[t]] -= p
                elif t in target:
                    row[-1] += p
            rows.append(row)
        for i in range(len(free)):
            pivot = next(r for r in range(i, len(free)) if rows[r][i] != 0)
            rows[i], rows[pivot] = rows[pivot], rows[i]
            for r in range(len(free)):
                if r != i and rows[r][i] != 0:
                    f = rows[r][i] / rows[i][i]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[i])]
        if initial in target:
            value = Fraction(1)
        elif initial in col:
            i = col[initial]
            value = rows[i][-1] / rows[i][i]
        else:
            value = Fraction(0)
        best = max(best, value)
    return best


def _safra_names(node):
    yield node[0]
    for child in node[2]:
        yield from _safra_names(child)


def oracle_live_states(a: Tela, accepting: int) -> int:
    """The states on a cycle through a transition whose marks meet
    `accepting`, as a bitmask: per state, a depth-first search finds the
    states it reaches, and the state is live when one of them has such a
    transition back into a state that reaches it."""
    succ: dict[int, set[int]] = {}
    for s, _, d, _ in a.transitions:
        succ.setdefault(s, set()).add(d)

    def reached(q):
        seen, stack = {q}, [q]
        while stack:
            for d in succ.get(stack.pop(), ()):
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        return seen

    forward = {q: reached(q) for q in range(a.n_states)}
    live = 0
    for q in range(a.n_states):
        if any(
            s in forward[q] and q in forward[d]
            for s, _, d, marks in a.transitions
            if marks & accepting
        ):
            live |= 1 << q
    return live


def oracle_safra_step(tree, post, live=-1):
    """One Safra-tree step with sets of names: the successor of `tree`, a
    (name, label bitmask, children) node, on the letter for which post[q]
    holds q's successor and accepting-successor bitmasks, and its mark bits
    (2n green, 2n+1 red for name n).  Same rules as
    `determinize._safra_step`, with each label's image recomputed state by
    state: a child, spawned or kept, may hold only states of the bitmask
    `live`, while the root keeps its whole image and goes green only when
    its children hold all of it."""
    old = set(_safra_names(tree))
    taken = set(old)

    def step(node, allowed):
        name, label, children = node
        img = acc = 0
        for q in range(label.bit_length()):
            if label >> q & 1:
                img |= post[q][0]
                acc |= post[q][1]
        label = img & allowed
        kept = []
        greens = 0
        for child in children:
            claimed = 0
            for k in kept:
                claimed |= k[1]
            new, child_greens = step(child, label & live & ~claimed)
            if new[1]:
                kept.append(new)
                greens |= child_greens
        if acc:
            fresh = 0
            while fresh in taken:
                fresh += 1
            taken.add(fresh)
            claimed = 0
            for k in kept:
                claimed |= k[1]
            if acc & live & label & ~claimed:
                kept.append((fresh, acc & live & label & ~claimed, ()))
        covered = 0
        for k in kept:
            covered |= k[1]
        if kept and covered == label:
            return (name, label, ()), 1 << (2 * name)
        return (name, label, tuple(kept)), greens

    new, marks = step(tree, -1)
    for r in old.difference(_safra_names(new)):
        marks |= 1 << (2 * r + 1)
    return new, marks


def oracle_is_deterministic(a: Tela) -> bool:
    """One initial state and no two transitions sharing their source and
    letter, by comparing every pair of transitions."""
    if len(a.initial) != 1:
        return False
    return not any(
        t[:2] == u[:2] for t, u in itertools.combinations(a.transitions, 2)
    )


def oracle_is_complete(a: Tela) -> bool:
    """An initial state unless there are no states, and a transition for
    every state and letter, by scanning the transitions per slot."""
    if a.n_states and not a.initial:
        return False
    return all(
        any(t[0] == q and t[1] == letter for t in a.transitions)
        for q in range(a.n_states)
        for letter in range(a.n_letters)
    )


def oracle_nondet_part(a: Tela) -> set[int]:
    """The states from which a nondeterministic choice is reachable: those
    with two transitions on one letter, closed under predecessors by a plain
    fixpoint."""
    slots: dict[tuple[int, int], int] = {}
    for s, letter, _, _ in a.transitions:
        slots[s, letter] = slots.get((s, letter), 0) + 1
    q_n = {s for (s, _), n in slots.items() if n > 1}
    while True:
        grown = {s for s, _, d, _ in a.transitions if d in q_n} - q_n
        if not grown:
            return q_n
        q_n |= grown


def oracle_limit_det(a: Tela) -> bool:
    """Limit-determinism: no accepting run stays in the nondeterministic
    part forever.  The automaton is restricted to that part, every exit
    goes to a rejecting trap, every internal transition gets a fresh mark,
    and the condition also demands that mark infinitely often; the answer
    is whether oracle_empty finds that automaton empty."""
    q_n = oracle_nondet_part(a)
    trap = a.n_states
    fresh = 1 << a.n_marks
    trans = [(trap, letter, trap, 0) for letter in range(a.n_letters)]
    for s, letter, d, marks in a.transitions:
        if s in q_n and d in q_n:
            trans.append((s, letter, d, marks | fresh))
        elif s in q_n:
            trans.append((s, letter, trap, 0))
    restricted = Tela(
        ap=a.ap,
        n_states=trap + 1,
        initial=a.initial & q_n,
        transitions=tuple(dict.fromkeys(trans)),
        acceptance=And((a.acceptance, Inf(fresh))),
        n_marks=a.n_marks + 1,
    )
    return oracle_empty(restricted)


def oracle_breakpoint_live(a: Tela, fin: int, infs) -> frozenset[int]:
    """The states with an accepting run for the disjunct Fin(fin) & Inf(s)
    for each s of `infs`: per state, `oracle_empty` on the transitions that
    avoid `fin`, from that state alone, under the conjunction of the Inf
    atoms (true when there is none)."""
    free = tuple(t for t in a.transitions if not t[3] & fin)
    condition = And(tuple(Inf(s) for s in infs))
    return frozenset(
        q
        for q in range(a.n_states)
        if not oracle_empty(
            Tela(
                ap=a.ap,
                n_states=a.n_states,
                initial=frozenset({q}),
                transitions=free,
                acceptance=condition,
                n_marks=a.n_marks,
            )
        )
    )


def oracle_breakpoint_explore(a: Tela, fin: int, infs, seed_sets, live):
    """Breakpoint exploration with frozenset state sets and its own
    breadth-first numbering: the (R, B, l) states, seeded from
    (R & live, {}, l=0) for each R of `seed_sets` that meets the set `live`,
    and the (src, letter, dst, break flag) transitions.  Same rules as
    `limitdet._breakpoint_explore`, with the successors of each state looked
    up per (state, letter) among the transitions that avoid `fin`, and every
    set of successors cut down to `live`: level 0 is the seeds' entry step,
    which breaks into level 1 (or stays at 0 when `infs` is empty), and a
    break at level l goes to level l + 1, or back to level 1 after the last
    Inf set."""
    k = len(infs)
    by_src = {}
    for s, letter, d, marks in a.transitions:
        if not marks & fin:
            by_src.setdefault((s, letter), []).append((d, marks))
    empty = frozenset()
    order = []
    index = {}
    for r in seed_sets:
        key = (r & live, empty, 0)
        if key[0] and key not in index:
            index[key] = len(order)
            order.append(key)
    trans = []
    pos = 0
    while pos < len(order):
        r, b, level = order[pos]
        marked = infs[level - 1] if level else 0
        for letter in range(a.n_letters):
            r2, hits = set(), set()
            for q in r:
                for d, marks in by_src.get((q, letter), ()):
                    r2.add(d)
                    if marks & marked:
                        hits.add(d)
            r2 &= live
            if not r2:
                continue
            if level == 0:
                key, brk = (frozenset(r2), empty, 1 if k else 0), True
            else:
                b2 = set(hits)
                for q in b:
                    b2.update(d for d, _ in by_src.get((q, letter), ()))
                b2 &= live
                if b2 == r2:
                    after = 1 if level == k else level + 1
                    key, brk = (frozenset(r2), empty, after), True
                else:
                    key, brk = (frozenset(r2), frozenset(b2), level), False
            if key not in index:
                index[key] = len(order)
                order.append(key)
            trans.append((pos, letter, index[key], brk))
        pos += 1
    return order, trans


def oracle_bisimulation(a: Tela) -> list[frozenset[int]]:
    """The classes of the largest strong bisimulation over (letter, marks)
    transitions, in order of their smallest state.

    Start from every pair of states and drop a pair (p, q) while some
    transition of p has no transition of q with the same letter and marks
    into a state still related to its target, or the other way round.  What
    is left is the largest bisimulation, an equivalence.
    """
    moves = [set() for _ in range(a.n_states)]
    for s, letter, d, marks in a.transitions:
        moves[s].add((letter, marks, d))
    related = {(p, q) for p in range(a.n_states) for q in range(a.n_states)}

    def simulated(p: int, q: int) -> bool:
        return all(
            any(
                (letter2, marks2) == (letter, marks) and (d, d2) in related
                for letter2, marks2, d2 in moves[q]
            )
            for letter, marks, d in moves[p]
        )

    changed = True
    while changed:
        changed = False
        for p, q in sorted(related):
            if not (simulated(p, q) and simulated(q, p)):
                related.discard((p, q))
                changed = True
    classes = {
        frozenset(q for q in range(a.n_states) if (p, q) in related)
        for p in range(a.n_states)
    }
    return sorted(classes, key=min)


def oracle_direct_simulation(a: Tela) -> set[tuple[int, int]]:
    """The pairs (q, r) where r directly simulates q, for an automaton whose
    acceptance is t, one Inf atom or a conjunction of Inf atoms.

    A transition's weight is the set of indices of the Inf atoms its marks
    meet.  Start from every pair of states and drop (q, r) while some
    transition of q has no transition of r with the same letter, a weight
    including its weight and a target related to its target's.
    """
    acc = a.acceptance
    if acc == BoolConst(True):
        atoms = []
    elif isinstance(acc, Inf):
        atoms = [acc]
    else:
        assert isinstance(acc, And) and all(isinstance(p, Inf) for p in acc.parts)
        atoms = list(acc.parts)

    def weight(marks: int) -> set[int]:
        return {j for j, atom in enumerate(atoms) if marks & atom.marks}

    moves = [[] for _ in range(a.n_states)]
    for s, letter, d, marks in a.transitions:
        moves[s].append((letter, weight(marks), d))
    related = {(q, r) for q in range(a.n_states) for r in range(a.n_states)}
    changed = True
    while changed:
        changed = False
        for q, r in sorted(related):
            if not all(
                any(
                    letter2 == letter and w <= w2 and (d, d2) in related
                    for letter2, w2, d2 in moves[r]
                )
                for letter, w, d in moves[q]
            ):
                related.discard((q, r))
                changed = True
    return related


def _reachable(initial, transitions) -> set[int]:
    """The states reachable from `initial` over `transitions`, by a plain
    fixpoint."""
    seen = set(initial)
    changed = True
    while changed:
        changed = False
        for s, _, d, _ in transitions:
            if s in seen and d not in seen:
                seen.add(d)
                changed = True
    return seen


def _renumbered(ap, initial, transitions, seen, acceptance, n_marks) -> Tela:
    """The automaton on the states `seen`, renumbered in ascending order,
    with the transitions whose source is kept."""
    number = {q: i for i, q in enumerate(sorted(seen))}
    return Tela(
        ap=ap,
        n_states=len(number),
        initial=frozenset(number[q] for q in initial),
        transitions=tuple(
            (number[s], letter, number[d], marks)
            for s, letter, d, marks in transitions
            if s in seen
        ),
        acceptance=acceptance,
        n_marks=n_marks,
    )


def oracle_fin_removal(a: Tela, gba: bool) -> tuple[Tela, list[tuple[int, int]]]:
    """`remove_fin(a)`, or `remove_fin_gba(a)` when `gba`, built in full
    first: the main copy, then per DNF disjunct a copy of its useful states
    (each Inf set reachable over the Fin-free transitions, by a plain
    fixpoint per set) with its bridges from every main state, and only then
    the part reachable from the initial states, renumbered in ascending
    order.  Also returns, per copy, its useful and its reachable state
    counts.
    """
    n = a.n_states
    disjuncts = dnf_structure(a.acceptance).disjuncts
    k = max((len(d.infs) for d in disjuncts), default=0)
    transitions = [(s, letter, d, 0) for s, letter, d, _ in a.transitions]
    conjunctions, shift, useful_counts = [], 0, []
    for i, disjunct in enumerate(disjuncts):
        base = (i + 1) * n
        inner = [t for t in a.transitions if not t[3] & disjunct.fin]
        useful = set(range(n))
        for inf in disjunct.infs:
            reaching = {s for s, _, _, m in inner if m & inf}
            changed = True
            while changed:
                changed = False
                for s, _, d, _ in inner:
                    if d in reaching and s not in reaching:
                        reaching.add(s)
                        changed = True
            useful &= reaching
        useful_counts.append(len(useful))
        pad = (1 << k) - (1 << len(disjunct.infs))
        for s, letter, d, m in a.transitions:
            if d in useful:
                transitions.append((s, letter, base + d, 0))
        for s, letter, d, m in inner:
            if s in useful and d in useful:
                bits = sum(1 << j for j, inf in enumerate(disjunct.infs) if m & inf)
                marks = bits | pad if gba else bits << shift
                transitions.append((base + s, letter, base + d, marks))
        conjunctions.append(
            and_([Inf(1 << j) for j in range(shift, shift + len(disjunct.infs))])
        )
        shift += len(disjunct.infs)
    if gba and not disjuncts:
        # No disjunct: one state looping on every letter, no accepting set.
        letters = range(1 << len(a.ap))
        return Tela(
            ap=a.ap,
            n_states=1,
            initial=frozenset({0}),
            transitions=tuple((0, letter, 0, 0) for letter in letters),
            acceptance=Inf(1),
            n_marks=1,
        ), []
    if gba:
        acceptance = and_([Inf(1 << j) for j in range(k)])
    else:
        acceptance = or_(conjunctions)
    seen = _reachable(a.initial, transitions)
    out = _renumbered(
        a.ap, a.initial, transitions, seen, acceptance, k if gba else shift
    )
    copies = [
        (useful, sum(1 for q in seen if q // n == i + 1))
        for i, useful in enumerate(useful_counts)
    ]
    return out, copies


def oracle_simulation_reduce(a: Tela) -> Tela:
    """`simulation_reduce(a)` from the pairs of `oracle_direct_simulation`:
    each state goes to the smallest state of its class of mutual
    simulation, one pass merges every transition, a second drops each
    merged transition some sibling on its letter dominates (weight
    including its weight, target simulating its target, not both equal),
    the initial classes strictly simulated by another are dropped, and the
    part reachable from the rest is kept, renumbered in ascending order."""
    related = oracle_direct_simulation(a)
    atoms = list(a.acceptance.parts) if isinstance(a.acceptance, And) else (
        [] if a.acceptance == BoolConst(True) else [a.acceptance]
    )

    def weight(marks: int) -> frozenset[int]:
        return frozenset(j for j, atom in enumerate(atoms) if marks & atom.marks)

    cls = [
        min(r for r in range(a.n_states) if (q, r) in related and (r, q) in related)
        for q in range(a.n_states)
    ]
    merged = {(cls[s], letter, cls[d], marks) for s, letter, d, marks in a.transitions}
    kept = []
    for s, letter, d, marks in merged:
        w = weight(marks)
        if not any(
            s2 == s
            and letter2 == letter
            and w <= weight(marks2)
            and (d, d2) in related
            and (weight(marks2) != w or d2 != d)
            for s2, letter2, d2, marks2 in merged
        ):
            kept.append((s, letter, d, marks))
    initial = {cls[q] for q in a.initial}
    initial = {
        i for i in initial if not any(j != i and (i, j) in related for j in initial)
    }
    seen = _reachable(initial, kept)
    return _renumbered(a.ap, initial, kept, seen, a.acceptance, a.n_marks)
