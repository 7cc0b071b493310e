"""Language analysis: emptiness, accepting lassos and lasso-word membership.

Emptiness works on the DNF of the acceptance condition.  The reachable
graph is split into strongly connected components once, by `core.scc_split`,
the one SCC split, which gives the components with the transitions inside
each, and each component's mark union is taken once.  For each disjunct a
component whose union misses an Inf set is skipped; in the others the
Fin-marked transitions are deleted, the marks left must still meet every
Inf set, and only that component is split again; deleting transitions never
joins two components, so the parts, taken in order of their smallest state,
are the components of the whole graph without the Fin transitions.  The
same search core optionally takes a second DNF that the witness must
*violate*, which is what deterministic containment needs: there the witness
set is refined by deleting one Inf set of a satisfied negative disjunct and
recursing into the sub-SCCs (the standard Streett-style restriction).

Membership of a lasso word explores the product of the automaton with the
word's positions from the initial pairs, through `core.explore`; that
product is reachable by construction, so its search skips the
reachability walk.  `determinize.contains` runs the same search on the
pairs of two deterministic automata, and `limitdet.limit_det_violation`
looks for an accepting lasso among the transitions inside the
nondeterministic part Q_N alone.
"""

from __future__ import annotations

import random
from collections import defaultdict

from .acceptance import DnfAcceptance, DnfDisjunct, to_dnf
from .core import (
    Lasso,
    Tela,
    TelaError,
    Transition,
    _dst,
    closure,
    explore,
    flatten_edges,
    scc_split,
)


def is_empty(a: Tela) -> bool:
    return dnf_witness(a.transitions, a.initial, to_dnf(a.acceptance)) is None


def accepting_lasso(a: Tela) -> Lasso | None:
    """An accepting lasso of `a`, or None when the language is empty."""
    return _lasso(a.transitions, a.initial, to_dnf(a.acceptance))


def _lasso(
    transitions: tuple[Transition, ...],
    initial: frozenset[int],
    dnf: DnfAcceptance,
) -> Lasso | None:
    """An accepting lasso over the given transitions, or None.

    The cycle visits one representative transition per Inf set of the
    witnessing DNF disjunct, connected by shortest paths inside the witness
    SCC; the prefix is a shortest path from an initial state.
    """
    hit = dnf_witness(transitions, initial, dnf)
    if hit is None:
        return None
    di, scc_ts = hit
    disjunct = dnf.disjuncts[di]
    anchor = min(t[0] for t in scc_ts)
    prefix = _shortest_path(transitions, set(initial), anchor)
    ordered = sorted(scc_ts)
    cycle: list[Transition] = []
    cur = anchor
    for s in disjunct.infs:
        rep = next(t for t in ordered if t[3] & s)
        cycle.extend(_shortest_path(scc_ts, {cur}, rep[0]))
        cycle.append(rep)
        cur = rep[2]
    if not cycle:
        first = next(t for t in ordered if t[0] == anchor)
        cycle.append(first)
        cur = first[2]
    cycle.extend(_shortest_path(scc_ts, {cur}, anchor))
    return Lasso(tuple(prefix), tuple(cycle))


def accepts(a: Tela, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """Membership of the lasso word u v^omega: emptiness of the product of
    `a` with the word's positions, explored from the initial pairs, so only
    reachable (state, position) pairs exist and no reachability walk is
    needed.  Pairs are numbered by the int key q * |uv| + i while
    exploring."""
    if not v:
        raise TelaError("lasso word needs a non-empty cycle part")
    for letter in (*u, *v):
        if not 0 <= letter < a.n_letters:
            raise TelaError(f"letter {letter} outside the alphabet")
    word = u + v
    n_pos = len(word)

    def expand(key: int, number):
        q, i = divmod(key, n_pos)
        nxt = i + 1 if i + 1 < n_pos else len(u)
        for _, letter, d, m in a.succ(q, word[i]):
            yield letter, number(d * n_pos + nxt), m

    _, edges = explore([q * n_pos for q in sorted(a.initial)], expand)
    return _witness(flatten_edges(edges), to_dnf(a.acceptance)) is not None


def sample_lassos(
    a: Tela, n: int, seed: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Seeded random lasso words over the alphabet of `a`."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        u = tuple(rng.randrange(a.n_letters) for _ in range(rng.randint(0, 6)))
        v = tuple(rng.randrange(a.n_letters) for _ in range(rng.randint(1, 6)))
        out.append((u, v))
    return out


def dnf_witness(
    transitions: tuple[Transition, ...],
    initial: frozenset[int] | set[int],
    pos: DnfAcceptance,
    neg: DnfAcceptance = DnfAcceptance(()),
) -> tuple[int, tuple[Transition, ...]] | None:
    """Search for a reachable strongly connected transition set whose marks
    satisfy some disjunct of `pos` and no disjunct of `neg`.

    Returns (pos disjunct index, transitions of the witness set) or None.
    """
    succ: defaultdict[int, int] = defaultdict(int)
    for s, _, d, _ in transitions:
        succ[s] |= 1 << d
    reach = closure(sum(1 << q for q in initial), succ)
    return _witness(tuple(t for t in transitions if reach >> t[0] & 1), pos, neg)


def _witness(
    transitions: tuple[Transition, ...],
    pos: DnfAcceptance,
    neg: DnfAcceptance = DnfAcceptance(()),
) -> tuple[int, tuple[Transition, ...]] | None:
    """`dnf_witness` over transitions whose sources are all reachable."""
    components = scc_split(transitions, _dst)
    unions = []
    for _, inside in components:
        marks = 0
        for t in inside:
            marks |= t[3]
        unions.append(marks)
    for di, d in enumerate(pos.disjuncts):
        parts = []
        for (nodes, inside), union in zip(components, unions):
            # Deleting Fin transitions can only split a component further,
            # and no part of it can satisfy d when the whole does not: a
            # component whose marks miss an Inf set of d is skipped unfiltered.
            if not all(union & s for s in d.infs):
                continue
            base = tuple(t for t in inside if not (t[3] & d.fin))
            marks = 0
            for t in base:
                marks |= t[3]
            if not d.holds(marks):
                continue
            if len(base) == len(inside):
                parts.append((nodes, inside))
            else:
                parts.extend(scc_split(base, _dst))
        parts.sort(key=lambda part: min(part[0]))
        for _, internal in parts:
            found = _refine(internal, d, neg)
            if found is not None:
                return di, found
    return None


def _refine(
    ts: tuple[Transition, ...],
    d: DnfDisjunct,
    neg: DnfAcceptance,
) -> tuple[Transition, ...] | None:
    """A sub-SCC of `ts` satisfying `d` and no disjunct of `neg`; the Fin
    transitions of `d` are already deleted."""
    marks = 0
    for t in ts:
        marks |= t[3]
    satisfied = next((nd for nd in neg.disjuncts if nd.holds(marks)), None)
    if satisfied is None:
        return ts if d.holds(marks) else None
    for s in satisfied.infs:
        sub = tuple(t for t in ts if not (t[3] & s))
        for _, internal in scc_split(sub, _dst):
            found = _refine(internal, d, neg)
            if found is not None:
                return found
    return None


def _shortest_path(
    transitions: tuple[Transition, ...] | list[Transition],
    sources: set[int],
    goal: int,
) -> list[Transition]:
    """Shortest transition path from any source to the goal state (BFS,
    deterministic tie-break by transition order)."""
    if goal in sources:
        return []
    by_src: dict[int, list[Transition]] = {}
    for t in sorted(transitions):
        by_src.setdefault(t[0], []).append(t)
    parent: dict[int, Transition] = {}
    frontier = sorted(sources)
    seen = set(sources)
    while frontier:
        nxt = []
        for q in frontier:
            for t in by_src.get(q, ()):
                d = t[2]
                if d in seen:
                    continue
                seen.add(d)
                parent[d] = t
                if d == goal:
                    path = [t]
                    while path[0][0] not in sources:
                        path.insert(0, parent[path[0][0]])
                    return path
                nxt.append(d)
        frontier = nxt
    raise TelaError(f"no path to state {goal}")
