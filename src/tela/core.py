"""Transition-based Emerson-Lei automata (TELA) and structural operations.

A TELA runs over an explicit alphabet: every letter is one truth assignment
to the declared atomic propositions, encoded as the integer whose bit i gives
the value of ap[i].  Transitions are (src, letter, dst, marks) tuples with
marks a bitmask of acceptance mark indices; `Tela` keeps the transitions
as a sorted set, so a construction may emit one twice.  A run is accepting
iff the set of marks occurring on infinitely many of its transitions
satisfies the acceptance condition.

Each automaton has one successor index, `Tela.index`, from (state, letter)
to the transitions in that slot; determinism, completeness, HOA printing,
lasso membership and the products read it.  State sets are int bitmasks
with bit q for state q: `post_masks` tabulates each state's successors per
letter and `image` takes the union over a set, the one image kernel of the
Safra, breakpoint and subset constructions; `closure`, the one
reachability kernel, takes the states a bitmask reaches, given a successor
bitmask per state that has one.

Constructions that explore a new state space on the fly number it through
`explore`, which owns the numbering and the state cap; time is bounded once
around a whole run, by `time_limit`.  Pair states go to it as int keys,
q0 * |Q1| + q1 in `product` and likewise in degeneralization, containment,
lasso membership and the MDP product, so a product state costs no tuple;
keys sort as their pairs do, so seeds and numbering are those of the pairs.
`scc_split` is the one split of a graph into strongly connected components
with the edges kept inside each; emptiness, containment and maximal end
components all run on it, through one iterative Tarjan pass that calls
`targets` once per item.  `accepting_scc_states` is the one test of which
states can still accept: the members of the components, over the
transitions avoiding a Fin set, whose inside transitions meet every Inf set.
Safra's live labels are these states, and the breakpoint components' live
masks their backward `closure`.

`bisim_quotient` is the one partition-refinement kernel: it merges the
states of the coarsest partition whose blocks agree on their sets of
(letter, marks, target block) transitions, which on deterministic input is
Moore minimization.  `simulation_reduce` is the one simulation kernel: on
generalized-Buchi acceptance it merges the states that directly simulate
each other and prunes the transitions and initial states that others
strictly dominate.  It makes one pass over the transitions, whose table of
moves serves both the simulation fixpoint and the merge and prune step;
that step visits only the merged states reached from the kept initial
ones and emits their transitions already renumbered.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property

from .acceptance import (
    FALSE,
    Acceptance,
    Inf,
    Or,
    and_,
    all_marks,
    evaluate,
    gba_marksets,
    negate,
    offset_marks,
    or_,
)

MAX_AP = 8
# The HOA parser's caps on declared acceptance sets and states.
MAX_MARKS = 1 << 16
MAX_STATES = 1 << 20

Transition = tuple[int, int, int, int]


class TelaError(ValueError):
    pass


class BudgetExceeded(TelaError):
    """A construction went past its state cap or an enclosing `time_limit`."""

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind


@contextmanager
def time_limit(seconds: float):
    """Raise BudgetExceeded of kind "time" in the block once `seconds` of
    wall time have passed, from the SIGALRM handler of a one-shot POSIX
    timer.  Off the main thread, or without `setitimer`, nothing is armed.
    Limits nest: inside a timer that fires no later than `seconds` from now,
    as an enclosing limit's, the block runs under that timer alone.
    Otherwise the limit arms its own; every exit disarms it, restores the
    previous handler, then re-arms the enclosing timer with what is left of
    it, so an outer limit still fires on time."""
    if not seconds > 0:
        raise TelaError(f"time limit must be positive, got {seconds}")
    main = threading.current_thread() is threading.main_thread()
    if not (main and hasattr(signal, "setitimer")):
        yield
        return
    armed = min(seconds, 1e9)  # fits time_t
    outer, interval = signal.getitimer(signal.ITIMER_REAL)
    if 0 < outer <= armed:
        yield
        return

    def expire(signum, frame):
        raise BudgetExceeded(f"time limit of {seconds:g} s exceeded", "time")

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        signal.setitimer(signal.ITIMER_REAL, armed)
        yield
    finally:
        try:
            left, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)
            if outer:
                # A timer left at 0 would stay disarmed; fire it at once.
                rest = max(outer - (armed - left), 1e-6)
                signal.setitimer(signal.ITIMER_REAL, rest, interval)


@dataclass(frozen=True)
class Tela:
    ap: tuple[str, ...]
    n_states: int
    initial: frozenset[int]
    transitions: tuple[Transition, ...]
    acceptance: Acceptance
    n_marks: int

    def __post_init__(self) -> None:
        if len(self.ap) > MAX_AP:
            raise TelaError(f"at most {MAX_AP} atomic propositions, got {len(self.ap)}")
        if len(set(self.ap)) != len(self.ap):
            raise TelaError("duplicate atomic proposition names")
        if self.n_states < 0:
            raise TelaError("negative state count")
        for q in self.initial:
            if not 0 <= q < self.n_states:
                raise TelaError(f"initial state {q} out of range")
        n_letters = 1 << len(self.ap)
        mark_space = (1 << self.n_marks) - 1
        # The transitions are a set, kept in canonical order: structural
        # equality is independent of construction order and repeats, and HOA
        # round trips are exact.  Sorting first keeps a nearly sorted input
        # cheap to sort and puts repeats side by side.
        transitions: list[Transition] = []
        for t in sorted(self.transitions):
            if transitions and t == transitions[-1]:
                continue
            src, letter, dst, marks = t
            if not (0 <= src < self.n_states and 0 <= dst < self.n_states):
                raise TelaError(f"transition {t} has a state out of range")
            if not 0 <= letter < n_letters:
                raise TelaError(f"transition {t} has a letter out of range")
            if marks & ~mark_space:
                raise TelaError(f"transition {t} uses marks beyond {self.n_marks}")
            transitions.append(t)
        if all_marks(self.acceptance) & ~mark_space:
            raise TelaError(
                f"acceptance references marks beyond the declared {self.n_marks}"
            )
        object.__setattr__(self, "transitions", tuple(transitions))

    @property
    def n_letters(self) -> int:
        return 1 << len(self.ap)

    @cached_property
    def index(self) -> dict[tuple[int, int], tuple[Transition, ...]]:
        """The successor index: (state, letter) -> the transitions of that
        slot in transition order, for the slots that have one.  Keys come in
        (state, letter) order; built on first use and kept."""
        table: dict[tuple[int, int], list[Transition]] = {}
        for t in self.transitions:
            table.setdefault((t[0], t[1]), []).append(t)
        return {k: tuple(v) for k, v in table.items()}

    def succ(self, state: int, letter: int) -> tuple[Transition, ...]:
        return self.index.get((state, letter), ())

    def with_acceptance(self, acceptance: Acceptance, n_marks: int) -> "Tela":
        """The same automaton with another acceptance condition.

        When no mark is dropped the transitions stay valid and sorted, so only
        the new acceptance is checked and a built `index` is shared; a smaller
        mark count revalidates in full."""
        if n_marks < self.n_marks:
            return replace(self, acceptance=acceptance, n_marks=n_marks)
        if all_marks(acceptance) & ~((1 << n_marks) - 1):
            raise TelaError(
                f"acceptance references marks beyond the declared {n_marks}"
            )
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, acceptance=acceptance, n_marks=n_marks)
        return copy


def with_all_mark(a: Tela) -> tuple[Tela, int]:
    """Add a fresh mark carried by every transition; returns (automaton, mark index)."""
    mark = a.n_marks
    bit = 1 << mark
    return (
        Tela(
            ap=a.ap,
            n_states=a.n_states,
            initial=a.initial,
            transitions=tuple((s, l, d, m | bit) for (s, l, d, m) in a.transitions),
            acceptance=a.acceptance,
            n_marks=mark + 1,
        ),
        mark,
    )


@dataclass(frozen=True)
class Lasso:
    """A finite prefix followed by a non-empty cycle, both transition lists."""

    prefix: tuple[Transition, ...]
    cycle: tuple[Transition, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise TelaError("lasso cycle must be non-empty")

    def word(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The lasso word (u, v) of letters."""
        return (
            tuple(t[1] for t in self.prefix),
            tuple(t[1] for t in self.cycle),
        )

    def cycle_marks(self) -> int:
        bits = 0
        for t in self.cycle:
            bits |= t[3]
        return bits


def is_deterministic(a: Tela) -> bool:
    """One initial state and at most one transition per (state, letter):
    transitions are distinct, so every slot holds one exactly when there
    are as many slots as transitions."""
    return len(a.initial) == 1 and len(a.index) == len(a.transitions)


def is_complete(a: Tela) -> bool:
    """At least one transition per (state, letter) and at least one initial state."""
    if not a.initial and a.n_states:
        return False
    return len(a.index) == a.n_states * a.n_letters


def complete(a: Tela) -> Tela:
    """Add a rejecting sink for missing (state, letter) slots; no-op if complete.

    If the acceptance condition holds on runs that see no marks at all (for
    example a pure Fin condition), runs trapped in the sink would wrongly
    accept; in that case a fresh mark is put on every original transition and
    conjoined as Inf to the acceptance, which rejects exactly the sink runs.
    """
    if is_complete(a):
        return a
    acceptance = a.acceptance
    if evaluate(0, acceptance):
        a, guard = with_all_mark(a)
        acceptance = and_([acceptance, Inf(1 << guard)])
    sink = a.n_states
    transitions = list(a.transitions)
    for q in range(a.n_states):
        for letter in range(a.n_letters):
            if (q, letter) not in a.index:
                transitions.append((q, letter, sink, 0))
    for letter in range(a.n_letters):
        transitions.append((sink, letter, sink, 0))
    return Tela(
        ap=a.ap,
        n_states=a.n_states + 1,
        initial=a.initial if a.initial else frozenset({sink}),
        transitions=tuple(transitions),
        acceptance=acceptance,
        n_marks=a.n_marks,
    )


def empty_language_automaton(ap: tuple[str, ...]) -> Tela:
    """A deterministic complete automaton accepting nothing."""
    return Tela(
        ap=ap,
        n_states=1,
        initial=frozenset({0}),
        transitions=tuple((0, letter, 0, 0) for letter in range(1 << len(ap))),
        acceptance=FALSE,
        n_marks=0,
    )


def split(a: Tela) -> list[Tela]:
    """One automaton per top-level disjunct of the acceptance condition.

    The union of the component languages is the language of `a`; structure is
    shared, only the acceptance differs.
    """
    if not isinstance(a.acceptance, Or):
        return [a]
    return [a.with_acceptance(part, a.n_marks) for part in a.acceptance.parts]


def sum_automata(a0: Tela, a1: Tela) -> Tela:
    """Disjoint union recognizing the union language.

    Component-1 states and marks are renumbered with offsets.  Two fresh
    marks tag the transitions of each component so that a run through
    component i can only satisfy the (lifted) condition of component i:
    the acceptance is (acc0 & Inf(e0)) | (acc1 & Inf(e1)).  The inputs may
    be partial: a run stays in one component, so a missing move there ends
    only runs that the component itself would lose.
    """
    _require_same_ap(a0, a1)
    off_states = a0.n_states
    off_marks = a0.n_marks
    e0 = 1 << (a0.n_marks + a1.n_marks)
    e1 = e0 << 1
    transitions = [(s, l, d, m | e0) for (s, l, d, m) in a0.transitions]
    transitions += [
        (s + off_states, l, d + off_states, (m << off_marks) | e1)
        for (s, l, d, m) in a1.transitions
    ]
    acceptance = or_(
        [
            and_([a0.acceptance, Inf(e0)]),
            and_([offset_marks(a1.acceptance, off_marks), Inf(e1)]),
        ]
    )
    return Tela(
        ap=a0.ap,
        n_states=a0.n_states + a1.n_states,
        initial=a0.initial | frozenset(q + off_states for q in a1.initial),
        transitions=tuple(transitions),
        acceptance=acceptance,
        n_marks=a0.n_marks + a1.n_marks + 2,
    )


def sum_gba(*parts: Tela) -> Tela:
    """Disjoint union of generalized-Buchi automata, staying GBA.

    Each part's states follow those of the parts before it.  The shorter
    conditions are padded with Inf over all own transitions until every
    part has k sets, then set j of the result marks a transition iff its
    part's set j did (or the set is padding).  The result has exactly k
    marks and acceptance /\\ Inf(j); a single part is returned as it is.
    Parts may be partial, as in `sum_automata`: a run stays in its part.
    """
    if len(parts) == 1:
        return parts[0]
    if not parts:
        raise TelaError("sum_gba needs at least one automaton")
    for a in parts[1:]:
        _require_same_ap(parts[0], a)
    all_sets = [gba_marksets(a.acceptance) for a in parts]
    if None in all_sets:
        inputs = "both inputs" if len(parts) == 2 else "every input"
        raise TelaError(f"sum_gba requires generalized-Buchi acceptance on {inputs}")
    k = max(max(len(sets) for sets in all_sets), 1)
    transitions: list[Transition] = []
    initial: set[int] = set()
    off = 0
    for a, sets in zip(parts, all_sets):
        pad = (1 << k) - (1 << len(sets))
        project = {m: project_marks(m, sets) | pad for m in {t[3] for t in a.transitions}}
        transitions += [
            (s + off, letter, d + off, project[m]) for s, letter, d, m in a.transitions
        ]
        initial.update(q + off for q in a.initial)
        off += a.n_states
    return Tela(
        ap=parts[0].ap,
        n_states=off,
        initial=frozenset(initial),
        transitions=tuple(transitions),
        acceptance=and_([Inf(1 << j) for j in range(k)]),
        n_marks=k,
    )


def project_marks(marks: int, sets) -> int:
    """Bit j is set iff `marks` meets sets[j]."""
    bits = 0
    for j, s in enumerate(sets):
        if marks & s:
            bits |= 1 << j
    return bits


def product(a0: Tela, a1: Tela, combinator: str) -> Tela:
    """Synchronized product on the reachable pair space, whose pairs are
    numbered by the int key q0 * |Q1| + q1 while exploring.

    combinator "or" recognizes the union language (both inputs complete),
    "and" the intersection (both inputs deterministic and complete).
    Transition marks are the union of the component marks, component 1
    offset; acceptance is the lifted combination.
    """
    if combinator not in ("or", "and"):
        raise TelaError(f"unknown product combinator {combinator!r}")
    _require_same_ap(a0, a1)
    for name, a in (("first", a0), ("second", a1)):
        if not is_complete(a):
            raise TelaError(f"product requires complete automata; {name} input is not")
    if combinator == "and":
        for name, a in (("first", a0), ("second", a1)):
            if not is_deterministic(a):
                raise TelaError(
                    f"product(and) requires deterministic automata; {name} input is not"
                )
    off = a0.n_marks
    width = a1.n_states
    initial_pairs = sorted(q0 * width + q1 for q0 in a0.initial for q1 in a1.initial)

    def expand(key: int, number):
        q0, q1 = divmod(key, width)
        for letter in range(a0.n_letters):
            for _, _, d0, m0 in a0.succ(q0, letter):
                for _, _, d1, m1 in a1.succ(q1, letter):
                    yield letter, number(d0 * width + d1), m0 | (m1 << off)

    order, edges = explore(initial_pairs, expand)
    lifted0 = a0.acceptance
    lifted1 = offset_marks(a1.acceptance, off)
    acceptance = (
        or_([lifted0, lifted1]) if combinator == "or" else and_([lifted0, lifted1])
    )
    return Tela(
        ap=a0.ap,
        n_states=len(order),
        initial=frozenset(range(len(initial_pairs))),
        transitions=flatten_edges(edges),
        acceptance=acceptance,
        n_marks=a0.n_marks + a1.n_marks,
    )


def complement_deterministic(a: Tela) -> Tela:
    """Complement a deterministic complete automaton by negating the acceptance."""
    if not is_deterministic(a):
        raise TelaError("complement requires a deterministic automaton")
    if not is_complete(a):
        raise TelaError("complement requires a complete automaton")
    return a.with_acceptance(negate(a.acceptance), a.n_marks)


class _SparseRow(dict):
    """A `post_masks` row holding the states with a successor on its letter;
    any other state has the empty pair."""

    def __missing__(self, q: int) -> tuple[int, int]:
        return (0, 0)


def post_masks(a: Tela, avoid: int = 0, meet: int = 0) -> list:
    """table[letter][q]: the successors of q on the letter over transitions
    whose marks avoid `avoid`, and the part of them reached over such
    transitions whose marks meet `meet`, as a pair of state bitmasks.

    A row is a list over all states when the table has no more entries
    than `a` has transitions, as on every complete automaton; list lookups
    keep `image` fastest.  Otherwise it is a `_SparseRow`, so an automaton
    that declares many more states than it uses costs no more than its
    transitions."""
    if a.n_states * a.n_letters <= len(a.transitions):
        table = [[(0, 0)] * a.n_states for _ in range(a.n_letters)]
    else:
        table = [_SparseRow() for _ in range(a.n_letters)]
    for s, letter, d, marks in a.transitions:
        if marks & avoid:
            continue
        img, part = table[letter][s]
        bit = 1 << d
        if marks & meet:
            part |= bit
        table[letter][s] = (img | bit, part)
    return table


def image(row, states: int) -> tuple[int, int]:
    """The union of row[q] over the states q of the bitmask `states`, for a
    row table[letter] of `post_masks`."""
    img = part = 0
    while states:
        low = states & -states
        succ, hit = row[low.bit_length() - 1]
        img |= succ
        part |= hit
        states ^= low
    return img, part


def explore(seeds, expand, state_cap=None, stage="exploration"):
    """Breadth-first numbering of the states reachable from `seeds`.

    Seeds take the first numbers, duplicates dropped.  `expand(state, number)`
    runs once per state in numbering order and returns (or yields) that
    state's edges; it calls `number(t)` to get successor t's number, which
    numbers t if new.  Returns the states and, in the same order, the list
    of each state's edges.

    Numbering a new state when `state_cap` states exist already (seeds are
    always numbered) raises BudgetExceeded naming `stage`.
    """
    index: dict = {}
    order: list = []
    for s in seeds:
        if s not in index:
            index[s] = len(order)
            order.append(s)

    def number(state) -> int:
        i = index.get(state)
        if i is None:
            if state_cap is not None and len(order) >= state_cap:
                raise BudgetExceeded(f"{stage} exceeded {state_cap} states", "states")
            i = index[state] = len(order)
            order.append(state)
        return i

    results = []
    pos = 0
    while pos < len(order):
        results.append(list(expand(order[pos], number)))
        pos += 1
    return order, results


def flatten_edges(results) -> tuple[Transition, ...]:
    """Transitions from explore results that list (letter, target, marks)."""
    return tuple(
        (src, letter, dst, marks)
        for src, out in enumerate(results)
        for letter, dst, marks in out
    )


def closure(states: int, succ) -> int:
    """The states reachable from the bitmask `states`, as a bitmask, where
    succ[q] is the bitmask of q's successors.  `succ` is a list over all
    states, or a `defaultdict(int)` that holds only the states with a
    successor, so a walk costs what the edges cost, not the state count."""
    todo = states
    while todo:
        low = todo & -todo
        todo ^= low
        new = succ[low.bit_length() - 1] & ~states
        states |= new
        todo |= new
    return states


def _components(adj: dict) -> dict:
    """Strongly connected components of a digraph, one iterative Tarjan pass.

    `adj` maps a node to its successors, any iterable, walked once;
    successors need no entry of their own.  Returns a component id for
    every node in or reached from `adj`, below the number of those nodes.
    A node is on the Tarjan stack while it has an index and no id.
    """
    index: dict = {}
    low: dict = {}
    comp: dict = {}
    stack: list = []
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(adj.get(root, ())))]
        while work:
            node, succs = work[-1]
            for succ in succs:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    work.append((succ, iter(adj.get(succ, ()))))
                    break
                if succ not in comp and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                work.pop()
                if low[node] == index[node]:
                    cid = len(comp)
                    while True:
                        q = stack.pop()
                        comp[q] = cid
                        if q == node:
                            break
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
    return comp


def scc_split(items, targets) -> list[tuple[frozenset, tuple]]:
    """Split items into strongly connected components, one Tarjan pass.

    Each item is an edge from its first entry, the source node, to every
    node of `targets(item)`.  Returns (component, items inside it) pairs:
    an item is inside when all its targets lie in its source's component.
    Items keep their input order, components come in order of their
    smallest node, and components with no item inside are dropped.
    """
    adj: dict = {}
    succs = []
    for item in items:
        ts = targets(item)
        succs.append(ts)
        adj.setdefault(item[0], []).extend(ts)
    comp = _components(adj)
    inside: dict[int, list] = {}
    for item, ts in zip(items, succs):
        cid = comp[item[0]]
        for t in ts:
            if comp[t] != cid:
                break
        else:
            inside.setdefault(cid, []).append(item)
    members: dict[int, list] = {}
    for q, cid in comp.items():
        if cid in inside:
            members.setdefault(cid, []).append(q)
    return sorted(
        ((frozenset(qs), tuple(inside[cid])) for cid, qs in members.items()),
        key=lambda part: min(part[0]),
    )


def accepting_scc_states(transitions, fin: int, infs) -> int:
    """The states of the strongly connected components, over the transitions
    avoiding `fin`, whose inside transitions meet every set of `infs`, as a
    bitmask; when `infs` is empty, any component with a transition inside
    counts.  One `scc_split` pass, so the cost follows the transitions."""
    states = 0
    for nodes, inside in scc_split([t for t in transitions if not t[3] & fin], _dst):
        marks = 0
        for t in inside:
            marks |= t[3]
        if all(marks & s for s in infs):
            for q in nodes:
                states |= 1 << q
    return states


def _dst(t: Transition) -> tuple[int]:
    return (t[2],)


def bisim_quotient(a: Tela) -> Tela:
    """The quotient of `a` by strong bisimulation over (letter, marks)
    transitions, a deterministic function of `a`.

    Blocks are numbered in order of their smallest state and take that
    state's transitions, deduplicated; the initial states map to their
    blocks, and the acceptance and the mark count are kept.  A product of an
    MDP with the quotient is bisimilar to the product with `a`, so maximal
    probabilities and accepting end components carry over.
    """
    block = _bisim_blocks(a)
    first: list[int] = []
    for q, b in enumerate(block):
        if b == len(first):
            first.append(q)
    return Tela(
        ap=a.ap,
        n_states=len(first),
        initial=frozenset(block[q] for q in a.initial),
        transitions=tuple(
            (block[s], letter, block[d], marks)
            for s, letter, d, marks in a.transitions
            if first[block[s]] == s
        ),
        acceptance=a.acceptance,
        n_marks=a.n_marks,
    )


def _bisim_blocks(a: Tela) -> list[int]:
    """Each state's block in the coarsest partition where all states of a
    block have the same set of (letter, marks, target block) triples, blocks
    numbered in order of their smallest state.

    Signature refinement from a single block, in worklist form: block ids
    stay fixed, the largest part of a split block keeps its id, and each
    round re-checks only the blocks that hold a predecessor of a state that
    moved.  On deterministic input this is Moore minimization.
    """
    n = a.n_states
    stride = 1 << a.n_marks
    # moves[q]: q's (letter, marks) codes with their targets.
    moves: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    preds: list[set[int]] = [set() for _ in range(n)]
    for s, letter, d, marks in a.transitions:
        moves[s].append((letter * stride + marks, d))
        preds[d].add(s)
    width = a.n_letters * stride
    block = [0] * n
    members = [list(range(n))] if n else []
    dirty = set(range(len(members)))
    while dirty:
        moved: list[int] = []
        for b in sorted(dirty):
            parts: dict[frozenset[int], list[int]] = {}
            for q in members[b]:
                sig = frozenset([block[d] * width + code for code, d in moves[q]])
                parts.setdefault(sig, []).append(q)
            if len(parts) == 1:
                continue
            ordered = sorted(parts.values(), key=len, reverse=True)
            members[b] = ordered[0]
            for part in ordered[1:]:
                for q in part:
                    block[q] = len(members)
                members.append(part)
                moved += part
        dirty = {block[p] for q in moved for p in preds[q]}
    number: dict[int, int] = {}
    return [number.setdefault(b, len(number)) for b in block]


def simulation_reduce(g: Tela) -> Tela:
    """Reduce an automaton with generalized-Buchi acceptance by direct
    simulation, keeping its language (the argument is in `determinize`).

    r simulates q when every transition q -a,M-> p is matched by some
    r -a,M'-> p' where M' meets every acceptance set that M meets and p'
    simulates p.  States that simulate each other merge, and a merged state
    takes the transitions of all its members.  A transition is dropped when
    a sibling on its letter meets a superset of its acceptance sets and
    leads to a state simulating its target, unless the two agree on both;
    an initial state is dropped when another initial state strictly
    simulates it.  The states still reachable are kept, in order of their
    smallest member, with the acceptance and the mark count.

    The moves that `_direct_simulation` tabulates in its one pass over the
    transitions serve the merge and the pruning too, which visit only the
    merged states reached from the kept initial ones, breadth first.
    """
    sets = gba_marksets(g.acceptance)
    if sets is None:
        raise TelaError("simulation reduction needs generalized-Buchi acceptance")
    sim, moves, above = _direct_simulation(g, sets)
    shift = len(sets)
    # cls[q]: the smallest state that simulates q and that q simulates.
    cls = []
    members: dict[int, list[int]] = {}
    for q, up in enumerate(sim):
        while not sim[(up & -up).bit_length() - 1] >> q & 1:
            up &= up - 1
        cls.append((up & -up).bit_length() - 1)
        members.setdefault(cls[q], []).append(q)
    initial = {cls[q] for q in g.initial}
    initial = {
        i for i in initial if not any(j != i and sim[i] >> j & 1 for j in initial)
    }
    order = sorted(initial)
    seen = set(initial)
    kept = []
    for s in order:
        # targets[c]: the merged targets of s's moves on code c.
        targets: dict[int, int] = {}
        for q in members[s]:
            for c, d, _ in moves[q]:
                targets[c] = targets.get(c, 0) | 1 << cls[d]
        # tops[c]: the targets on codes dominating c, and on codes strictly
        # dominating it.
        tops = {}
        for c, own in targets.items():
            stricter = 0
            for b in above[c][1:]:
                stricter |= targets.get(b, 0)
            tops[c] = (stricter | own, stricter)
        for q in members[s]:
            for c, d, marks in moves[q]:
                d = cls[d]
                wider, stricter = tops[c]
                if not (wider & sim[d] & ~(1 << d) or stricter >> d & 1):
                    kept.append((s, c >> shift, d, marks))
                    if d not in seen:
                        seen.add(d)
                        order.append(d)
    number = {q: i for i, q in enumerate(sorted(order))}
    return Tela(
        ap=g.ap,
        n_states=len(number),
        initial=frozenset(number[q] for q in initial),
        transitions=tuple(
            (number[s], letter, number[d], marks) for s, letter, d, marks in kept
        ),
        acceptance=g.acceptance,
        n_marks=g.n_marks,
    )


def _direct_simulation(a: Tela, sets) -> tuple[list[int], list, dict]:
    """sim[q]: the bitmask of the states that directly simulate q, where a
    transition's marks count only through the acceptance sets `sets` they
    meet.  The greatest fixpoint, in worklist form.

    A move is a code, its letter and the sets its marks meet, with a target;
    a code dominates those of its letter whose sets it includes.  Each state
    starts from the states that have a move dominating each of its codes.
    Each state p keeps, per code of a move into p, the states with a
    dominating move into one of p's simulators, and recomputes them only
    when its own set shrinks; a round re-checks only the predecessors of the
    states whose sets shrank in the round before.

    One pass over the transitions tabulates each state's moves, as (code,
    target, marks) triples, and per code the sources of its moves into each
    state.  Returns sim with the moves and above[c], the codes that
    dominate code c, c first.
    """
    n = a.n_states
    shift = len(sets)
    met: dict[int, int] = {}
    moves: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    # pre[c][p]: the states with a move of code c into p.
    pre: dict[int, list[int]] = {}
    for s, letter, d, marks in a.transitions:
        m = met.get(marks)
        if m is None:
            m = met[marks] = project_marks(marks, sets)
        c = letter << shift | m
        moves[s].append((c, d, marks))
        col = pre.get(c)
        if col is None:
            col = pre[c] = [0] * n
        col[d] |= 1 << s
    above = {
        c: [c] + [b for b in pre if b != c and b >> shift == c >> shift and not c & ~b]
        for c in pre
    }
    # dom[c][p]: the states with a move into p whose code dominates c;
    # holders[c]: the states with any such move.
    dom: dict[int, list[int]] = {}
    holders: dict[int, int] = {}
    for c, up in above.items():
        col = pre[c]
        for b in up[1:]:
            col = [x | y for x, y in zip(col, pre[b])]
        dom[c] = col
        acc = 0
        for x in col:
            acc |= x
        holders[c] = acc
    # into[p]: the codes of the moves into p; preds[p]: their sources.
    into: list[list[int]] = [[] for _ in range(n)]
    preds = [0] * n
    for c, col in pre.items():
        for p, sources in enumerate(col):
            if sources:
                into[p].append(c)
                preds[p] |= sources
    sim = []
    for out in moves:
        up = (1 << n) - 1
        for c, _, _ in out:
            up &= holders[c]
        sim.append(up)

    def images(p: int) -> dict[int, int]:
        up = sim[p]
        rs = []
        while up:
            low = up & -up
            rs.append(low.bit_length() - 1)
            up ^= low
        row = {}
        for c in into[p]:
            col = dom[c]
            acc = 0
            for r in rs:
                acc |= col[r]
            row[c] = acc
        return row

    img = [images(p) for p in range(n)]
    dirty = (1 << n) - 1
    while dirty:
        changed = []
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            q = low.bit_length() - 1
            up = sim[q]
            for c, p, _ in moves[q]:
                up &= img[p][c]
            if up != sim[q]:
                sim[q] = up
                changed.append(q)
        for p in changed:
            img[p] = images(p)
            dirty |= preds[p]
    return sim, moves, above


def _require_same_ap(a0: Tela, a1: Tela) -> None:
    if a0.ap != a1.ap:
        raise TelaError(
            f"mismatched atomic propositions: {a0.ap} vs {a1.ap}"
        )
