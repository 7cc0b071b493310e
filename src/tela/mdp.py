"""Markov decision processes labelled with atomic propositions, their
product with automata, and probabilistic model checking.

The text format is line oriented; `#` starts a comment:

    states 3
    initial 0
    label 0 {a}
    label 1 {a,b}
    trans 0 act 1 1/2
    trans 0 act 2 1/2

Probabilities are exact rationals; each (state, action) distribution must
sum to one.  States without a `label` line carry the empty label.

The product with an automaton reads the label of the current MDP state:
a product action pairs an MDP action with one automaton transition over
that letter, so a strategy resolves both kinds of nondeterminism.  The
automaton may be partial: where it has no transition over the letter, the
product state has no action.  Such a dead end reaches no target, neither in
the graph fixpoints nor in the MEC split nor in the iteration, so its value
is 0, as the rejecting sink of a completion would give it.  Product
states are numbered by the int key s * |Q| + q while exploring and returned
as (MDP state, automaton state) pairs.  Each action, of an MDP or of a
product, carries its support, the targets of its distribution in order;
the MEC split and the graph fixpoints read it.  A product action stores no
distribution: it holds its support and the `probs` tuple of its MDP action,
which every product action over that MDP action shares, and its `dist`
pairs the two on each read.  Maximal end components
come from `core.scc_split`, the one SCC split, run over (state, action id,
support) items and again on each component that lost items, until none
loses any.  Maximal reachability probabilities are decided first by graph
fixpoints: Prob0E (no scheduler reaches the target) and Prob1E (some
scheduler reaches it with probability 1), so answers of 0 and 1 are exact.
Only the states left undecided go to interval iteration on their MEC
quotient, which is free of end components, so both value bounds converge;
iteration stops at width 1e-9.

qualitative_positive decides whether the maximal probability of the
automaton's language is positive; it needs a limit-deterministic automaton.
pr_max_tela computes the maximal probability for any TELA by building the
good-for-MDP automaton first, so the input automaton must stay within that
construction's size limit.

Both build the product over the bisimulation quotient of their automaton
(`core.bisim_quotient`): pr_max_tela runs GFM automaton -> quotient ->
product, and qualitative_positive quotients its input after the
limit-determinism check, so an error witness keeps the input's state
numbers.  A product with the quotient is bisimilar to the product with the
automaton, so maximal probabilities and accepting end components are the
same.  mdp_product does not quotient; reference_pr_max builds on
determinize_product, which reduces each GBA by simulation and whose Safra
parts are Moore-minimal, so it runs the same quotient kernel and is no
check of it: the tests compare both with an exact oracle on the
unquotiented product.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .acceptance import (
    Acceptance,
    DnfAcceptance,
    DnfDisjunct,
    gba_marksets,
    to_dnf,
)
from .core import (
    BudgetExceeded,
    Tela,
    TelaError,
    bisim_quotient,
    explore,
    scc_split,
)
from .limitdet import build_gfm, limit_det_violation
from .transforms import ensure_dnf

REACH_TOLERANCE = 1e-9


class MdpError(ValueError):
    pass


class MdpParseError(MdpError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class NotLimitDeterministicError(TelaError):
    """Raised when an analysis that needs a limit-deterministic automaton
    gets one with an accepting cycle in its nondeterministic part."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class MdpAction:
    name: str
    dist: tuple[tuple[int, Fraction], ...]

    @cached_property
    def support(self) -> tuple[int, ...]:
        """The targets of `dist`, in order."""
        return tuple(t for t, _ in self.dist)

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        """The probabilities of `dist`, in order; every product action built
        over this action shares this tuple."""
        return tuple(p for _, p in self.dist)


@dataclass(frozen=True)
class Mdp:
    n_states: int
    initial: int
    labels: tuple[frozenset[str], ...]
    actions: tuple[tuple[MdpAction, ...], ...]

    def __post_init__(self):
        if self.n_states <= 0:
            raise MdpError("an MDP needs at least one state")
        if not 0 <= self.initial < self.n_states:
            raise MdpError(f"initial state {self.initial} out of range")
        if len(self.labels) != self.n_states or len(self.actions) != self.n_states:
            raise MdpError("labels and actions must cover every state")
        for s, acts in enumerate(self.actions):
            if not acts:
                raise MdpError(f"state {s} has no action")
            for act in acts:
                _check_action(s, act, self.n_states, lambda msg, _: MdpError(msg))


def _check_action(s: int, act: MdpAction, n_states: int, error) -> None:
    """Raise `error(message, entry)` at the first fault of state s's action:
    entry is the index of the faulty (target, probability) pair, or None when
    the distribution does not sum to one."""
    total = Fraction(0)
    seen: set[int] = set()
    for i, (t, p) in enumerate(act.dist):
        if not 0 <= t < n_states:
            raise error(f"transition target {t} out of range", i)
        if t in seen:
            raise error(f"duplicate target {t} in {s} --{act.name}-->", i)
        seen.add(t)
        if p <= 0:
            raise error("probabilities must be positive", i)
        total += p
    if total != 1:
        raise error(f"distribution of {s} --{act.name}--> sums to {total}", None)


def parse_mdp(text: str) -> Mdp:
    """Parse the text format; every error, syntactic or semantic, names the
    line it is on (the `states` line for a state without actions, the first
    `trans` line of an action for its source or its sum)."""
    n_states: int | None = None
    states_line = 0
    initial, initial_line = 0, 0
    labels: dict[int, frozenset[str]] = {}
    label_lines: dict[int, int] = {}
    # (source, action name) -> (line, target, probability) in input order
    dists: dict[tuple[int, str], list[tuple[int, int, Fraction]]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "states":
                if n_states is not None:
                    raise ValueError("duplicate states line")
                n_states, states_line = int(parts[1]), lineno
                if n_states <= 0:
                    raise ValueError("an MDP needs at least one state")
            elif kind == "initial":
                if initial_line:
                    raise ValueError("duplicate initial line")
                initial, initial_line = int(parts[1]), lineno
            elif kind == "label":
                s = int(parts[1])
                body = line.split(None, 2)[2]
                if not (body.startswith("{") and body.endswith("}")):
                    raise ValueError("label needs a {...} set")
                if s in labels:
                    raise ValueError(f"duplicate label for state {s}")
                inner = body[1:-1].strip()
                names = [x.strip() for x in inner.split(",")] if inner else []
                if any(not x for x in names):
                    raise ValueError("empty atomic proposition name")
                labels[s], label_lines[s] = frozenset(names), lineno
            elif kind == "trans":
                if len(parts) != 5:
                    raise ValueError("trans needs: source action target prob")
                s, name = int(parts[1]), parts[2]
                t, p = int(parts[3]), Fraction(parts[4])
                dists.setdefault((s, name), []).append((lineno, t, p))
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except (MdpParseError, BudgetExceeded):
            raise
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise MdpParseError(lineno, str(exc) or "malformed line") from exc
    if n_states is None:
        raise MdpParseError(0, "missing states line")
    if not 0 <= initial < n_states:
        raise MdpParseError(initial_line, f"initial state {initial} out of range")
    for s, lineno in label_lines.items():
        if not 0 <= s < n_states:
            raise MdpParseError(lineno, f"label for unknown state {s}")
    actions: dict[int, list[MdpAction]] = {}
    for (s, name), entries in dists.items():
        if not 0 <= s < n_states:
            raise MdpParseError(entries[0][0], f"transition source {s} out of range")
        act = MdpAction(name, tuple((t, p) for _, t, p in entries))
        _check_action(
            s, act, n_states, lambda msg, i: MdpParseError(entries[i or 0][0], msg)
        )
        actions.setdefault(s, []).append(act)
    # Stops at most one state past the action sources, so a huge declared
    # count fails here before anything is allocated per state.
    missing = next((s for s in range(n_states) if s not in actions), None)
    if missing is not None:
        raise MdpParseError(states_line, f"state {missing} has no action")
    # Every check of `Mdp.__post_init__` has been made above, with its line
    # number, so the constructor's second pass over the actions is skipped.
    m = object.__new__(Mdp)
    m.__dict__.update(
        n_states=n_states,
        initial=initial,
        labels=tuple(labels.get(s, frozenset()) for s in range(n_states)),
        actions=tuple(tuple(actions[s]) for s in range(n_states)),
    )
    return m


class ProductAction(NamedTuple):
    """An MDP action paired with one automaton transition: its name, the
    transition's marks, its support, the product states it leads to in
    order, and their probabilities, the MDP action's `probs` tuple itself,
    shared by every product action over that MDP action.  Targets index
    `ProductMdp.states`; exploration numbers those states by the int key
    s * |Q| + q of MDP state s and automaton state q."""

    name: str
    marks: int
    support: tuple[int, ...]
    probs: tuple[Fraction, ...]

    @property
    def dist(self) -> tuple[tuple[int, Fraction], ...]:
        """The distribution over product states, (target, probability) in
        order; built on each read."""
        return tuple(zip(self.support, self.probs))


@dataclass(frozen=True)
class ProductMdp:
    states: tuple[tuple[int, int], ...]
    initial: int
    actions: tuple[tuple[ProductAction, ...], ...]
    acceptance: Acceptance
    n_marks: int

    @property
    def n_states(self) -> int:
        return len(self.states)


def _state_letters(m: Mdp, a: Tela) -> list[int]:
    """The automaton letter read in each MDP state."""
    alphabet = set(a.ap)
    letters = []
    for s in range(m.n_states):
        unknown = m.labels[s] - alphabet
        if unknown:
            raise MdpError(
                f"label of state {s} uses {sorted(unknown)}, which the "
                "automaton alphabet does not contain"
            )
        letter = 0
        for i, name in enumerate(a.ap):
            if name in m.labels[s]:
                letter |= 1 << i
        letters.append(letter)
    return letters


def _explore_product(
    m: Mdp, a: Tela
) -> tuple[list[tuple[int, int]], list[list[ProductAction]]]:
    """The reachable product states, as (MDP state, automaton state) pairs,
    and each one's actions.  States are numbered by the int key
    s * |Q| + q while exploring."""
    letters = _state_letters(m, a)
    width = a.n_states
    # Per MDP state: each action's name, targets times width, probabilities.
    scaled = [
        [(act.name, [t * width for t in act.support], act.probs) for act in acts]
        for acts in m.actions
    ]

    def expand(key: int, number) -> list[ProductAction]:
        s, q = divmod(key, width)
        moves = a.succ(q, letters[s])
        out = []
        for name, targets, probs in scaled[s]:
            for _, _, q2, marks in moves:
                support = tuple([number(t + q2) for t in targets])
                out.append(ProductAction(name, marks, support, probs))
        return out

    seeds = [m.initial * width + q for q in sorted(a.initial)]
    keys, actions = explore(seeds, expand)
    return [divmod(key, width) for key in keys], actions


def mdp_product(m: Mdp, a: Tela) -> ProductMdp:
    """Product of an MDP with an automaton along the generated label word.

    The automaton needs one initial state and may be partial: a product
    state whose letter has no automaton transition has no action, and its
    value is 0 (see the module docstring)."""
    if len(a.initial) != 1:
        raise MdpError("the product needs exactly one initial automaton state")
    states, actions = _explore_product(m, a)
    return ProductMdp(
        states=tuple(states),
        initial=0,
        actions=tuple(tuple(acts) for acts in actions),
        acceptance=a.acceptance,
        n_marks=a.n_marks,
    )


@dataclass(frozen=True)
class EndComponent:
    states: frozenset[int]
    actions: dict[int, tuple[int, ...]]


def _mec_decompose(items) -> list[EndComponent]:
    """Maximal end components of (state, action id, support) items.

    Split the items into strongly connected components and keep the items
    inside each.  A component that lost items is split again on its own,
    until none loses any; then every component is a maximal end component
    with its items.  States without items belong to none.  Components come
    in order of their smallest state.
    """
    done = []
    todo = [items]
    while todo:
        group = todo.pop()
        n_items = Counter(item[0] for item in group)
        for comp, inside in scc_split(group, lambda item: item[2]):
            if sum(n_items[s] for s in comp) == len(inside):
                done.append((comp, inside))
            else:
                todo.append(inside)
    done.sort(key=lambda part: min(part[0]))
    mecs = []
    for comp, inside in done:
        actions: dict[int, tuple[int, ...]] = {}
        for s, aid, _ in inside:
            actions[s] = actions.get(s, ()) + (aid,)
        mecs.append(EndComponent(comp, actions))
    return mecs


def _action_items(actions, fin: int = 0) -> list[tuple[int, int, tuple[int, ...]]]:
    """(state, action id, support) of every action whose marks avoid `fin`."""
    return [
        (s, aid, act.support)
        for s, acts in enumerate(actions)
        for aid, act in enumerate(acts)
        if not (fin and act.marks & fin)
    ]


def qualitative_positive(m: Mdp, a: Tela) -> bool:
    """Whether the maximal probability of generating a word in the
    automaton's language is positive.

    The automaton must be limit-deterministic.  The criterion: some maximal
    end component of the product with the bisimulation quotient, after
    deleting one disjunct's Fin transitions, contains an action for every
    Inf set of that disjunct.
    """
    witness = limit_det_violation(a)
    if witness is not None:
        states = [t[0] for t in witness.cycle]
        raise NotLimitDeterministicError(
            "automaton is not limit-deterministic: accepting cycle through "
            f"nondeterministic states {sorted(set(states))}",
            witness,
        )
    a = bisim_quotient(a)
    _, actions = _explore_product(m, a)
    return any(True for _ in _accepting_mecs(actions, to_dnf(a.acceptance)))


def _accepting_mecs(actions, dnf: DnfAcceptance):
    """Maximal end components, left after deleting the actions of some
    disjunct's Fin set, whose action marks meet every Inf set of that
    disjunct.  Disjuncts with the same Fin set share one decomposition."""
    by_fin: dict[int, list[DnfDisjunct]] = {}
    for d in dnf.disjuncts:
        by_fin.setdefault(d.fin, []).append(d)
    for fin, disjuncts in sorted(by_fin.items()):
        for mec in _mec_decompose(_action_items(actions, fin)):
            marks = 0
            for s, aids in mec.actions.items():
                for aid in aids:
                    marks |= actions[s][aid].marks
            if any(d.holds(marks) for d in disjuncts):
                yield mec


def _prob01e(actions, target: set[int]) -> tuple[set[int], set[int]]:
    """(states that can reach the target, Prob1E): the complement of Prob0E
    and the states with a scheduler reaching the target with probability 1.

    Prob1E is the greatest fixpoint over U of the least fixpoint R: the
    target plus every state of U with an action whose support lies in U and
    meets R.  Each round walks back from the target along the actions still
    inside U, then drops the actions that leave the new U.  The first R,
    with U all states, is the set that can reach the target.  The
    predecessor lists are built once; dropped actions stay in them and are
    skipped.
    """
    items = [(s, act.support) for s, acts in enumerate(actions) for act in acts]
    # preds[t]: the ids of the actions whose support holds t.
    preds: list[list[int]] = [[] for _ in actions]
    for i, (_, sup) in enumerate(items):
        for t in sup:
            preds[t].append(i)
    live = [True] * len(items)
    u = set(range(len(actions)))
    can = None
    while True:
        r = set(target)
        stack = list(r)
        while stack:
            for i in preds[stack.pop()]:
                s = items[i][0]
                if live[i] and s not in r:
                    r.add(s)
                    stack.append(s)
        if can is None:
            can = r
        if r == u:
            return can, r
        u = r
        for i, (s, sup) in enumerate(items):
            if live[i] and not (s in u and u.issuperset(sup)):
                live[i] = False


def _max_reach(
    actions: tuple[tuple[ProductAction, ...], ...],
    initial: int,
    target: set[int],
) -> float:
    """Maximal probability of reaching the target set.

    Graph fixpoints decide Prob0E and Prob1E first (`_prob01e`), so answers
    of 0 and 1 are exact.  The states left undecided go to interval
    iteration on their MEC quotient, which is free of end components, so
    both value bounds converge; iteration stops at width 1e-9.
    """
    n = len(actions)
    can, sure = _prob01e(actions, target)
    if initial in sure:
        return 1.0
    if initial not in can:
        return 0.0
    undecided = can - sure
    mecs = _mec_decompose(
        [item for item in _action_items(actions) if item[0] in undecided]
    )
    block_of = {s: mec.states for mec in mecs for s in mec.states}
    # Quotient nodes, numbered in order of their smallest state.
    nodes: dict[frozenset[int], int] = {}
    node_of = [
        nodes.setdefault(block_of.get(s, frozenset({s})), len(nodes))
        for s in range(n)
    ]
    q_actions: list[list[dict[int, float]]] = [[] for _ in nodes]
    for s in range(n):
        if s not in undecided:
            continue
        nid = node_of[s]
        for act in actions[s]:
            agg: dict[int, float] = {}
            for t, p in zip(act.support, act.probs):
                agg[node_of[t]] = agg.get(node_of[t], 0.0) + float(p)
            if set(agg) == {nid}:
                continue
            q_actions[nid].append(agg)
    free = sorted({node_of[s] for s in undecided})
    lo = [0.0] * len(nodes)
    for s in sure:
        lo[node_of[s]] = 1.0
    hi = lo[:]
    for nid in free:
        hi[nid] = 1.0
    for _ in range(1_000_000):
        width = 0.0
        for nid in free:
            best_lo = 0.0
            best_hi = 0.0
            for agg in q_actions[nid]:
                best_lo = max(best_lo, sum(p * lo[t] for t, p in agg.items()))
                best_hi = max(best_hi, sum(p * hi[t] for t, p in agg.items()))
            lo[nid] = best_lo
            hi[nid] = best_hi
            width = max(width, hi[nid] - lo[nid])
        if width < REACH_TOLERANCE:
            break
    else:
        raise MdpError("value iteration did not converge")
    node = node_of[initial]
    return (lo[node] + hi[node]) / 2


def pr_max_buchi(p: ProductMdp) -> float:
    """Maximal probability of seeing an accepting mark infinitely often.

    The product must carry Buchi acceptance; end components containing an
    accepting action become the reachability target.
    """
    sets = gba_marksets(p.acceptance)
    if sets is None or len(sets) != 1:
        raise MdpError("pr_max_buchi needs Buchi acceptance")
    return _pr_max_accepting(p)


def _pr_max_accepting(p: ProductMdp) -> float:
    """Maximal probability of reaching an accepting end component."""
    target: set[int] = set()
    for mec in _accepting_mecs(p.actions, to_dnf(p.acceptance)):
        target |= mec.states
    if not target:
        return 0.0
    return _max_reach(p.actions, p.initial, target)


def pr_max_tela(m: Mdp, a: Tela) -> float:
    """Maximal probability that the MDP generates a word the TELA accepts,
    via the bisimulation quotient of the good-for-MDP automaton, which
    stays partial."""
    g = bisim_quotient(build_gfm(ensure_dnf(a)))
    return pr_max_buchi(mdp_product(m, g))


def reference_pr_max(m: Mdp, a: Tela) -> float:
    """Same value as pr_max_tela, computed along another route: full
    determinization, then the standard analysis of the deterministic
    product.  Serves as a cross-check of everything but the quotient,
    which both routes run."""
    from .determinize import determinize_product

    return _pr_max_accepting(mdp_product(m, determinize_product(a)))
