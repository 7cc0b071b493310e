"""Determinization: degeneralization, a transition-based Safra construction,
and a product-of-deterministic-parts route for DNF acceptance.

Both routes hand Safra a generalized-Buchi automaton (GBA) through
`_determinize_gba`, which first tests whether the GBA accepts every word
by a terminal part, in the spirit of the terminal components of Bloem,
Ravi & Somenzi (CAV 1999).  S is the greatest set of states that have, on
every letter, a transition into S whose marks meet every acceptance set;
U is the least set that holds S and every state that has, on every
letter, a transition into U.  When an initial state lies in U, the
one-state automaton that Safra builds for an accepting loop is returned,
and none of the steps below runs.  This is sound:

- U is the union of the layers U_0 = S and U_(i+1), the states of U_i
  plus those with a transition into U_i on every letter.  So from a state of
  U, on any word, a run steps from layer to layer down and reaches S
  within |U| steps, whatever the letters are.
- From a state of S, every letter has a transition back into S whose marks
  meet every set, so the run stays in S and meets every set on every
  step: it is accepting.  With acceptance `t` there is no set, and every
  transition meets all of them.

The test is a sufficient condition only; a universal GBA it misses goes
through the chain as before.  It runs first because it costs one pass over
the transitions and two bit-loop fixpoints, less than the simulation
reduction alone, which is the largest stage of the chain; on the `det`
benchmark inputs most GBAs are caught, and the chain would spend all of
its stages on them only to return a larger automaton of the same,
universal, language.

The pre-test misses GBAs that accept every word only through
nondeterminism, such as two initial states accepting GF a and GF !a, so
each Safra output is tested too, by one emptiness search on its own edges
(`_no_rejecting_cycle`): when no cycle of them violates the acceptance, the
one-state automaton is returned in its place.  This keeps the language:
the output is complete, so every word has a run, and the edges that run
takes infinitely often form a cycle (a strongly connected set of edges)
whose marks, the ones the run meets infinitely often, satisfy the
acceptance because no cycle violates it.  Every state of a Safra
output is reachable by construction, so the search needs no reachability
walk, and it misses no universal output: a rejecting cycle is reached on
some prefix, and the output being deterministic, the word that then walks
all of its edges forever has one run, which it rejects.

A GBA the test does not catch is reduced by direct simulation
(`core.simulation_reduce`; Somenzi & Bloem, CAV 2000; Clemente & Mayr,
POPL 2013) before it is degeneralized.  r simulates q when each
transition of q is matched on its letter by one of r whose marks meet
every Inf set the first one's meet, into a state simulating the first
one's target.  The reduction keeps the language:

- From a run of q, step by step, r builds a run on the same word that meets
  at each step every Inf set the first run meets, and so meets each set
  infinitely often if the first does.  A conjunction of Inf atoms holds of
  more sets met whenever it holds of fewer, so r accepts every word q
  accepts.
- Merging states that simulate each other: a merged state takes the
  transitions of all its members.  Each member simulates every other, so
  it matches every transition of the merged state, into a state that
  simulates each member of the target.  So, as above, a run of the
  quotient is matched by a run of the input from any member of the state
  it starts in, and a run of the input maps onto the quotient unchanged.
- Pruning: a transition goes when a sibling on its letter strictly
  dominates it, meeting a superset of its sets and leading to a state
  simulating its target, not the other way round as well.  Strict
  dominance is a strict order, so each transition is dominated by one that
  stays; simulation is still a simulation after pruning, and each state
  keeps its words.  A rule that is not strict would drop two siblings that
  each dominate the other, and lose their words; likewise an initial state
  goes only when another initial state strictly simulates it.

This needs acceptance that is a conjunction of Inf atoms, as a GBA's is.
Under a Fin atom, meeting more marks can reject, so a simulating state need
not accept what it simulates.  The Safra outputs carry Rabin acceptance, so
they are quotiented by `core.bisim_quotient` instead, as is the good-for-MDP
automaton: its MDP products must keep their probabilities, which
bisimulation guarantees and a reduction that only keeps the language need
not.

The Safra construction tracks ordered trees of named, state-set-labelled
nodes.  A node spawns a youngest child holding the accepting image of its
old label, younger siblings give up states claimed by older ones, nodes with
empty label disappear, and a node whose children jointly cover it deletes
the children and emits a green mark for its name.  A name emits red when it
vanishes.  The result is deterministic with Rabin acceptance: some name is
eventually never red and infinitely often green.  Only the names that go
green somewhere get a mark pair, and the result is Moore-minimal: it is
returned as its `core.bisim_quotient`.  A state cap bounds the Safra
exploration, not the returned size.

Safra runs on the input as it is, partial or not, and completes nothing.  A
state with no successor on a letter adds nothing to any image, so a run
that dies simply leaves every label, as in Safra's construction on partial
automata; the greens argument below is unchanged.  Only finite runs go,
and those accept no word: a run held forever in a component without an
accepting transition inside it, the root-cover case below, is infinite and
stays in the root's label.  Every tree still steps on every letter, and the
tree whose root label is empty steps to itself with no mark: it is the
rejecting sink, so the output is deterministic and complete.

Labels below the root hold only live states: those whose strongly connected
component in the input has an accepting transition inside it (Loding &
Pirogov, ATVA 2019), which `core.accepting_scc_states` finds in one SCC
split of the input's transitions.  This keeps the language:

- An accepting run sees accepting transitions infinitely often and
  eventually stays in one component, so some accepting transition lies
  inside that component, and from then on the run visits only live states.
  The root holds every run; a live suffix is handed to the root's children
  exactly as before, so the usual argument finds a name that goes green
  infinitely often and is eventually never red.
- Conversely, a node goes green only when its children cover its label, and
  each state of a child was reached from the node's label through an
  accepting transition since the child appeared.  Dropping states from
  labels keeps that true, so between two greens of a name every state of
  its label extends a path through an accepting transition from its label
  at the previous green, and infinitely many greens give an accepting run
  by Konig's lemma.
- The root keeps its whole label and goes green only when its children
  cover all of it, the states that are not live included.  If those did
  not count, a run held forever in a component with no accepting
  transition inside it could sit in the root while live children turn it
  green, and the output would accept a word the input rejects: restricting
  the root's cover test that way changes the language of the pinned input
  in `test_safra_root_goes_green_only_when_its_whole_label_is_covered`.

disjunct_determinizations determinizes each DNF disjunct separately via
Fin-removal, degeneralization and Safra; determinize_product combines the
parts with the union product, skipping parts whose language is already
covered.  That check, `contains`, explores the pairs of the two
deterministic automata from the initial pair, as `accepts` does, and runs
the emptiness search on their edges; it builds no product automaton.
Each union product, complete with every state reachable like a Safra
output, gets the same universality test.  Once a part or the union accepts
every word, the one-state automaton is returned at once: the union only
grows as parts are added, so the remaining disjuncts cannot change its
language, and since disjunct_determinizations is lazy, they are never
determinized.
"""

from __future__ import annotations

from .acceptance import (
    TRUE,
    Inf,
    and_,
    dnf_structure,
    disjunct_formula,
    fin_,
    gba_marksets,
    inf_,
    mark_indices,
    offset_dnf,
    or_,
    to_dnf,
)
from .analysis import _witness
from .core import (
    BudgetExceeded,
    Tela,
    TelaError,
    _require_same_ap,
    accepting_scc_states,
    bisim_quotient,
    empty_language_automaton,
    explore,
    flatten_edges,
    image,
    is_complete,
    is_deterministic,
    post_masks,
    product,
    simulation_reduce,
    with_all_mark,
)
from .transforms import GBA_METHODS, ensure_dnf, remove_fin, to_gba

DET_METHODS = tuple(f"via-gba:{m}" for m in GBA_METHODS) + (
    "product",
    "product-nolangcover",
)


def degeneralize(g: Tela) -> Tela:
    """Turn a generalized-Buchi TELA into a Buchi one with a counter.

    States are pairs of an original state and a level in 0..k-1, numbered by
    the int key level * |Q| + q while exploring.  Level j waits for
    acceptance set j, and a transition skips every level whose set it
    carries (Gastin & Oddoux, CAV 2001): from level j it advances past sets
    j, j+1, ... as long as it carries them.  On reaching k it takes the
    single output mark and skips again from level 0, stopping at k-1, so a
    transition carrying every set marks once and lands on level k-1.
    """
    sets = gba_marksets(g.acceptance)
    if sets is None:
        raise TelaError("degeneralization needs generalized-Buchi acceptance")
    k = len(sets)
    if k == 0:
        return Tela(
            ap=g.ap,
            n_states=g.n_states,
            initial=g.initial,
            transitions=tuple((s, letter, d, 1) for s, letter, d, _ in g.transitions),
            acceptance=Inf(1),
            n_marks=1,
        )

    width = g.n_states
    # moves[level][marks]: the key offset of the next level, and the mark.
    moves: list[dict[int, tuple[int, int]]] = [{} for _ in range(k)]
    for marks in {t[3] for t in g.transitions}:
        for level in range(k):
            nxt, mark = level, 0
            while nxt < k and marks & sets[nxt]:
                nxt += 1
            if nxt == k:
                nxt, mark = 0, 1
                while nxt < k - 1 and marks & sets[nxt]:
                    nxt += 1
            moves[level][marks] = nxt * width, mark

    def expand(key: int, number):
        level, q = divmod(key, width)
        row = moves[level]
        for letter in range(g.n_letters):
            for _, _, dst, marks in g.succ(q, letter):
                offset, mark = row[marks]
                yield letter, number(offset + dst), mark

    order, edges = explore(sorted(g.initial), expand)
    return Tela(
        ap=g.ap,
        n_states=len(order),
        initial=frozenset(range(len(g.initial))),
        transitions=flatten_edges(edges),
        acceptance=Inf(1),
        n_marks=1,
    )


_Node = tuple[int, int, tuple]  # name, label (a bitmask of states), children


def safra_determinize(b: Tela, state_cap: int | None = None) -> Tela:
    """Determinize a Buchi TELA into a Rabin one via Safra trees.

    Output marks come in pairs per kept tree-node name, the names that go
    green on some explored edge, numbered 0..k-1 in ascending order: 2j
    green (node j stabilized this step), 2j+1 red (node j was removed).
    The acceptance condition is the disjunction over kept names of
    Fin(red) and Inf(green).  A name that never goes green has an
    unsatisfiable pair whose red mark occurs in no other, so dropping it
    keeps the language.  The result is the Moore-minimal quotient of the
    explored trees, deterministic and complete with initial state 0, also
    when `b` is partial: a run that dies leaves every label, and the tree
    with the empty label is the rejecting sink (see the module docstring).
    Labels below the root keep only live states.
    `state_cap` bounds the number of explored trees, not the returned size.
    """
    if b.acceptance == TRUE:
        b, mark = with_all_mark(b)
        b = b.with_acceptance(Inf(1 << mark), b.n_marks)
    accsets = gba_marksets(b.acceptance)
    if accsets is None or len(accsets) != 1:
        raise TelaError("Safra determinization needs Buchi acceptance")
    accbits = accsets[0]
    # post[letter][q]: the states q reaches on the letter, and those it
    # reaches through an accepting transition.
    post = post_masks(b, meet=accbits)
    live = accepting_scc_states(b.transitions, 0, accsets)

    # images[letter]: label bitmask -> its image pair on the letter,
    # filled as labels turn up; labels recur across the trees of one run.
    images: list[dict[int, tuple[int, int]]] = [{} for _ in post]

    def expand(tree: _Node, number):
        old = _name_mask(tree)
        for letter, row in enumerate(post):
            nxt, marks = _safra_step(tree, old, row, images[letter], live)
            yield letter, number(nxt), marks

    root = (0, sum(1 << q for q in b.initial), ())
    order, edges = explore([root], expand, state_cap, "determinization")
    seen = {marks for out in edges for _, _, marks in out}
    used = 0
    for marks in seen:
        used |= marks
    # Name kept[j] becomes name j; names that never go green are dropped.
    kept = [i // 2 for i in mark_indices(used) if i % 2 == 0]
    renamed = {
        marks: sum((marks >> (2 * n) & 3) << (2 * j) for j, n in enumerate(kept))
        for marks in seen
    }
    acceptance = or_(
        and_([fin_(1 << (2 * j + 1)), inf_(1 << (2 * j))]) for j in range(len(kept))
    )
    return bisim_quotient(
        Tela(
            ap=b.ap,
            n_states=len(order),
            initial=frozenset({0}),
            transitions=tuple(
                (src, letter, dst, renamed[marks])
                for src, out in enumerate(edges)
                for letter, dst, marks in out
            ),
            acceptance=acceptance,
            n_marks=2 * len(kept),
        )
    )


def _name_mask(node: _Node) -> int:
    """The names of a Safra tree as a bitmask."""
    mask = 1 << node[0]
    for child in node[2]:
        mask |= _name_mask(child)
    return mask


def _safra_step(
    tree: _Node, old: int, post, images: dict, live: int
) -> tuple[_Node, int]:
    """One deterministic Safra-tree transition on the letter for which post[q]
    holds q's successor and accepting-successor bitmasks: the successor tree
    and its green and red mark bits.  `old` is the bitmask of the tree's
    names.  `images` caches, per old label, its `image` in `post`.  Labels
    below the root keep only the states of `live`.  Names of the old tree
    missing from the new one are red.
    """
    new, marks, names, _ = _step(tree, -1, old, post, images, live)
    for r in mark_indices(old & ~names):
        marks |= 1 << (2 * r + 1)
    return new, marks


def _step(
    node: _Node, allowed: int, taken: int, post, images: dict, live: int
) -> tuple[_Node, int, int, int]:
    """Rewrite a Safra node in one post-order pass: the new node, its
    greens, the bitmask of the names it keeps, and `taken` updated, the
    names of the old tree and those given out so far in this step.

    The label becomes the image of the old label within `allowed`, the
    parent's new label minus what older siblings kept, and children left
    empty are dropped.  If the old label has accepting successors, the node
    then takes the smallest name not yet taken, so after all of its
    descendants, and spawns a youngest child labelled with the live
    accepting successors no child kept; the name stays taken even when that
    child comes out empty.  Children are handed only live states.  A node
    whose children cover its label drops them and their greens and is green
    itself.  Below the root every label is live already, so only the root
    can keep states that no child may take, and those keep it from going
    green.
    """
    name, label, children = node
    pair = images.get(label)
    if pair is None:
        pair = images[label] = image(post, label)
    img, acc = pair
    label = free = img & allowed
    kept = []
    greens = 0
    names = 1 << name
    for child in children:
        new, child_greens, child_names, taken = _step(
            child, free & live, taken, post, images, live
        )
        if new[1]:
            kept.append(new)
            greens |= child_greens
            names |= child_names
            free &= ~new[1]
    if acc:
        fresh = ~taken & (taken + 1)
        taken |= fresh
        spawn = acc & free & live
        if spawn:
            kept.append((fresh.bit_length() - 1, spawn, ()))
            names |= fresh
            free &= ~spawn
    if kept and not free:
        return (name, label, ()), 1 << (2 * name), 1 << name, taken
    return (name, label, tuple(kept)), greens, names, taken


def determinize_via_gba(
    a: Tela, method: str = "split_remfin", state_cap: int | None = None
) -> Tela:
    """Determinize by translating to generalized Buchi, then reducing,
    degeneralizing and running the Safra construction."""
    return _determinize_gba(to_gba(a, method), state_cap)


def _determinize_gba(g: Tela, state_cap: int | None = None) -> Tela:
    """Determinize a generalized-Buchi automaton: the one-state universal
    automaton when `_universal` finds a terminal part reached on every word;
    otherwise reduce it by direct simulation, degeneralize it and run the
    Safra construction, whose exploration `state_cap` bounds; a Safra output
    with no rejecting cycle is returned as the universal automaton too."""
    if _universal(g):
        return _universal_automaton(g.ap)
    d = safra_determinize(degeneralize(simulation_reduce(g)), state_cap)
    return _universal_automaton(g.ap) if _no_rejecting_cycle(d) else d


def _no_rejecting_cycle(d: Tela) -> bool:
    """Whether no cycle of d's edges violates d's acceptance, by one
    emptiness search on d's own edges.  A complete d that passes accepts
    every word; a deterministic d with every state reachable, as Safra's
    outputs and the union products are, that accepts every word passes
    (see the module docstring)."""
    return _witness(d.transitions, to_dnf(TRUE), to_dnf(d.acceptance)) is None


def _universal_automaton(ap: tuple[str, ...]) -> Tela:
    """A deterministic complete automaton accepting every word, as
    `safra_determinize` returns it for a one-state accepting loop: mark 0
    on every letter's self-loop and acceptance Fin(1) & Inf(0)."""
    return Tela(
        ap=ap,
        n_states=1,
        initial=frozenset({0}),
        transitions=tuple((0, letter, 0, 1) for letter in range(1 << len(ap))),
        acceptance=and_([fin_(2), inf_(1)]),
        n_marks=2,
    )


def _universal(g: Tela) -> bool:
    """Whether the generalized-Buchi automaton g passes the terminal-part
    test of the module docstring, and so accepts every word: some initial
    state lies in U.  False on acceptance that is not generalized Buchi.

    S comes first, from the transitions whose marks meet every set alone:
    on most GBAs the test misses, S is empty, and the pass over all
    transitions that U needs is skipped."""
    sets = gba_marksets(g.acceptance)
    if sets is None:
        return False
    every = {m for m in {t[3] for t in g.transitions} if all(m & s for s in sets)}
    rows = _letter_rows([t for t in g.transitions if t[3] in every], g.n_letters)
    # S, the greatest fixpoint: drop states until each has, on every letter,
    # a transition meeting every set into S.
    terminal = 0
    for q, _ in rows:
        terminal |= 1 << q
    shrunk = True
    while shrunk:
        shrunk = False
        for q, row in rows:
            if terminal >> q & 1 and not all(d & terminal for d in row):
                terminal ^= 1 << q
                shrunk = True
    initial = 0
    for q in g.initial:
        initial |= 1 << q
    if not terminal or terminal & initial:
        return terminal != 0
    # U, the least fixpoint above S, grown until it holds an initial state.
    rows = _letter_rows(g.transitions, g.n_letters)
    reach = terminal
    grown = True
    while grown and not reach & initial:
        grown = False
        for q, row in rows:
            if not reach >> q & 1 and all(d & reach for d in row):
                reach |= 1 << q
                grown = True
    return reach & initial != 0


def _letter_rows(transitions, n_letters: int) -> list[tuple[int, list[int]]]:
    """(q, the bitmask of q's targets on each letter) for every state q of
    `transitions` that has a transition on every letter, in one pass."""
    post: list[dict[int, int]] = [{} for _ in range(n_letters)]
    for s, letter, d, _ in transitions:
        row = post[letter]
        row[s] = row.get(s, 0) | 1 << d
    return [
        (q, [row[q] for row in post])
        for q in post[0]
        if all(q in row for row in post)
    ]


def determinize_by(a: Tela, method: str, state_cap: int | None = None) -> Tela:
    """Determinize with a method named in DET_METHODS."""
    if method not in DET_METHODS:
        raise TelaError(f"unknown determinization method {method!r}")
    gba_method = method.removeprefix("via-gba:")
    if gba_method != method:
        return determinize_via_gba(a, gba_method, state_cap)
    return determinize_product(a, method == "product", state_cap)


def determinize_product(
    a: Tela, langcover: bool = True, state_cap: int | None = None
) -> Tela:
    """Determinize a TELA by determinizing each DNF disjunct on its own and
    folding the parts together with the union product.

    With langcover enabled, a part whose language is contained in the union
    built so far is skipped.  Once the union accepts every word, it is
    returned as the one-state universal automaton, and the remaining
    disjuncts are not determinized.
    """
    universal = _universal_automaton(a.ap)
    acc: Tela | None = None
    for det in disjunct_determinizations(a, state_cap):
        if det == universal:
            return universal
        if acc is None:
            acc = det
        elif langcover and contains(acc, det):
            continue
        else:
            if state_cap is not None and acc.n_states * det.n_states > state_cap:
                raise BudgetExceeded(
                    f"union product of {acc.n_states} x {det.n_states} states"
                    f" would pass the cap {state_cap}",
                    "states",
                )
            acc = product(acc, det, "or")
            if _no_rejecting_cycle(acc):
                return universal
    return empty_language_automaton(a.ap) if acc is None else acc


def disjunct_determinizations(a: Tela, state_cap: int | None = None):
    """Deterministic automata, one per DNF disjunct of a's acceptance, whose
    languages together make up a's; each is built by Fin-removal, simulation
    reduction, degeneralization and Safra only when the previous one has
    been taken."""
    a = ensure_dnf(a)
    for disjunct in dnf_structure(a.acceptance).disjuncts:
        part = a.with_acceptance(disjunct_formula(disjunct), a.n_marks)
        yield _determinize_gba(remove_fin(part), state_cap)


def contains(p: Tela, d: Tela) -> bool:
    """Whether the deterministic automaton p's language contains d's.

    Explores the pairs of d and p from the initial pair, as `accepts` does,
    numbered by the int key qd * |p| + qp, and searches their edges for a
    cycle that satisfies d's acceptance and violates p's, keeping the two
    conditions as separate DNFs rather than rewriting the conjunction of d's
    with the complement of p's.  No product automaton is built: the pairs
    are reachable by construction, so the search skips the reachability
    walk.
    """
    _require_same_ap(d, p)
    for label, x in (("container", p), ("contained", d)):
        if not is_deterministic(x) or not is_complete(x):
            raise TelaError(f"containment needs a deterministic complete {label}")
    width = p.n_states
    off = d.n_marks
    d_index = d.index
    p_index = p.index
    letters = range(d.n_letters)

    def expand(key: int, number):
        qd, qp = divmod(key, width)
        for letter in letters:
            _, _, td, md = d_index[qd, letter][0]
            _, _, tp, mp = p_index[qp, letter][0]
            yield letter, number(td * width + tp), md | (mp << off)

    (qd,), (qp,) = d.initial, p.initial
    _, edges = explore([qd * width + qp], expand)
    pos = to_dnf(d.acceptance)
    neg = offset_dnf(to_dnf(p.acceptance), off)
    return _witness(flatten_edges(edges), pos, neg) is None


def equivalent_deterministic(a: Tela, b: Tela) -> bool:
    """Language equality of two deterministic complete automata."""
    return contains(a, b) and contains(b, a)
