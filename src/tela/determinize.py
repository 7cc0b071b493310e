"""Determinization: degeneralization, a transition-based Safra construction,
and a product-of-deterministic-parts route for DNF acceptance.

The Safra construction tracks ordered trees of named, state-set-labelled
nodes.  A node spawns a youngest child holding the accepting image of its
old label, younger siblings give up states claimed by older ones, nodes with
empty label disappear, and a node whose children jointly cover it deletes
the children and emits a green mark for its name.  A name emits red when it
vanishes.  The result is deterministic with Rabin acceptance: some name is
eventually never red and infinitely often green.

disjunct_determinizations determinizes each DNF disjunct separately via
Fin-removal, degeneralization and Safra; determinize_product combines the
parts with the union product, skipping parts whose language is already
covered.
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
    offset_dnf,
    or_,
    to_dnf,
)
from .analysis import dnf_witness
from .core import (
    BudgetExceeded,
    Tela,
    TelaError,
    complement_deterministic,
    complete,
    empty_language_automaton,
    explore,
    flatten_edges,
    is_complete,
    is_deterministic,
    product,
    with_all_mark,
)
from .transforms import GBA_METHODS, ensure_dnf, remove_fin, to_gba

DET_METHODS = tuple(f"via-gba:{m}" for m in GBA_METHODS) + (
    "product",
    "product-nolangcover",
)


def degeneralize(g: Tela) -> Tela:
    """Turn a generalized-Buchi TELA into a Buchi one with a counter.

    States are pairs of an original state and a level in 0..k-1; level j
    waits for acceptance set j and advances when it appears, and the single
    output mark goes on transitions that wrap from level k-1 back to 0.
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

    def expand(state, number):
        q, level = state
        for letter in range(g.n_letters):
            for _, _, dst, marks in g.succ(q, letter):
                if marks & sets[level]:
                    nxt = (level + 1) % k
                    mark = 1 if nxt == 0 else 0
                else:
                    nxt, mark = level, 0
                yield letter, number((dst, nxt)), mark

    order, edges = explore([(q, 0) for q in sorted(g.initial)], expand)
    return Tela(
        ap=g.ap,
        n_states=len(order),
        initial=frozenset(range(len(g.initial))),
        transitions=flatten_edges(edges),
        acceptance=Inf(1),
        n_marks=1,
    )


_Node = tuple[int, tuple[int, ...], tuple]  # name, label, children


def safra_determinize(
    b: Tela, state_cap: int | None = None, deadline: float | None = None
) -> Tela:
    """Determinize a Buchi TELA into a Rabin one via Safra trees.

    Output marks come in pairs per tree-node name n: 2n green (node n
    stabilized this step), 2n+1 red (node n was removed).  The acceptance
    condition is the disjunction over names of Fin(red) and Inf(green).
    """
    if b.acceptance == TRUE:
        b, mark = with_all_mark(b)
        b = b.with_acceptance(Inf(1 << mark), b.n_marks)
    accsets = gba_marksets(b.acceptance)
    if accsets is None or len(accsets) != 1:
        raise TelaError("Safra determinization needs Buchi acceptance")
    accbits = accsets[0]
    b = complete(b)

    succ = b.succ
    n_letters = b.n_letters

    def images(label: tuple[int, ...], letter: int) -> tuple[set[int], set[int]]:
        img: set[int] = set()
        acc_img: set[int] = set()
        for q in label:
            for _, _, dst, marks in succ(q, letter):
                img.add(dst)
                if marks & accbits:
                    acc_img.add(dst)
        return img, acc_img

    max_name = 0

    def expand(tree: _Node, number):
        nonlocal max_name
        for letter in range(n_letters):
            nxt, marks, top = _safra_step(tree, letter, images)
            max_name = max(max_name, top)
            yield letter, number(nxt), marks

    root = (0, tuple(sorted(b.initial)), ())
    order, edges = explore([root], expand, state_cap, deadline, "determinization")
    names = max_name + 1
    acceptance = or_(
        and_([fin_(1 << (2 * n + 1)), inf_(1 << (2 * n))]) for n in range(names)
    )
    return Tela(
        ap=b.ap,
        n_states=len(order),
        initial=frozenset({0}),
        transitions=flatten_edges(edges),
        acceptance=acceptance,
        n_marks=2 * names,
    )


def _safra_step(tree: _Node, letter: int, images) -> tuple[_Node, int, int]:
    """One deterministic Safra-tree transition.

    Returns the successor tree, the mark bits (greens and reds), and the
    largest name mentioned in either tree.
    """
    old_names: set[int] = set()

    def collect(node: _Node) -> None:
        old_names.add(node[0])
        for c in node[2]:
            collect(c)

    collect(tree)
    used = set(old_names)

    def build(node: _Node) -> list:
        name, label, children = node
        img, acc_img = images(label, letter)
        new_children = [build(c) for c in children]
        if acc_img:
            fresh = 0
            while fresh in used:
                fresh += 1
            used.add(fresh)
            new_children.append([fresh, set(acc_img), []])
        return [name, img, new_children]

    root = build(tree)

    def restrict(node: list, allowed: set[int]) -> None:
        node[1] &= allowed
        for c in node[2]:
            restrict(c, node[1])

    def horizontal(node: list) -> None:
        seen: set[int] = set()
        for c in node[2]:
            c[1] -= seen
            seen |= c[1]
            restrict(c, c[1])
            horizontal(c)

    horizontal(root)

    def prune(node: list) -> None:
        node[2] = [c for c in node[2] if c[1]]
        for c in node[2]:
            prune(c)

    prune(root)

    greens: list[int] = []

    def vertical(node: list) -> None:
        covered: set[int] = set()
        for c in node[2]:
            covered |= c[1]
        if node[2] and covered == node[1]:
            greens.append(node[0])
            node[2] = []
        else:
            for c in node[2]:
                vertical(c)

    survivors: set[int] = set()

    def freeze(node: list) -> _Node:
        survivors.add(node[0])
        return (node[0], tuple(sorted(node[1])), tuple(freeze(c) for c in node[2]))

    if root[1]:
        vertical(root)
        frozen = freeze(root)
    else:
        frozen = (tree[0], (), ())
        survivors.add(tree[0])
    marks = 0
    for g in greens:
        marks |= 1 << (2 * g)
    for r in old_names - survivors:
        marks |= 1 << (2 * r + 1)
    top = max(max(old_names), max(survivors), *(greens or (0,)))
    return frozen, marks, top


def determinize_via_gba(
    a: Tela, method: str = "split_remfin", state_cap: int | None = None,
    deadline: float | None = None,
) -> Tela:
    """Determinize by translating to generalized Buchi, degeneralizing and
    running the Safra construction."""
    return safra_determinize(degeneralize(to_gba(a, method)), state_cap, deadline)


def determinize_by(
    a: Tela, method: str, state_cap: int | None = None, deadline: float | None = None
) -> Tela:
    """Determinize with a method named in DET_METHODS."""
    if method not in DET_METHODS:
        raise TelaError(f"unknown determinization method {method!r}")
    gba_method = method.removeprefix("via-gba:")
    if gba_method != method:
        return determinize_via_gba(a, gba_method, state_cap, deadline)
    return determinize_product(a, method == "product", state_cap, deadline)


def determinize_product(
    a: Tela,
    langcover: bool = True,
    state_cap: int | None = None,
    deadline: float | None = None,
) -> Tela:
    """Determinize a TELA by determinizing each DNF disjunct on its own and
    folding the parts together with the union product.

    With langcover enabled, a part whose language is contained in the union
    built so far is skipped.
    """
    acc: Tela | None = None
    for det in disjunct_determinizations(a, state_cap, deadline):
        if acc is None:
            acc = det
        elif langcover and contains(acc, det):
            continue
        else:
            if state_cap is not None and acc.n_states * det.n_states > state_cap:
                raise BudgetExceeded(
                    f"union product exceeded {state_cap} states", "states"
                )
            acc = product(acc, det, "or")
    return empty_language_automaton(a.ap) if acc is None else acc


def disjunct_determinizations(
    a: Tela, state_cap: int | None = None, deadline: float | None = None
):
    """Deterministic automata, one per DNF disjunct of a's acceptance, whose
    languages together make up a's; each is built by Fin-removal,
    degeneralization and Safra only when the previous one has been taken."""
    a = ensure_dnf(a)
    for disjunct in dnf_structure(a.acceptance).disjuncts:
        part = a.with_acceptance(disjunct_formula(disjunct), a.n_marks)
        yield safra_determinize(degeneralize(remove_fin(part)), state_cap, deadline)


def contains(p: Tela, d: Tela) -> bool:
    """Whether the deterministic automaton p's language contains d's.

    Checks emptiness of the product of d with the complement of p, keeping
    the two acceptance conditions as separate DNFs rather than rewriting
    their conjunction.
    """
    for label, x in (("container", p), ("contained", d)):
        if not is_deterministic(x) or not is_complete(x):
            raise TelaError(f"containment needs a deterministic complete {label}")
    prod = product(d, complement_deterministic(p), "and")
    pos = to_dnf(d.acceptance)
    neg = offset_dnf(to_dnf(p.acceptance), d.n_marks)
    return dnf_witness(prod.transitions, prod.initial, pos, neg) is None


def equivalent_deterministic(a: Tela, b: Tela) -> bool:
    """Language equality of two deterministic complete automata."""
    return contains(a, b) and contains(b, a)
