"""Byte-level pin of every construction's output.

One SHA-256 covers the printed HOA of every determinization method (under a
100-state cap), every GBA translation, the three limit-deterministic
constructions and the maximal probability from pr_max_tela, over seeded
random automata with one atomic proposition.  A second one covers larger
Safra trees (cap 2000) and both Fin-removals with and without pruning over
two atomic propositions.  A third one pins witnesses: the accepting lassos,
lasso-word verdicts and containment witnesses on determinization-workload
inputs and their determinizations.  A fourth one pins the MDP products of
the model-checking side: states, actions and maximal end components, with
the completed good-for-MDP automaton; a fifth one pins the same over its
bisimulation quotient, the product that pr_max_tela builds.  A change that
must keep outputs identical keeps the digests; a deliberate output change
updates the constant and says why.
"""

import hashlib
import random
from fractions import Fraction

from tela import (
    BudgetExceeded,
    accepting_lasso,
    accepts,
    build_gfm,
    build_ld,
    determinize_product,
    determinize_via_gba,
    ensure_dnf,
    limit_det_sum,
    mdp_product,
    parse_mdp,
    pr_max_tela,
    print_hoa,
    random_tela,
    remove_fin,
    remove_fin_gba,
    sample_lassos,
    to_dnf,
    to_gba,
)
from tela.acceptance import offset_dnf
from tela.analysis import dnf_witness
from tela.core import bisim_quotient, complete, product
from tela.mdp import _explore_product
from tela.randbench import DET_METHODS
from tela.transforms import GBA_METHODS

from helpers import mec_decomposition, random_mdp

GOLDEN = "b256b18468e4a476319480529e054589f9abed72bdca8037248b5681186021de"
GOLDEN_2AP = "1a84a7cc4f7c37c5658f6c902b6ad3c9740258a05b8e0ff8898ccafc2333cedf"
GOLDEN_WITNESS = "cc47ce5f7afc78f2ec53c966917ef8b7297b5fd3cada65fdf0247dec6d86c824"
GOLDEN_PRODUCT = "39c6a81dc05e1574fe512833bf81fc7ebcfae433992b274f9a7aabfc36e6cb5a"
GOLDEN_QUOTIENT_PRODUCT = (
    "f867a376ee18107b9694d8875777ee719eea48c359e50085f18a17c8660988eb"
)


def _determinize(a, method):
    if method.startswith("via-gba:"):
        return determinize_via_gba(a, method.removeprefix("via-gba:"), 100)
    return determinize_product(a, method == "product", 100)


def _outputs(a, m):
    for method in DET_METHODS:
        try:
            yield method, print_hoa(_determinize(a, method))
        except BudgetExceeded as exc:
            yield method, f"budget {exc.kind}"
    for method in GBA_METHODS:
        yield method, print_hoa(to_gba(a, method))
    yield "sum", print_hoa(limit_det_sum(a))
    yield "ld", print_hoa(build_ld(ensure_dnf(a)))
    yield "gfm", print_hoa(build_gfm(ensure_dnf(a)))
    yield "pr_max", f"{pr_max_tela(m, a):.12f}"


def test_outputs_match_the_recorded_digest():
    digest = hashlib.sha256()
    # Small inputs: limit_det_sum runs Safra without a state cap.
    for seed in range(8):
        dnf = seed % 4 == 3
        a = random_tela(
            n_states=4,
            n_marks=4 if dnf else 2 + seed % 3,
            edge_density=0.3,
            mark_prob=0.3,
            acc="dnf" if dnf else "random-el",
            seed=seed,
            n_ap=1,
        )
        m = random_mdp(random.Random(seed), max_states=3, atoms=a.ap)
        for name, text in _outputs(a, m):
            digest.update(f"{seed} {name}\n{text}\n".encode())
    assert digest.hexdigest() == GOLDEN


def _two_ap_outputs(a):
    for method in GBA_METHODS:
        try:
            yield method, print_hoa(determinize_via_gba(a, method, 2000))
        except BudgetExceeded as exc:
            yield method, f"budget {exc.kind}"
    a = ensure_dnf(a)
    for remove in (remove_fin, remove_fin_gba):
        # " True" is the pruning flag these labels carried when pruning was
        # optional; it stays so the digest keeps its history.
        yield f"{remove.__name__} True", print_hoa(remove(a))


def test_two_ap_outputs_match_the_recorded_digest():
    digest = hashlib.sha256()
    for seed in range(6):
        dnf = seed % 4 == 3
        a = random_tela(
            n_states=4,
            n_marks=4 if dnf else 2 + seed % 3,
            edge_density=0.2,
            mark_prob=0.3,
            acc="dnf" if dnf else "random-el",
            seed=seed,
            n_ap=2,
        )
        for name, text in _two_ap_outputs(a):
            digest.update(f"{seed} {name}\n{text}\n".encode())
    assert digest.hexdigest() == GOLDEN_2AP


def _containment_witness(p, d):
    """The witness `contains(p, d)` searches for, or None when it holds."""
    prod = product(d, p, "and")
    neg = offset_dnf(to_dnf(p.acceptance), d.n_marks)
    return dnf_witness(prod.transitions, prod.initial, to_dnf(d.acceptance), neg)


def _witness_results(a, outputs, words, earlier):
    """Lassos and word verdicts of `a` and its determinizations `outputs`,
    and the containment witnesses of each output against the first one and
    of the first one against the first outputs of `earlier` inputs.  Those
    last checks often fail, so their witnesses are pinned too."""
    for name, x in (("input", a), *outputs):
        yield f"{name} lasso", accepting_lasso(x)
        yield f"{name} words", [accepts(x, u, v) for u, v in words]
    if not outputs:
        return
    first = outputs[0][1]
    for name, x in outputs[1:]:
        yield f"{name} in first", _containment_witness(first, x)
        yield f"first in {name}", _containment_witness(x, first)
    for j, other in enumerate(earlier):
        yield f"{j} in first", _containment_witness(first, other)
        yield f"first in {j}", _containment_witness(other, first)


def test_witnesses_match_the_recorded_digest():
    # Inputs drawn like the determinization benchmark's (four states, three
    # marks, random Emerson-Lei acceptance, one atomic proposition), half of
    # them sparser so that their languages are seldom universal.
    digest = hashlib.sha256()
    rng = random.Random(3)
    earlier = []
    for i in range(16):
        sparse = i % 2 == 1
        a = random_tela(
            n_states=4,
            n_marks=3,
            edge_density=0.4 if sparse else 3 / 4,
            mark_prob=0.3 if sparse else 0.2,
            acc="random-el",
            seed=rng.randrange(2**32),
            n_ap=1,
        )
        outputs = []
        for method in DET_METHODS:
            try:
                outputs.append((method, _determinize(a, method)))
            except BudgetExceeded as exc:
                digest.update(f"{i} {method} budget {exc.kind}\n".encode())
        words = sample_lassos(a, 6, i)
        for name, result in _witness_results(a, outputs, words, earlier):
            digest.update(f"{i} {name}\n{result!r}\n".encode())
        if outputs:
            earlier.append(outputs[0][1])
    assert digest.hexdigest() == GOLDEN_WITNESS


def _even_mdp(rng, n_states, ap):
    """An MDP like the model-checking benchmark's: 1-2 actions per state,
    each going to 1-3 distinct successors with equal probability."""
    lines = [f"states {n_states}", "initial 0"]
    for s in range(n_states):
        label = ",".join(x for x in ap if rng.random() < 0.5)
        lines.append(f"label {s} {{{label}}}")
    for s in range(n_states):
        for act in range(rng.randint(1, 2)):
            targets = rng.sample(range(n_states), rng.randint(1, 3))
            for t in targets:
                lines.append(f"trans {s} a{act} {t} {Fraction(1, len(targets))}")
    return parse_mdp("\n".join(lines) + "\n")


def _product_rows(prod):
    """An MDP product's states and actions, and its maximal end components."""
    yield "states", (prod.states, prod.initial)
    for s, acts in enumerate(prod.actions):
        yield f"actions {s}", [(act.name, act.marks, act.dist) for act in acts]
    for mec in mec_decomposition(prod):
        yield "mec", (sorted(mec.states), sorted(mec.actions.items()))


def _product_results(m, a):
    """The product with the completed GFM automaton, and the state order of
    the product with the breakpoint construction."""
    a = ensure_dnf(a)
    yield from _product_rows(mdp_product(m, complete(build_gfm(a))))
    yield "ld order", _explore_product(m, build_ld(a))[0]


def _quotient_product_results(m, a):
    """The product with the GFM automaton's bisimulation quotient, which
    stays partial, as pr_max_tela multiplies it."""
    return _product_rows(mdp_product(m, bisim_quotient(build_gfm(ensure_dnf(a)))))


def _product_digest(results) -> str:
    digest = hashlib.sha256()
    rng = random.Random(9)
    for i in range(24):
        a = random_tela(
            n_states=4,
            n_marks=2,
            edge_density=9 / 10,
            mark_prob=0.2,
            acc="random-el",
            seed=rng.randrange(2**32),
            n_ap=1,
        )
        m = _even_mdp(rng, 6, a.ap)
        for name, result in results(m, a):
            digest.update(f"{i} {name}\n{result!r}\n".encode())
    return digest.hexdigest()


def test_products_match_the_recorded_digest():
    assert _product_digest(_product_results) == GOLDEN_PRODUCT


def test_quotient_products_match_the_recorded_digest():
    assert _product_digest(_quotient_product_results) == GOLDEN_QUOTIENT_PRODUCT
