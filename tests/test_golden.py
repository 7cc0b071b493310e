"""Byte-level pin of every construction's output.

One SHA-256 covers the printed HOA of every determinization method (under a
100-state cap), every GBA translation, the three limit-deterministic
constructions and the maximal probability from pr_max_tela, over seeded
random automata with one atomic proposition.  A second one covers larger
Safra trees (cap 2000) and both Fin-removals with and without pruning over
two atomic propositions.  A change that must keep outputs identical keeps the
digests; a deliberate output change updates the constant and says why.
"""

import hashlib
import random

from tela import (
    BudgetExceeded,
    build_gfm,
    build_ld,
    determinize_product,
    determinize_via_gba,
    ensure_dnf,
    limit_det_sum,
    pr_max_tela,
    print_hoa,
    random_tela,
    remove_fin,
    remove_fin_gba,
    to_gba,
)
from tela.randbench import DET_METHODS
from tela.transforms import GBA_METHODS

from helpers import random_mdp

GOLDEN = "072b75640fae5bdbead4e031eb082710d5a44f479ad81de749d43b4c1e6b2f8c"
GOLDEN_2AP = "0ef116b1b1a76ac75be1d07e9ba5e2daacf2643d5b100b0c242a0ff017dabe7c"


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
        for prune in (True, False):
            yield f"{remove.__name__} {prune}", print_hoa(remove(a, prune))


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
