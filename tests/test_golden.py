"""Byte-level pin of every construction's output.

One SHA-256 covers the printed HOA of every determinization method (under a
100-state cap), every GBA translation, the three limit-deterministic
constructions and the maximal probability from pr_max_tela, over seeded
random automata.  A change that must keep outputs identical keeps the
digest; a deliberate output change updates the constant and says why.
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
    to_gba,
)
from tela.randbench import DET_METHODS
from tela.transforms import GBA_METHODS

from helpers import random_mdp

GOLDEN = "072b75640fae5bdbead4e031eb082710d5a44f479ad81de749d43b4c1e6b2f8c"


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
