"""Tests for degeneralization, Safra determinization, and containment."""

import random
import time
from dataclasses import replace

import pytest

from tela import (
    BudgetExceeded,
    TRUE,
    Tela,
    TelaError,
    accepts,
    and_,
    complement_deterministic,
    contains,
    degeneralize,
    determinize_product,
    determinize_via_gba,
    equivalent_deterministic,
    fin_,
    inf_,
    is_complete,
    is_deterministic,
    is_empty,
    or_,
    parse_hoa,
    product,
    random_tela,
    safra_determinize,
    sample_lassos,
    time_limit,
    to_dnf,
)
from tela import determinize as determinize_module
from tela.determinize import DET_METHODS, determinize_by, empty_language_automaton
from tela.randbench import cnf_blowup_automaton
from tela.transforms import GBA_METHODS, ensure_dnf, to_gba

from helpers import random_automaton
from oracles import (
    oracle_accepts,
    oracle_bisimulation,
    oracle_empty,
    oracle_live_states,
    oracle_safra_step,
    random_word,
)


def universal_buchi():
    return Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 1), (0, 1, 0, 1)),
        acceptance=inf_(1),
        n_marks=1,
    )


def finitely_many_a_nba():
    """Guess the point after which the letter a never occurs again."""
    return Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 1, 1)),
        acceptance=inf_(1),
        n_marks=1,
    )


def with_parallel_transitions(rng, a, extra=3):
    """a plus one to `extra` transitions that copy one of its transitions
    with one mark flipped."""
    transitions = list(a.transitions)
    for _ in range(rng.randint(1, extra)):
        s, letter, d, marks = rng.choice(transitions)
        transitions.append((s, letter, d, marks ^ (1 << rng.randrange(a.n_marks))))
    return replace(a, transitions=tuple(dict.fromkeys(transitions)))


def random_buchi(rng, **kw):
    a = random_automaton(rng, n_marks=1, **kw)
    return a.with_acceptance(inf_(1), 1)


def test_degeneralize_requires_generalized_buchi():
    with pytest.raises(TelaError):
        degeneralize(universal_buchi().with_acceptance(fin_(1), 1))


def test_degeneralize_state_bound_and_acceptance():
    g = Tela(
        ap=("a",),
        n_states=3,
        initial=frozenset({0}),
        transitions=tuple(
            (q, letter, (q + 1) % 3, (q == 0) * 1 | (q == 1) * 2)
            for q in range(3)
            for letter in range(2)
        ),
        acceptance=and_([inf_(1), inf_(2)]),
        n_marks=2,
    )
    b = degeneralize(g)
    assert b.acceptance == inf_(1)
    assert b.n_marks == 1
    assert b.n_states <= g.n_states * 2


def test_degeneralize_preserves_language():
    rng = random.Random(440)
    for _ in range(15):
        a = random_automaton(rng, n_marks=2, ap=("a",)).with_acceptance(
            and_([inf_(1), inf_(2)]), 2
        )
        b = degeneralize(a)
        assert b.n_states <= a.n_states * 2
        for _ in range(10):
            u, v = random_word(rng, 2)
            assert accepts(b, u, v) == accepts(a, u, v)
    # A Buchi input keeps its state count budget of one level.
    one = degeneralize(universal_buchi())
    assert one.n_states == 1


def test_degeneralize_true_acceptance():
    a = universal_buchi().with_acceptance(TRUE, 1)
    b = degeneralize(a)
    assert b.acceptance == inf_(1)
    assert accepts(b, (), (0,)) and accepts(b, (), (1,))


def three_set_gba(transitions, n_states):
    """A GBA on one letter whose acceptance asks for sets 0, 1 and 2."""
    return Tela(
        ap=(),
        n_states=n_states,
        initial=frozenset({0}),
        transitions=transitions,
        acceptance=and_([inf_(1), inf_(2), inf_(4)]),
        n_marks=3,
    )


def test_degeneralize_skips_every_level_a_transition_carries():
    """From level 0, a transition carrying sets 0 and 1 lands on level 2;
    one carrying set 2 there wraps with the mark back to level 0.  States
    are numbered as found: 0 is (q0, level 0) and 1 is (q1, level 2)."""
    g = three_set_gba(((0, 0, 1, 0b011), (1, 0, 1, 0), (1, 0, 0, 0b100)), 2)
    b = degeneralize(g)
    assert b.n_states == 2
    assert set(b.transitions) == {(0, 0, 1, 0), (1, 0, 1, 0), (1, 0, 0, 1)}


def test_degeneralize_wraps_once_on_a_transition_carrying_every_set():
    """A loop carrying all three sets takes the mark once and skips again
    from level 0, stopping at level 2 rather than wrapping a second time;
    from level 2 it marks and lands on level 2 again."""
    b = degeneralize(three_set_gba(((0, 0, 0, 0b111),), 1))
    assert b.n_states == 2
    assert set(b.transitions) == {(0, 0, 1, 1), (1, 0, 1, 1)}


def test_degeneralize_with_several_sets_per_transition_keeps_the_language():
    rng = random.Random(447)
    checked = skipped = 0
    verdicts = set()
    for _ in range(40):
        g = random_automaton(rng, n_marks=3, mark_prob=0.6, ap=("a",))
        g = g.with_acceptance(and_([inf_(1), inf_(2), inf_(4)]), 3)
        skipped += any(t[3].bit_count() > 1 for t in g.transitions)
        b = degeneralize(g)
        words = [random_word(rng, 2) for _ in range(10)]
        words += sample_lassos(g, 10, seed=rng.randrange(10**6))
        for u, v in words:
            verdict = oracle_accepts(g, u, v)
            assert accepts(b, u, v) == verdict, (g, u, v)
            verdicts.add(verdict)
            checked += 1
    assert skipped > 30 and checked > 500 and verdicts == {True, False}


def test_safra_requires_buchi():
    with pytest.raises(TelaError):
        safra_determinize(universal_buchi().with_acceptance(fin_(1), 1))
    with pytest.raises(TelaError):
        safra_determinize(
            universal_buchi().with_acceptance(and_([inf_(1), inf_(1)]), 1)
        )


def test_safra_on_deterministic_buchi_stays_small():
    d = safra_determinize(universal_buchi())
    assert d.n_states == 1
    assert is_deterministic(d) and is_complete(d)
    assert accepts(d, (), (0,)) and accepts(d, (), (1,))


def test_safra_classic_nba():
    nba = finitely_many_a_nba()
    assert accepts(nba, (), (0,))
    assert not accepts(nba, (), (1,))
    assert not accepts(nba, (), (1, 0))
    det = safra_determinize(nba)
    assert is_deterministic(det) and is_complete(det)
    assert accepts(det, (), (0,))
    assert not accepts(det, (), (1,))
    assert not accepts(det, (), (1, 0))
    assert accepts(det, (1, 1), (0,))


def test_safra_accepts_true_acceptance():
    always = universal_buchi().with_acceptance(TRUE, 1)
    det = safra_determinize(always)
    assert is_deterministic(det)
    assert accepts(det, (), (0,)) and accepts(det, (), (1,))


def test_safra_preserves_language():
    rng = random.Random(441)
    for _ in range(25):
        nba = random_buchi(rng, ap=("a",))
        det = safra_determinize(nba)
        assert is_deterministic(det) and is_complete(det)
        for u, v in sample_lassos(nba, 10, seed=rng.randrange(10**6)):
            assert accepts(det, u, v) == accepts(nba, u, v)
            assert accepts(det, u, v) == oracle_accepts(nba, u, v)


def test_safra_steps_match_the_set_based_oracle(monkeypatch):
    """Every (tree, letter) step that safra_determinize takes gives the tree
    and marks of the set-based step, `old` holds the tree's names, and
    `live` the states on an accepting cycle, by the oracle's own search.
    Many steps differ from the step with every state live."""
    step = determinize_module._safra_step
    checked = restricted = 0
    live_states = None

    def checked_step(tree, old, post, images, live):
        nonlocal checked, restricted
        assert old == determinize_module._name_mask(tree)
        assert live == live_states
        got = step(tree, old, post, images, live)
        assert got == oracle_safra_step(tree, post, live)
        restricted += got != oracle_safra_step(tree, post)
        checked += 1
        return got

    monkeypatch.setattr(determinize_module, "_safra_step", checked_step)
    rng = random.Random(446)
    for i in range(200):
        nba = random_buchi(rng, max_states=5, n_ap=1 + i % 2)
        live_states = oracle_live_states(nba, 1)
        try:
            safra_determinize(nba, state_cap=300)
        except BudgetExceeded:
            pass
    assert checked > 10000
    assert restricted > 1000


# Input 132 of perfbench's det workload at random.Random(3).  If the root's
# cover test ignored the states on no accepting cycle, every method's output
# would accept WITNESS, which the input rejects.
ROOT_COVER_INPUT = """\
HOA: v1
States: 4
Start: 0
AP: 1 "a"
Acceptance: 3 Fin(0) & (Inf(2) | Inf(2) & (Fin(1) | Fin(1)))
--BODY--
State: 0
[!0] 0
[!0] 1 {2}
[!0] 3 {0 1}
[0] 0
[0] 1 {2}
[0] 2 {0}
State: 1
[!0] 3 {0}
[0] 1
State: 2
[!0] 1
[!0] 2
[!0] 3 {0}
[0] 0
[0] 1 {2}
[0] 2
State: 3
[!0] 1 {2}
[!0] 2
[!0] 3 {0}
[0] 1 {0}
[0] 3 {2}
--END--
"""
WITNESS = ((0,), (1, 0))


def test_safra_root_goes_green_only_when_its_whole_label_is_covered():
    """Live child labels must leave the root's cover test whole: on this
    input every method gives the input's verdicts, on WITNESS too."""
    a = parse_hoa(ROOT_COVER_INPUT)
    words = [WITNESS] + sample_lassos(a, 20, seed=132)
    verdicts = [oracle_accepts(a, u, v) for u, v in words]
    assert not verdicts[0] and True in verdicts
    for method in DET_METHODS:
        d = determinize_by(a, method, state_cap=100)
        assert [accepts(d, u, v) for u, v in words] == verdicts, method


def _inf_marks(d):
    """The marks of the Inf atoms of d's acceptance."""
    bits = 0
    for disjunct in to_dnf(d.acceptance).disjuncts:
        for s in disjunct.infs:
            bits |= s
    return bits


def test_safra_outputs_are_minimal_and_every_green_occurs(monkeypatch):
    """Every Safra result, including the parts of the product methods, and
    every via-gba output has one class per state in the oracle's largest
    bisimulation, so it is Moore-minimal.  In every Safra result and every
    output of every method each declared Inf mark occurs on a transition,
    and the membership oracle gives the input's verdicts on sampled words."""
    safra = determinize_module.safra_determinize
    results = []

    def recording(*args, **kwargs):
        d = safra(*args, **kwargs)
        results.append(d)
        return d

    monkeypatch.setattr(determinize_module, "safra_determinize", recording)
    outputs = 0
    for seed in range(32):
        dnf = seed % 4 == 3
        a = random_tela(
            n_states=4,
            n_marks=4 if dnf else 2 + seed % 3,
            edge_density=0.2,
            mark_prob=0.3,
            acc="dnf" if dnf else "random-el",
            seed=seed,
            n_ap=1 + seed % 2,
        )
        words = sample_lassos(a, 3, seed)
        verdicts = [oracle_accepts(a, u, v) for u, v in words]
        for method in DET_METHODS:
            results.clear()
            try:
                d = determinize_by(a, method, state_cap=100)
            except BudgetExceeded:
                continue
            outputs += 1
            minimal = list(results)
            if method.startswith("via-gba:"):
                minimal.append(d)
            for x in minimal:
                assert len(oracle_bisimulation(x)) == x.n_states, method
            for x in results + [d]:
                used = 0
                for t in x.transitions:
                    used |= t[3]
                assert not _inf_marks(x) & ~used, method
            assert [oracle_accepts(d, u, v) for u, v in words] == verdicts, method
    assert outputs > 90


def nth_letter_back_nba(n: int) -> Tela:
    """Infinitely often a letter a with n - 1 letters after it; Safra
    explores some 2^(n/2) trees on it."""
    transitions = [(0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0)]
    for q in range(1, n):
        transitions += [(q, 0, q + 1, 0), (q, 1, q + 1, 0)]
    transitions += [(n, 0, 0, 1), (n, 1, 0, 1)]
    return Tela(
        ap=("a",),
        n_states=n + 1,
        initial=frozenset({0}),
        transitions=tuple(transitions),
        acceptance=inf_(1),
        n_marks=1,
    )


def test_safra_budget_errors():
    with pytest.raises(BudgetExceeded) as info:
        safra_determinize(finitely_many_a_nba(), state_cap=1)
    assert info.value.kind == "states"
    # Uncapped, n = 16 takes seconds; the limit stops it within its 0.1 s.
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        with time_limit(0.1):
            safra_determinize(nth_letter_back_nba(16))
    assert info.value.kind == "time"
    assert time.perf_counter() - start < 1.0


def test_determinize_via_gba_methods_agree():
    rng = random.Random(442)
    a = cnf_blowup_automaton(3)
    outputs = [determinize_via_gba(a, method) for method in GBA_METHODS]
    for d in outputs:
        assert is_deterministic(d) and is_complete(d)
    for other in outputs[1:]:
        assert equivalent_deterministic(outputs[0], other)
    for _ in range(10):
        u, v = random_word(rng, a.n_letters)
        assert accepts(outputs[0], u, v) == accepts(a, u, v)


def test_determinize_product_preserves_language():
    rng = random.Random(443)
    for _ in range(10):
        a = random_automaton(rng, n_marks=3, ap=("a",))
        d = determinize_product(a)
        assert is_deterministic(d) and is_complete(d)
        for _ in range(10):
            u, v = random_word(rng, a.n_letters)
            assert accepts(d, u, v) == accepts(a, u, v)


def test_determinize_product_langcover_prunes_covered_disjuncts():
    rng = random.Random(444)
    a = random_automaton(rng, max_states=3, n_marks=2, ap=("a",)).with_acceptance(
        or_([inf_(1), and_([inf_(1), inf_(2)])]), 2
    )
    with_cover = determinize_product(a, langcover=True)
    without = determinize_product(a, langcover=False)
    first_alone = determinize_product(a.with_acceptance(inf_(1), 2))
    assert with_cover.n_states == first_alone.n_states
    assert with_cover.n_states <= without.n_states
    assert equivalent_deterministic(with_cover, without)


def test_determinize_product_budget():
    a = cnf_blowup_automaton(4)
    with pytest.raises(BudgetExceeded):
        determinize_product(a, state_cap=2)


def test_union_product_budget_names_both_operands_and_the_cap():
    """Parts of 4 and 2 states each fit a cap of 5, their product would not,
    and the error says so before building it; a cap of 8 builds it."""
    a = Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=((0, 0, 1, 4), (0, 1, 1, 5), (1, 0, 0, 4), (1, 1, 0, 6)),
        acceptance=or_([and_([inf_(1), inf_(4)]), inf_(2)]),
        n_marks=3,
    )
    match = r"^union product of 4 x 2 states would pass the cap 5$"
    with pytest.raises(BudgetExceeded, match=match) as info:
        determinize_product(a, langcover=False, state_cap=5)
    assert info.value.kind == "states"
    assert determinize_product(a, langcover=False, state_cap=8).n_states <= 8


def test_every_gba_is_reduced_once_before_degeneralization(monkeypatch):
    """Both routes into Safra reduce each GBA by simulation once."""
    reduce = determinize_module.simulation_reduce
    calls = []

    def recording(g):
        calls.append(g.n_states)
        return reduce(g)

    monkeypatch.setattr(determinize_module, "simulation_reduce", recording)
    a = cnf_blowup_automaton(2)
    determinize_via_gba(a, "remfin_rewrite")
    assert calls == [to_gba(a, "remfin_rewrite").n_states]
    calls.clear()
    determinize_product(a, langcover=False)
    assert len(calls) == len(to_dnf(ensure_dnf(a).acceptance).disjuncts)


def test_determinizers_agree_with_each_other():
    # Safra blows up on some dense inputs, so instances whose outputs exceed
    # the cap are redrawn; agreement is checked on the rest.
    rng = random.Random(445)
    done = 0
    while done < 6:
        a = random_automaton(rng, n_marks=2, ap=("a",))
        try:
            d_prod = determinize_product(a, state_cap=300)
            d_gba = determinize_via_gba(a, "remfin_rewrite", state_cap=300)
        except BudgetExceeded:
            continue
        assert equivalent_deterministic(d_prod, d_gba)
        done += 1


def test_parallel_transitions_through_every_construction():
    # Fin-removal, the GBA sum and degeneralization can map parallel
    # transitions that differ only in marks onto one transition.
    rng = random.Random(446)
    done = 0
    while done < 6:
        a = random_automaton(rng, n_marks=3, ap=("a",))
        a = with_parallel_transitions(rng, a)
        outputs = [(m, to_gba(a, m)) for m in GBA_METHODS]
        try:
            outputs += [(m, determinize_by(a, m, state_cap=300)) for m in DET_METHODS]
        except BudgetExceeded:
            continue
        every_run = a.with_acceptance(TRUE, a.n_marks)
        for _ in range(10):
            u, v = random_word(rng, a.n_letters)
            expected = accepts(a, u, v)
            for method, out in outputs:
                assert accepts(out, u, v) == expected, (method, u, v)
            assert accepts(degeneralize(every_run), u, v) == accepts(every_run, u, v)
        done += 1


def test_contains_basics():
    universal = universal_buchi()
    det_universal = safra_determinize(universal)
    empty = empty_language_automaton(("a",))
    assert contains(det_universal, det_universal)
    assert contains(det_universal, empty)
    assert not contains(empty, det_universal)
    assert equivalent_deterministic(empty, empty)
    assert not equivalent_deterministic(empty, det_universal)
    with pytest.raises(TelaError):
        contains(finitely_many_a_nba(), det_universal)


def test_contains_rejects_unfit_inputs():
    """Either side must be deterministic and complete, over the same APs."""
    good = empty_language_automaton(("a",))
    other_ap = empty_language_automaton(("b",))
    nondeterministic = Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 1)),
        acceptance=inf_(1),
        n_marks=1,
    )
    incomplete = Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 1),),
        acceptance=inf_(1),
        n_marks=1,
    )
    assert is_complete(nondeterministic) and not is_deterministic(nondeterministic)
    assert is_deterministic(incomplete) and not is_complete(incomplete)
    with pytest.raises(TelaError, match="mismatched atomic propositions"):
        contains(good, other_ap)
    with pytest.raises(TelaError, match="mismatched atomic propositions"):
        contains(other_ap, good)
    for bad in (nondeterministic, incomplete):
        with pytest.raises(TelaError):
            contains(bad, good)
        with pytest.raises(TelaError):
            contains(good, bad)


def test_contains_matches_the_emptiness_oracle():
    """contains(p, d) holds exactly when d and the complement of p have an
    empty intersection, by an oracle that does not share the library's
    search.  The via-gba and product outputs of two inputs are compared
    pairwise, so union-product acceptances are covered and containment
    fails often.  The oracle tries every subset of the Fin marks, so pairs
    with more than 20 marks between them are left out."""
    rng = random.Random(452)
    verdicts = []
    for n_ap in (1, 2):
        done = 0
        while done < 6:
            dets = []
            try:
                for _ in range(2):
                    a = random_automaton(rng, max_states=3, n_marks=2, n_ap=n_ap)
                    dets.append(determinize_via_gba(a, state_cap=30))
                    dets.append(determinize_product(a, state_cap=30))
            except BudgetExceeded:
                continue
            done += 1
            for p in dets:
                for d in dets:
                    if p.n_marks + d.n_marks > 20:
                        continue
                    expected = oracle_empty(
                        product(d, complement_deterministic(p), "and")
                    )
                    assert contains(p, d) == expected
                    verdicts.append(expected)
    assert True in verdicts and False in verdicts
    assert len(verdicts) > 150


def test_contains_reflects_membership():
    rng = random.Random(446)
    done = 0
    while done < 8:
        a = random_automaton(rng, n_marks=2, ap=("a",))
        b = random_automaton(rng, n_marks=2, ap=("a",))
        try:
            da = determinize_product(a, state_cap=300)
            db = determinize_product(b, state_cap=300)
        except BudgetExceeded:
            continue
        done += 1
        if contains(da, db):
            for _ in range(10):
                u, v = random_word(rng, 2)
                if accepts(db, u, v):
                    assert accepts(da, u, v)


def test_empty_language_automaton():
    e = empty_language_automaton(("a", "b"))
    assert is_deterministic(e) and is_complete(e)
    assert is_empty(e)
    assert e.n_states == 1
