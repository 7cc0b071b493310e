"""Tests for Fin-removal and the generalized-Buchi translations."""

import random
from dataclasses import replace

import pytest

from tela import (
    And,
    FALSE,
    Fin,
    Inf,
    TRUE,
    Tela,
    TelaError,
    accepts,
    and_,
    fin_,
    inf_,
    is_empty,
    is_finless,
    or_,
    to_dnf,
    dnf_length,
)
from tela.acceptance import dnf_structure, gba_marksets
from tela.randbench import cnf_blowup_automaton, random_tela
from tela.transforms import GBA_METHODS, ensure_dnf, remove_fin, remove_fin_gba, to_gba

from helpers import example_automaton, random_automaton
from oracles import oracle_empty, oracle_fin_removal, random_word


def fin_inf_loop():
    """One state, two marked loops, acceptance Fin(0) & Inf(1)."""
    return Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 1), (0, 1, 0, 2)),
        acceptance=and_([fin_(1), inf_(2)]),
        n_marks=2,
    )


def sample_language_equal(rng, a0, a1, words=20):
    for _ in range(words):
        u, v = random_word(rng, a0.n_letters)
        assert accepts(a0, u, v) == accepts(a1, u, v), (u, v)


def test_ensure_dnf_materializes_all_transition_sets():
    a = example_automaton().with_acceptance(fin_(1), 1)
    d = ensure_dnf(a)
    assert d.n_marks == 2
    assert d.acceptance == And((Fin(1), Inf(2)))
    assert all(t[3] & 2 for t in d.transitions)
    rng = random.Random(420)
    sample_language_equal(rng, a, d)


def test_ensure_dnf_keeps_dnf_input_structure():
    a = fin_inf_loop()
    assert ensure_dnf(a).acceptance == a.acceptance
    assert ensure_dnf(a).n_marks == a.n_marks


def test_ensure_dnf_preserves_language():
    rng = random.Random(421)
    for _ in range(20):
        a = random_automaton(rng, n_marks=3, ap=("a",))
        sample_language_equal(rng, a, ensure_dnf(a), words=10)


def test_ensure_dnf_output_reads_alike_through_both_dnf_readers():
    """`dnf_structure` and `to_dnf` read the same disjuncts, in the same
    order, off `ensure_dnf` output, and emptiness of the input agrees with
    the oracle; the conditions include TRUE, FALSE and Fin-only disjuncts."""
    automata = [
        random_tela(4, 4, 0.4, 0.3, acc=acc, seed=seed, n_ap=1 + seed % 2)
        for seed in range(15)
        for acc in ("random-el", "dnf")
    ]
    rng = random.Random(426)
    for i in range(30):
        a = random_automaton(rng, n_marks=3, ap=("a", "b")[: 1 + i % 2])
        m1, m2 = (1 << rng.randrange(3) for _ in range(2))
        for phi in (
            TRUE,
            FALSE,
            fin_(m1),
            or_([a.acceptance, fin_(m1)]),
            or_([and_([fin_(m1), inf_(m2)]), fin_(m2)]),
            and_([fin_(m1), or_([inf_(m2), fin_(m2)])]),
        ):
            automata.append(a.with_acceptance(phi, a.n_marks))
    for a in automata:
        d = ensure_dnf(a).acceptance
        assert dnf_structure(d) == to_dnf(d), a
        assert is_empty(a) == oracle_empty(a), a


def test_remove_fin_structure_single_disjunct():
    a = fin_inf_loop()
    g = remove_fin(a)
    # Pruning leaves the main copy and the disjunct's copy whole.
    assert g.n_states == 2 * a.n_states
    assert is_finless(g.acceptance)
    # The main copy carries no marks and never leaves the copy it jumps to.
    for s, _, d, marks in g.transitions:
        if s < a.n_states:
            assert marks == 0
        else:
            assert d >= a.n_states
    # Copy transitions drop the disjunct's Fin transitions.
    copy_loops = [t for t in g.transitions if t[0] >= a.n_states]
    assert all(t[1] == 1 for t in copy_loops)


def test_remove_fin_preserves_language():
    rng = random.Random(422)
    for _ in range(20):
        a = ensure_dnf(random_automaton(rng, n_marks=3, ap=("a",), dnf_only=True))
        g = remove_fin(a)
        assert is_finless(g.acceptance)
        sample_language_equal(rng, a, g, words=10)


def test_remove_fin_gba_padding_and_marks():
    a = Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=(
            (0, 0, 1, 1),
            (0, 1, 0, 2),
            (1, 0, 0, 4),
            (1, 1, 1, 6),
            (0, 1, 1, 0),
        ),
        acceptance=or_([and_([inf_(1), inf_(2)]), and_([fin_(1), inf_(4)])]),
        n_marks=3,
    )
    g = remove_fin_gba(a)
    # Both states reach the Inf(4) transitions without mark 1, so pruning
    # leaves all three copies whole.
    assert g.n_states == 3 * a.n_states
    assert g.n_marks == 2
    assert g.acceptance == and_([inf_(1), inf_(2)])
    # Copy 2 has a single Inf set, so the second acceptance set pads all of
    # its internal transitions.
    pad = [t for t in g.transitions if t[0] >= 2 * a.n_states]
    assert pad and all(t[3] & 2 for t in pad)


def three_disjunct_automaton():
    """Two states over one AP with every (state, letter, state) edge once:
    disjunct i has i Inf sets, the first and last also Fin(16), and every
    Inf set recurs on a Fin-free cycle through both states, so Fin-removal
    prunes no state."""
    return Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=(
            (0, 0, 0, 1 | 16),
            (0, 0, 1, 1 | 2),
            (0, 1, 0, 2 | 8),
            (0, 1, 1, 4),
            (1, 0, 0, 1 | 4),
            (1, 0, 1, 8),
            (1, 1, 0, 2 | 16),
            (1, 1, 1, 0),
        ),
        acceptance=or_(
            [
                and_([inf_(1), fin_(16)]),
                and_([inf_(2), inf_(4 | 8)]),
                and_([inf_(1), inf_(4), inf_(8), fin_(16)]),
            ]
        ),
        n_marks=5,
    )


def test_fin_removal_copy_marks_project_each_disjunct():
    """Copy i's transitions are the disjunct's Fin-free transitions with
    bit j set iff the marks meet its Inf set j, shifted past the earlier
    copies' k_1 + ... + k_(i-1) marks by remove_fin and padded with bits
    k_i .. k-1 by remove_fin_gba."""
    a = three_disjunct_automaton()
    disjuncts = dnf_structure(a.acceptance).disjuncts
    assert [len(d.infs) for d in disjuncts] == [1, 2, 3]
    assert any(d.fin for d in disjuncts)
    n, k = a.n_states, 3

    def projected(marks, infs):
        return sum(1 << j for j, s in enumerate(infs) if marks & s)

    fin_free = remove_fin(a)
    gba = remove_fin_gba(a)
    assert fin_free.n_states == gba.n_states == (len(disjuncts) + 1) * n
    shift = 0
    for i, d in enumerate(disjuncts):
        base = (i + 1) * n
        pad = (1 << k) - (1 << len(d.infs))
        inner = [(s, l, t, m) for s, l, t, m in a.transitions if not m & d.fin]
        for g, marks_of in (
            (fin_free, lambda m: projected(m, d.infs) << shift),
            (gba, lambda m: projected(m, d.infs) | pad),
        ):
            got = {t for t in g.transitions if base <= t[0] < base + n}
            want = {(base + s, l, base + t, marks_of(m)) for s, l, t, m in inner}
            assert got == want, (i, g.n_marks)
        shift += len(d.infs)
    assert fin_free.n_marks == shift == 6
    assert gba.n_marks == k


def test_remove_fin_gba_matches_remove_fin():
    rng = random.Random(423)
    for _ in range(15):
        a = ensure_dnf(random_automaton(rng, n_marks=3, ap=("a",), dnf_only=True))
        g = remove_fin_gba(a)
        assert gba_marksets(g.acceptance) is not None
        sample_language_equal(rng, remove_fin(a), g, words=10)
        sample_language_equal(rng, a, g, words=10)


def test_fin_removal_matches_the_construction_in_full():
    """Both Fin-removals equal the construction that builds every copy in
    full and only then cuts it to its reachable part, also where a copy has
    no useful state or none that the main copy reaches."""
    rng = random.Random(424)
    seen = dict.fromkeys(("no useful state", "not reached", "reached"), 0)
    for _ in range(300):
        a = random_automaton(
            rng,
            max_states=5,
            n_ap=rng.randint(0, 1),
            density=rng.choice((0.15, 0.3, 0.6)),
            dnf_only=True,
        )
        if rng.random() < 0.5:
            a = replace(a, initial=frozenset({0}))
        a = ensure_dnf(a)
        for remove, gba in ((remove_fin, False), (remove_fin_gba, True)):
            want, copies = oracle_fin_removal(a, gba)
            assert remove(a) == want, (a, gba)
        for useful, reached in copies:
            seen["no useful state"] += not useful
            seen["not reached"] += useful and not reached
            seen["reached"] += bool(reached)
    assert min(seen.values()) >= 40, seen


def test_to_gba_rejects_unknown_method():
    with pytest.raises(TelaError):
        to_gba(fin_inf_loop(), "nofin")


def test_to_gba_cnf_mark_blowup():
    a = cnf_blowup_automaton(10)
    g = to_gba(a, "cnf")
    assert g.n_marks == 1024
    r = to_gba(a, "remfin_rewrite")
    assert r.n_marks == 2
    assert r.n_marks <= dnf_length(to_dnf(a.acceptance))


def test_to_gba_outputs_are_generalized_buchi():
    rng = random.Random(424)
    for _ in range(6):
        a = random_automaton(rng, n_marks=3, ap=("a",))
        for method in GBA_METHODS:
            g = to_gba(a, method)
            assert gba_marksets(g.acceptance) is not None


def test_to_gba_methods_agree_on_the_language():
    rng = random.Random(425)
    for _ in range(8):
        a = random_automaton(rng, n_marks=3, ap=("a",))
        outputs = [to_gba(a, method) for method in GBA_METHODS]
        for _ in range(10):
            u, v = random_word(rng, a.n_letters)
            expected = accepts(a, u, v)
            for method, g in zip(GBA_METHODS, outputs):
                assert accepts(g, u, v) == expected, (method, u, v)


def test_to_gba_blowup_family_language():
    a = cnf_blowup_automaton(2)
    for method in GBA_METHODS:
        g = to_gba(a, method)
        assert accepts(g, (), (1,))
        assert accepts(g, (), (0, 1))
        assert not accepts(g, (1,), (0,))


def test_to_gba_keeps_buchi_input_language():
    rng = random.Random(426)
    a = random_automaton(rng, n_marks=1, ap=("a",)).with_acceptance(inf_(1), 1)
    for method in GBA_METHODS:
        sample_language_equal(rng, a, to_gba(a, method), words=15)


def test_to_gba_of_rejecting_condition_is_empty():
    a = fin_inf_loop().with_acceptance(FALSE, 2)
    for method in GBA_METHODS:
        g = to_gba(a, method)
        assert is_empty(g)
        assert gba_marksets(g.acceptance) is not None


def test_copy_methods_stay_within_dnf_length_marks():
    rng = random.Random(427)
    for _ in range(10):
        a = random_automaton(rng, n_marks=3, ap=("a",))
        bound = dnf_length(to_dnf(ensure_dnf(a).acceptance))
        for method in ("remfin_split", "split_remfin", "remfin_rewrite"):
            assert to_gba(a, method).n_marks <= bound
