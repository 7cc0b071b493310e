"""Tests for emptiness, witnesses, and lasso membership."""

import random
from dataclasses import replace

import pytest

from tela import (
    FALSE,
    TRUE,
    Tela,
    TelaError,
    accepting_lasso,
    accepts,
    complete,
    fin_,
    inf_,
    is_empty,
    sample_lassos,
)
from tela.transforms import ensure_dnf, remove_fin, to_gba

from helpers import example_automaton, random_automaton
from oracles import (
    OracleLimitError,
    brute_force_empty,
    oracle_accepts,
    oracle_empty,
    random_word,
)


def universal_loop():
    return Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 1), (0, 1, 0, 1)),
        acceptance=inf_(1),
        n_marks=1,
    )


def test_is_empty_basics():
    assert is_empty(universal_loop().with_acceptance(FALSE, 1))
    assert not is_empty(universal_loop())
    assert is_empty(universal_loop().with_acceptance(fin_(1), 1))
    # No reachable cycle means no word at all.
    chain = Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=((0, 0, 1, 0), (0, 1, 1, 0)),
        acceptance=TRUE,
        n_marks=0,
    )
    assert is_empty(chain)


def test_accepting_lasso_witness():
    lasso = accepting_lasso(universal_loop())
    assert lasso is not None
    assert lasso.prefix == ()
    assert lasso.cycle in (((0, 0, 0, 1),), ((0, 1, 0, 1),))
    assert accepting_lasso(universal_loop().with_acceptance(fin_(1), 1)) is None


def test_accepting_lasso_cycle_satisfies_acceptance():
    rng = random.Random(430)
    found = 0
    for _ in range(60):
        a = random_automaton(rng, n_marks=3, ap=("a",))
        lasso = accepting_lasso(a)
        if lasso is None:
            continue
        found += 1
        u, v = lasso.word()
        assert accepts(a, u, v)
        assert oracle_accepts(a, u, v)
        # The cycle must start where the prefix ends and close on itself.
        start = lasso.prefix[-1][2] if lasso.prefix else min(
            t[0] for t in lasso.cycle
        )
        assert lasso.cycle[0][0] == start
        assert lasso.cycle[-1][2] == lasso.cycle[0][0]
        for prev, nxt in zip(lasso.cycle, lasso.cycle[1:]):
            assert prev[2] == nxt[0]
    assert found >= 10


def test_accepts_basics():
    ex = example_automaton()
    assert accepts(ex, (), (0, 2))
    u = universal_loop()
    assert accepts(u, (), (0,))
    assert accepts(u, (1, 0), (1,))
    assert not accepts(u.with_acceptance(FALSE, 1), (), (0,))


def test_accepts_validates_the_word():
    u = universal_loop()
    with pytest.raises(TelaError):
        accepts(u, (), ())
    with pytest.raises(TelaError):
        accepts(u, (2,), (0,))
    with pytest.raises(TelaError):
        accepts(u, (), (7,))


def test_accepts_is_stable_under_rotation_and_unrolling():
    rng = random.Random(431)
    for _ in range(30):
        a = random_automaton(rng, n_marks=3, ap=("a",))
        u, v = random_word(rng, a.n_letters)
        got = accepts(a, u, v)
        assert accepts(a, u + v, v) == got
        assert accepts(a, u, v + v) == got
        rotated = v[1:] + v[:1]
        assert accepts(a, u + v[:1], rotated) == got


def test_accepts_matches_independent_membership():
    rng = random.Random(432)
    for _ in range(60):
        a = random_automaton(rng, n_marks=3, ap=("a",))
        for _ in range(6):
            u, v = random_word(rng, a.n_letters)
            assert accepts(a, u, v) == oracle_accepts(a, u, v)


def test_accepts_sees_only_runs_from_the_initial_states():
    # State 1 has an accepting loop on every letter but no run reaches it.
    a = Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 0), (1, 0, 1, 1), (1, 1, 1, 1)),
        acceptance=inf_(1),
        n_marks=1,
    )
    assert not accepts(a, (), (0,))
    assert not accepts(replace(a, initial=frozenset()), (), (0,))
    both = replace(a, initial=frozenset({0, 1}))
    assert accepts(both, (), (0,)) and accepts(both, (1,), (0, 1))


def test_brute_force_empty_basics():
    assert not brute_force_empty(universal_loop())
    assert brute_force_empty(universal_loop().with_acceptance(fin_(1), 1))
    chain = Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=((0, 0, 1, 0),),
        acceptance=TRUE,
        n_marks=0,
    )
    assert brute_force_empty(chain)


def test_brute_force_empty_guards_its_input_size():
    big = Tela(
        ap=("a",),
        n_states=8,
        initial=frozenset({0}),
        transitions=tuple((q, 0, (q + 1) % 8, 0) for q in range(8)),
        acceptance=TRUE,
        n_marks=0,
    )
    with pytest.raises(OracleLimitError):
        brute_force_empty(big)


def test_emptiness_routes_agree():
    rng = random.Random(433)
    for _ in range(100):
        a = random_automaton(rng, n_marks=3, ap=("a",))
        empty = is_empty(a)
        assert brute_force_empty(a) == empty
        assert oracle_empty(a) == empty


def test_emptiness_is_invariant_under_transforms():
    rng = random.Random(434)
    for _ in range(20):
        a = random_automaton(rng, n_marks=3, ap=("a",))
        empty = is_empty(a)
        assert is_empty(ensure_dnf(a)) == empty
        assert is_empty(complete(a)) == empty
        assert is_empty(remove_fin(ensure_dnf(a))) == empty
        assert is_empty(to_gba(a, "remfin_rewrite")) == empty


def test_sample_lassos_is_seeded_and_well_formed():
    a = example_automaton()
    words = sample_lassos(a, 25, seed=7)
    assert words == sample_lassos(a, 25, seed=7)
    assert words != sample_lassos(a, 25, seed=8)
    assert sample_lassos(a, 0, seed=7) == []
    assert len(words) == 25
    for u, v in words:
        assert v
        assert all(0 <= x < a.n_letters for x in (*u, *v))
