"""Tests for the automaton data type and structural operations."""

import itertools
import random
import signal
import threading
import time
from collections import defaultdict
from dataclasses import replace

import pytest

from tela import (
    And,
    FALSE,
    Fin,
    Inf,
    Lasso,
    TRUE,
    Tela,
    TelaError,
    accepts,
    and_,
    bisim_quotient,
    complement_deterministic,
    complete,
    fin_,
    inf_,
    is_complete,
    is_deterministic,
    is_empty,
    negate,
    or_,
    product,
    split,
    simulation_reduce,
    sum_automata,
    state_limit,
    sum_gba,
    time_limit,
)
from tela.core import (
    BudgetExceeded,
    _bisim_blocks,
    _direct_simulation,
    closure,
    explore,
    scc_split,
    with_all_mark,
)
from tela.acceptance import gba_marksets
from tela.randbench import cnf_blowup_automaton

from helpers import example_automaton, random_automaton, random_formula
from oracles import (
    kosaraju,
    oracle_accepts,
    oracle_bisimulation,
    oracle_direct_simulation,
    oracle_is_complete,
    oracle_is_deterministic,
    oracle_simulation_reduce,
    random_word,
)


def random_det_complete(rng, n_states=3, n_marks=2, ap=("a",)):
    """Deterministic complete automaton with one transition per slot."""
    trans = []
    for q in range(n_states):
        for letter in range(1 << len(ap)):
            trans.append((q, letter, rng.randrange(n_states), rng.randrange(1 << n_marks)))
    return Tela(
        ap=ap,
        n_states=n_states,
        initial=frozenset({0}),
        transitions=tuple(trans),
        acceptance=random_formula(rng, n_marks),
        n_marks=n_marks,
    )


def rejecting_loop():
    """One complete state whose loops carry a mark that must not recur."""
    return Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 1), (0, 1, 0, 1)),
        acceptance=fin_(1),
        n_marks=1,
    )


def test_validation_rejects_malformed_automata():
    good = dict(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=((0, 0, 1, 0),),
        acceptance=TRUE,
        n_marks=0,
    )
    Tela(**good)
    with pytest.raises(TelaError):
        Tela(**{**good, "ap": tuple("abcdefghi")})
    with pytest.raises(TelaError):
        Tela(**{**good, "ap": ("a", "a")})
    with pytest.raises(TelaError):
        Tela(**{**good, "initial": frozenset({2})})
    with pytest.raises(TelaError):
        Tela(**{**good, "transitions": ((0, 0, 2, 0),)})
    with pytest.raises(TelaError):
        Tela(**{**good, "transitions": ((0, 2, 1, 0),)})
    with pytest.raises(TelaError):
        Tela(**{**good, "transitions": ((0, 0, 1, 1),)})
    # The transitions are a set: a repeat is merged, not rejected.
    assert Tela(**{**good, "transitions": ((0, 0, 1, 0), (0, 0, 1, 0))}) == Tela(**good)
    with pytest.raises(TelaError):
        Tela(**{**good, "acceptance": inf_(1)})
    # A negative mark set lies beyond every declared mark.
    with pytest.raises(TelaError):
        Tela(**{**good, "acceptance": Inf(-1)})


def test_transitions_are_stored_sorted():
    a = Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0)),
        acceptance=TRUE,
        n_marks=0,
    )
    assert a.transitions == ((0, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 0))
    assert a.succ(0, 1) == ((0, 1, 1, 0),)
    assert a.succ(1, 1) == ()


def test_with_acceptance_shares_the_index_and_checks_the_acceptance():
    a = example_automaton()
    index = a.index
    same_marks = a.with_acceptance(fin_(1), a.n_marks)
    more_marks = a.with_acceptance(inf_(2), a.n_marks + 1)
    assert same_marks.index is index and more_marks.index is index
    assert same_marks == replace(a, acceptance=fin_(1))
    assert more_marks == replace(a, acceptance=inf_(2), n_marks=a.n_marks + 1)
    assert type(more_marks) is type(a)
    with pytest.raises(TelaError, match="references marks beyond the declared 1"):
        a.with_acceptance(inf_(2), 1)
    # Dropping a mark that some transition carries revalidates in full.
    with pytest.raises(TelaError, match="uses marks beyond 0"):
        a.with_acceptance(TRUE, 0)


def test_deterministic_and_complete_predicates():
    ex = example_automaton()
    assert not is_deterministic(ex)
    assert not is_complete(ex)
    loop = rejecting_loop()
    assert is_deterministic(loop)
    assert is_complete(loop)
    two_initial = Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0, 1}),
        transitions=((0, 0, 1, 0),),
        acceptance=TRUE,
        n_marks=0,
    )
    assert not is_deterministic(two_initial)
    assert not is_complete(two_initial)


def random_slot_automaton(rng, n_states, ap=("a",)):
    """Automaton with zero, one or two transitions per (state, letter) slot,
    the two sometimes differing only in their marks, and any number of
    initial states."""
    trans = set()
    for q in range(n_states):
        for letter in range(1 << len(ap)):
            for _ in range(rng.choice((0, 1, 1, 1, 2))):
                trans.add((q, letter, rng.randrange(n_states), rng.randrange(4)))
            if trans and rng.random() < 0.1:
                s, l, d, m = max(trans)
                trans.add((s, l, d, m ^ 1))
    n_initial = min(rng.choice((0, 1, 1, 1, 2)), n_states)
    return Tela(
        ap=ap,
        n_states=n_states,
        initial=frozenset(rng.sample(range(n_states), n_initial)),
        transitions=tuple(trans),
        acceptance=inf_(1),
        n_marks=2,
    )


def test_determinism_and_completeness_match_oracles():
    rng = random.Random(408)
    seen = set()
    for i in range(400):
        a = random_slot_automaton(rng, i % 4, ap=("a", "b")[: 1 + i % 2])
        det, comp = is_deterministic(a), is_complete(a)
        assert det == oracle_is_deterministic(a), a
        assert comp == oracle_is_complete(a), a
        seen.add((det, comp, a.n_states, len(a.initial)))
    # Each verdict occurs, on zero states and with zero, one and two
    # initial states.
    assert {(d, c) for d, c, _, _ in seen} == {
        (False, False), (False, True), (True, False), (True, True)
    }
    assert {n for _, _, n, _ in seen} == {0, 1, 2, 3}
    assert {k for _, _, _, k in seen} == {0, 1, 2}


def test_complete_is_identity_on_complete_input():
    loop = rejecting_loop()
    assert complete(loop) is loop


def test_complete_adds_single_sink():
    ex = example_automaton()
    done = complete(ex)
    assert done.n_states == ex.n_states + 1
    assert is_complete(done)
    assert done.n_marks == ex.n_marks
    rng = random.Random(407)
    for _ in range(30):
        u, v = random_word(rng, ex.n_letters)
        assert accepts(done, u, v) == accepts(ex, u, v)


def test_complete_guards_sink_against_mark_free_acceptance():
    # The acceptance holds on runs seeing no marks, so sink runs must be
    # rejected through a fresh watchdog mark.
    a = Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 1, 0, 0),),
        acceptance=TRUE,
        n_marks=0,
    )
    done = complete(a)
    assert done.n_states == 2
    assert done.n_marks == 1
    assert done.acceptance == Inf(1)
    assert accepts(done, (), (1,))
    assert not accepts(done, (), (0,))
    assert not accepts(done, (1,), (0,))


def test_split_returns_input_without_top_level_disjunction():
    ex = example_automaton()
    assert split(ex) == [ex]
    assert split(cnf_blowup_automaton(1)) == [cnf_blowup_automaton(1)]


def test_split_covers_the_language():
    a = cnf_blowup_automaton(3)
    parts = split(a)
    assert len(parts) == 3
    for part in parts:
        assert isinstance(part.acceptance, And)
        assert part.transitions == a.transitions
    rng = random.Random(408)
    for _ in range(20):
        u, v = random_word(rng, a.n_letters)
        assert accepts(a, u, v) == any(accepts(p, u, v) for p in parts)


def test_sum_shape():
    loop = rejecting_loop()
    s = sum_automata(loop, loop)
    assert s.n_states == 2
    assert s.n_marks == loop.n_marks * 2 + 2
    assert s.initial == frozenset({0, 1})


def test_sum_of_empty_components_stays_empty():
    # Each component rejects every word, but a naive disjunction of the two
    # Fin conditions would accept: a run through one component never sees the
    # other side's marks.  The per-component watchdog marks block that.
    loop = rejecting_loop()
    assert is_empty(loop)
    naive = Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0, 1}),
        transitions=(
            (0, 0, 0, 1),
            (0, 1, 0, 1),
            (1, 0, 1, 2),
            (1, 1, 1, 2),
        ),
        acceptance=or_([fin_(1), fin_(2)]),
        n_marks=2,
    )
    assert not is_empty(naive)
    assert is_empty(sum_automata(loop, loop))


def test_sum_accepts_partial_inputs():
    """A run of the sum stays in one part, so a missing move ends only runs
    that the part itself would lose."""
    partial = Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 0),),
        acceptance=TRUE,
        n_marks=0,
    )
    for a0, a1 in [(partial, partial), (rejecting_loop(), partial)]:
        s = sum_automata(a0, a1)
        assert accepts(s, (), (0,))
        assert not accepts(s, (), (1,))
        assert not accepts(s, (1,), (0,))
        assert not accepts(s, (), (0, 1))
        for u, v in itertools.product([(), (0,), (1,), (0, 1)], [(0,), (1,), (1, 0)]):
            assert accepts(s, u, v) == (accepts(a0, u, v) or accepts(a1, u, v))


def test_sum_recognizes_the_union():
    """Partial inputs too: a run of the sum stays in one part, so a missing
    move ends only runs that the part itself would lose."""
    rng = random.Random(409)
    pairs = [
        tuple(random_automaton(rng, n_marks=2, ap=("a",)) for _ in range(2))
        for _ in range(15)
    ]
    assert sum(not (is_complete(a0) and is_complete(a1)) for a0, a1 in pairs) >= 8
    for a0, a1 in pairs:
        s = sum_automata(a0, a1)
        for _ in range(8):
            u, v = random_word(rng, 2)
            assert accepts(s, u, v) == (accepts(a0, u, v) or accepts(a1, u, v))
        assert accepts(s, (), (0,)) == (accepts(a0, (), (0,)) or accepts(a1, (), (0,)))


def test_sum_gba_requires_generalized_buchi():
    with pytest.raises(TelaError):
        sum_gba(rejecting_loop(), rejecting_loop())


def test_sum_gba_mark_counts():
    buchi = rejecting_loop().with_acceptance(inf_(1), 1)
    s = sum_gba(buchi, buchi)
    assert s.n_marks == 1
    assert s.acceptance == inf_(1)
    two_sets = Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 1), (0, 1, 0, 2)),
        acceptance=and_([inf_(1), inf_(2)]),
        n_marks=2,
    )
    s2 = sum_gba(two_sets, buchi)
    assert s2.n_marks == 2
    assert s2.acceptance == and_([inf_(1), inf_(2)])
    # The padding set marks every transition of the shorter component.
    comp1 = [t for t in s2.transitions if t[0] >= two_sets.n_states]
    assert all(t[3] & 2 for t in comp1)


def test_sum_gba_matches_general_sum():
    """On partial inputs as well, with the padding sets and tag marks as on
    complete ones."""
    rng = random.Random(410)
    partial = 0
    for _ in range(10):
        a0 = random_automaton(rng, n_marks=2, ap=("a",)).with_acceptance(
            and_([inf_(1), inf_(2)]), 2
        )
        a1 = random_automaton(rng, n_marks=1, ap=("a",)).with_acceptance(inf_(1), 1)
        partial += not (is_complete(a0) and is_complete(a1))
        s_gba = sum_gba(a0, a1)
        s_gen = sum_automata(a0, a1)
        for _ in range(8):
            u, v = random_word(rng, 2)
            expected = accepts(a0, u, v) or accepts(a1, u, v)
            assert accepts(s_gba, u, v) == expected
            assert accepts(s_gen, u, v) == expected
    assert partial >= 5


def test_sum_gba_of_several_parts_is_the_fold():
    """The n-ary sum equals the binary sums folded from the left, for parts
    with 0, 1 and 2 acceptance sets; a single part comes back as it is."""
    rng = random.Random(411)
    conditions = (TRUE, inf_(1), and_([inf_(1), inf_(2)]))
    for ks in itertools.product(range(3), repeat=3):
        parts = []
        for k in ks:
            a = complete(random_automaton(rng, n_marks=2, ap=("a",)))
            parts.append(a.with_acceptance(conditions[k], a.n_marks))
        s = sum_gba(*parts)
        assert s == sum_gba(sum_gba(parts[0], parts[1]), parts[2]), ks
        assert s.n_marks == max(*ks, 1)
    assert sum_gba(parts[0]) is parts[0]


def test_sum_gba_names_the_part_that_fails_a_check():
    buchi = rejecting_loop().with_acceptance(inf_(1), 1)
    with pytest.raises(TelaError, match="on every input"):
        sum_gba(buchi, buchi, rejecting_loop())
    with pytest.raises(TelaError, match="mismatched atomic propositions"):
        sum_gba(buchi, buchi, replace(buchi, ap=("b",)))
    with pytest.raises(TelaError, match="at least one"):
        sum_gba()


def test_product_validates_inputs():
    loop = rejecting_loop()
    partial = Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 0),),
        acceptance=TRUE,
        n_marks=0,
    )
    with pytest.raises(TelaError):
        product(loop, loop, "xor")
    with pytest.raises(TelaError):
        product(loop, partial, "or")
    nondet = Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)),
        acceptance=TRUE,
        n_marks=0,
    )
    with pytest.raises(TelaError):
        product(loop, nondet, "and")
    product(loop, nondet, "or")


def test_product_or_is_union():
    rng = random.Random(411)
    for _ in range(12):
        a0 = complete(random_automaton(rng, n_marks=2, ap=("a",)))
        a1 = complete(random_automaton(rng, n_marks=2, ap=("a",)))
        p = product(a0, a1, "or")
        assert p.n_marks == a0.n_marks + a1.n_marks
        for _ in range(8):
            u, v = random_word(rng, 2)
            assert accepts(p, u, v) == (accepts(a0, u, v) or accepts(a1, u, v))


def test_product_and_is_intersection():
    rng = random.Random(412)
    for _ in range(12):
        a0 = random_det_complete(rng)
        a1 = random_det_complete(rng)
        p = product(a0, a1, "and")
        assert is_deterministic(p)
        assert is_complete(p)
        for _ in range(8):
            u, v = random_word(rng, 2)
            assert accepts(p, u, v) == (accepts(a0, u, v) and accepts(a1, u, v))


def test_product_with_own_complement_is_empty():
    rng = random.Random(413)
    for _ in range(10):
        a = random_det_complete(rng)
        assert is_empty(product(a, complement_deterministic(a), "and"))


def test_complement_deterministic():
    rng = random.Random(414)
    universal = rejecting_loop().with_acceptance(TRUE, 1)
    assert is_empty(complement_deterministic(universal))
    for _ in range(10):
        a = random_det_complete(rng)
        comp = complement_deterministic(a)
        assert comp.acceptance == negate(a.acceptance)
        assert complement_deterministic(comp) == a
        for _ in range(8):
            u, v = random_word(rng, 2)
            assert accepts(comp, u, v) == (not accepts(a, u, v))
    nondet = example_automaton()
    with pytest.raises(TelaError):
        complement_deterministic(nondet)
    partial = Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 0),),
        acceptance=TRUE,
        n_marks=0,
    )
    with pytest.raises(TelaError):
        complement_deterministic(partial)


def reachable_states(a):
    """The states `closure` reaches from the initial ones, as a bitmask,
    with successors given both as a list over all states and as a
    `defaultdict(int)` of the states with a successor; both must agree."""
    listed = [0] * a.n_states
    sparse = defaultdict(int)
    for s, _, d, _ in a.transitions:
        listed[s] |= 1 << d
        sparse[s] |= 1 << d
    seeds = sum(1 << q for q in a.initial)
    reached = closure(seeds, listed)
    assert closure(seeds, sparse) == reached
    return reached


def test_reachable_states():
    ex = example_automaton()
    assert reachable_states(ex) == 0xFF
    island = Tela(
        ap=("a",),
        n_states=3,
        initial=frozenset({0}),
        transitions=((0, 0, 1, 0), (2, 0, 2, 0)),
        acceptance=TRUE,
        n_marks=0,
    )
    assert reachable_states(island) == 0b011


# State 5 points back to seed 2, so revisits happen after the last discovery.
GRAPH = {2: [0, 4], 0: [1, 3], 4: [2], 1: [5], 3: [], 5: [2]}


def explore_graph(seeds, stage="demo"):
    return explore(seeds, lambda q, number: [number(t) for t in GRAPH[q]], stage)


def test_explore_numbers_seeds_first_then_breadth_first():
    order, edges = explore_graph([2, 0, 2])
    assert order == [2, 0, 4, 1, 3, 5]
    assert edges == [[1, 2], [3, 4], [0], [5], [], [0]]


def test_explore_state_cap_counts_only_new_states():
    with state_limit(6):
        order, _ = explore_graph([2])
    assert len(order) == 6
    with pytest.raises(BudgetExceeded) as excinfo:
        with state_limit(5):
            explore_graph([2], "demo")
    assert excinfo.value.kind == "states"
    assert str(excinfo.value) == "demo exceeded 5 states"


def test_state_limit_caps_each_exploration_on_its_own():
    """Two explorations of 6 states each both pass under a cap of 6: the cap
    bounds every exploration in the block, not their total."""
    with state_limit(6):
        assert len(explore_graph([2])[0]) == 6
        assert len(explore_graph([0, 2])[0]) == 6


def test_nested_state_limits_keep_the_smaller_cap_and_restore_it():
    """An inner limit never lifts an outer one, a smaller inner limit holds
    in its block alone, and every exit, by BudgetExceeded or another raise,
    brings back the cap from before the block."""
    with state_limit(5):
        with pytest.raises(BudgetExceeded, match="^demo exceeded 5 states$"):
            with state_limit(100):
                explore_graph([2])
        with pytest.raises(BudgetExceeded, match="^demo exceeded 3 states$"):
            with state_limit(3):
                explore_graph([2])
        with pytest.raises(KeyError):
            with state_limit(4):
                raise KeyError
        with pytest.raises(BudgetExceeded, match="^demo exceeded 5 states$"):
            with state_limit(None):
                explore_graph([2])
    assert len(explore_graph([2])[0]) == 6


def test_state_limit_rejects_a_non_positive_cap():
    for states in (0, -1):
        with pytest.raises(TelaError, match="state limit must be positive"):
            with state_limit(states):
                pass
    assert len(explore_graph([2])[0]) == 6


def assert_disarmed(handler):
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


needs_timer = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="no POSIX interval timer"
)


@needs_timer
def test_time_limit_disarms_and_restores_the_handler_on_every_exit():
    """A normal exit, the limit's own raise and a raise from the block all
    leave no timer armed and the handler from before the block in place."""

    def before(signum, frame):
        raise AssertionError("SIGALRM after the block")

    outer = signal.signal(signal.SIGALRM, before)
    try:
        with time_limit(60.0):
            assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= 60.0
        assert_disarmed(before)
        with time_limit(1e12):  # past setitimer's range: capped, not an error
            assert signal.getitimer(signal.ITIMER_REAL)[0] > 60.0
        assert_disarmed(before)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as excinfo:
            with time_limit(0.05):
                while True:
                    pass
        assert excinfo.value.kind == "time"
        assert time.perf_counter() - start < 1.0
        assert_disarmed(before)
        with pytest.raises(KeyError):
            with time_limit(60.0):
                raise KeyError
        assert_disarmed(before)
    finally:
        signal.signal(signal.SIGALRM, outer)


def spin(seconds: float) -> None:
    """Busy work for `seconds`, which a time limit interrupts."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@needs_timer
def test_nested_time_limits_keep_the_outer_limit_on_time():
    """An inner limit, longer or shorter than what is left of the outer one,
    leaves the outer limit firing on time, and each limit fires with its own
    message."""

    def before(signum, frame):
        raise AssertionError("SIGALRM after the block")

    outer = signal.signal(signal.SIGALRM, before)
    try:
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="limit of 0.3 s"):
            with time_limit(0.3):
                with time_limit(5.0):
                    pass
                spin(1.5)
        assert time.perf_counter() - start < 1.0
        assert_disarmed(before)

        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="limit of 0.3 s"):
            with time_limit(0.3):
                with time_limit(5.0):
                    spin(1.5)
        assert time.perf_counter() - start < 1.0
        assert_disarmed(before)

        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="limit of 0.4 s"):
            with time_limit(0.4):
                with pytest.raises(BudgetExceeded, match="limit of 0.05 s"):
                    with time_limit(0.05):
                        spin(1.5)
                assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] < 0.4
                spin(1.5)
        assert time.perf_counter() - start < 1.0
        assert_disarmed(before)
    finally:
        signal.signal(signal.SIGALRM, outer)


@needs_timer
def test_time_limit_rejects_no_time_and_arms_nothing_off_the_main_thread():
    for seconds in (0, -1.0, float("nan")):
        with pytest.raises(TelaError, match="time limit must be positive"):
            with time_limit(seconds):
                pass
    handler = signal.getsignal(signal.SIGALRM)
    done = []

    def run():
        with time_limit(0.01):
            time.sleep(0.05)
        done.append(signal.getitimer(signal.ITIMER_REAL))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    assert done == [(0.0, 0.0)]
    assert signal.getsignal(signal.SIGALRM) is handler


def sccs(a):
    """Every component, through one item per state with no targets, which
    is always inside."""
    items = [(q,) for q in range(a.n_states)] + list(a.transitions)
    return [nodes for nodes, _ in scc_split(items, lambda item: item[2:3])]


def test_sccs_ordered_by_smallest_state():
    chain = Tela(
        ap=("a",),
        n_states=3,
        initial=frozenset({0}),
        transitions=((0, 0, 1, 0), (1, 0, 2, 0)),
        acceptance=TRUE,
        n_marks=0,
    )
    assert sccs(chain) == [frozenset({0}), frozenset({1}), frozenset({2})]
    cyc = Tela(
        ap=("a",),
        n_states=3,
        initial=frozenset({0}),
        transitions=((0, 0, 1, 0), (1, 0, 0, 0), (2, 0, 2, 0)),
        acceptance=TRUE,
        n_marks=0,
    )
    assert sccs(cyc) == [frozenset({0, 1}), frozenset({2})]


def test_scc_split_keeps_inside_items_in_input_order():
    items = [
        (5, "a", 3),
        (7, "b", 5),
        (3, "c", 5),
        (3, "d", 8),
        (1, "e", 1),
        (5, "f", 5),
    ]
    assert scc_split(items, lambda item: (item[2],)) == [
        # {1} comes first although its item comes late; {7} and {8} have
        # no item inside and are dropped, as are the edges leaving {3, 5}.
        (frozenset({1}), ((1, "e", 1),)),
        (frozenset({3, 5}), ((5, "a", 3), (3, "c", 5), (5, "f", 5))),
    ]


def test_scc_split_with_several_targets_per_item():
    items = [(2, (0, 3)), (0, (1, 2)), (1, (0,)), (3, (3,)), (4, (4, 2))]
    assert scc_split(items, lambda item: item[1]) == [
        (frozenset({0, 1, 2}), ((0, (1, 2)), (1, (0,)))),
        (frozenset({3}), ((3, (3,)),)),
    ]
    assert scc_split([], lambda item: item[1]) == []


def test_scc_split_agrees_with_kosaraju_on_random_graphs():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 8)
        items = [
            (rng.randrange(n), i, tuple(rng.randrange(n) for _ in range(rng.randint(0, 3))))
            for i in range(rng.randint(0, 14))
        ]
        edges = [(src, t) for src, _, ts in items for t in ts]
        expected = []
        for comp in kosaraju(n, edges):
            inside = tuple(
                item for item in items
                if item[0] in comp and all(t in comp for t in item[2])
            )
            if inside:
                expected.append((frozenset(comp), inside))
        expected.sort(key=lambda part: min(part[0]))
        assert scc_split(items, lambda item: item[2]) == expected


def test_with_all_mark():
    ex = example_automaton()
    marked, mark = with_all_mark(ex)
    assert mark == ex.n_marks
    assert marked.n_marks == ex.n_marks + 1
    assert all(t[3] & (1 << mark) for t in marked.transitions)


def test_lasso_word_and_marks():
    lasso = Lasso(prefix=((0, 1, 1, 0),), cycle=((1, 0, 2, 1), (2, 1, 1, 4)))
    assert lasso.word() == ((1,), (0, 1))
    assert lasso.cycle_marks() == 5
    with pytest.raises(TelaError):
        Lasso(prefix=(), cycle=())


def test_bisimulation_oracle_on_a_hand_built_automaton():
    # 0 and 1 both move into {2, 3} with mark 1, 2 and 3 move back into
    # {0, 1} unmarked, and 4 reads the same letter as 2 and 3 but marked.
    a = Tela(
        ap=("a",),
        n_states=5,
        initial=frozenset({0}),
        transitions=(
            (0, 0, 2, 1),
            (1, 0, 3, 1),
            (1, 0, 2, 1),
            (2, 1, 0, 0),
            (3, 1, 1, 0),
            (4, 1, 4, 1),
        ),
        acceptance=inf_(1),
        n_marks=1,
    )
    assert oracle_bisimulation(a) == [
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset({4}),
    ]


def random_bisim_automaton(rng: random.Random, kind: str) -> Tela:
    """0-4 states, 0 or 1 atomic proposition, up to 2 marks.

    "random" draws each (state, letter, target) at density 0.4 and sometimes
    adds a parallel transition that differs only in its marks;
    "deterministic" draws at most one transition per slot and one initial
    state; "lumped" draws transitions over 1-3 base states and gives each
    copy of a base state the same (letter, marks, base target) moves, so
    copies are bisimilar.
    """
    n = rng.randint(0, 4)
    ap = ("a",)[: rng.randint(0, 1)]
    n_marks = rng.randint(0, 2)
    n_letters = 1 << len(ap)

    def marks() -> int:
        return rng.randrange(1 << n_marks)

    trans = set()
    if kind == "random":
        for q in range(n):
            for letter in range(n_letters):
                for d in range(n):
                    if rng.random() < 0.4:
                        trans.add((q, letter, d, marks()))
                        if rng.random() < 0.3:
                            trans.add((q, letter, d, marks()))
    elif kind == "deterministic":
        for q in range(n):
            for letter in range(n_letters):
                if rng.random() < 0.8:
                    trans.add((q, letter, rng.randrange(n), marks()))
    elif n:
        k = rng.randint(1, min(n, 3))
        base = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(base)
        copies = [[q for q in range(n) if base[q] == b] for b in range(k)]
        for b in range(k):
            for letter in range(n_letters):
                for b2 in range(k):
                    if rng.random() < 0.5:
                        m = marks()
                        for q in copies[b]:
                            trans.add((q, letter, rng.choice(copies[b2]), m))
    n_initial = 1 if kind == "deterministic" else rng.randint(0, 2)
    return Tela(
        ap=ap,
        n_states=n,
        initial=frozenset(rng.sample(range(n), min(n, n_initial))),
        transitions=tuple(trans),
        acceptance=inf_(1) if n_marks else TRUE,
        n_marks=n_marks,
    )


def test_bisim_quotient_matches_the_pairwise_oracle():
    rng = random.Random(471)
    merged = {"random": 0, "deterministic": 0, "lumped": 0}
    for i in range(420):
        kind = ("random", "deterministic", "lumped")[i % 3]
        a = random_bisim_automaton(rng, kind)
        classes = oracle_bisimulation(a)
        block = _bisim_blocks(a)
        parts = [
            frozenset(q for q, b in enumerate(block) if b == c)
            for c in range(len(classes))
        ]
        assert parts == classes, a
        quotient = bisim_quotient(a)
        assert quotient.n_states == len(classes)
        assert quotient.initial == frozenset(block[q] for q in a.initial)
        assert set(quotient.transitions) == {
            (block[s], letter, block[d], marks)
            for s, letter, d, marks in a.transitions
        }
        assert (quotient.ap, quotient.acceptance, quotient.n_marks) == (
            a.ap,
            a.acceptance,
            a.n_marks,
        )
        assert bisim_quotient(quotient) == quotient
        if kind == "deterministic":
            assert is_deterministic(quotient) == is_deterministic(a)
            assert is_complete(quotient) == is_complete(a)
        merged[kind] += a.n_states - quotient.n_states
    assert min(merged.values()) >= 20, merged


def random_gba(rng: random.Random) -> Tela:
    """A `random_automaton` of 1-5 states over 0 or 1 atomic propositions
    and 3 marks, at density 0.3 or 0.6 so that many are incomplete, under a
    conjunction of 0-3 Inf atoms over random mark sets (0 atoms is t)."""
    a = random_automaton(
        rng,
        max_states=5,
        n_marks=3,
        n_ap=rng.randint(0, 1),
        density=rng.choice((0.3, 0.6)),
        mark_prob=0.4,
    )
    atoms = [Inf(rng.randrange(1, 8)) for _ in range(rng.randint(0, 3))]
    return a.with_acceptance(and_(atoms), a.n_marks)


def test_direct_simulation_matches_the_pairwise_oracle():
    rng = random.Random(1823)
    seen = dict.fromkeys(("k=0", "several initial", "incomplete", "proper pairs"), 0)
    for _ in range(400):
        a = random_gba(rng)
        sim = _direct_simulation(a, gba_marksets(a.acceptance))[0]
        states = range(a.n_states)
        pairs = {(q, r) for q in states for r in states if sim[q] >> r & 1}
        assert pairs == oracle_direct_simulation(a), a
        seen["k=0"] += a.acceptance == TRUE
        seen["several initial"] += len(a.initial) > 1
        seen["incomplete"] += not is_complete(a)
        seen["proper pairs"] += sum(q != r for q, r in pairs)
    assert min(seen.values()) >= 40, seen


def test_simulation_reduce_keeps_the_language_on_random_words():
    rng = random.Random(1824)
    removed = dict.fromkeys(("states", "transitions", "initial"), 0)
    for _ in range(300):
        a = random_gba(rng)
        r = simulation_reduce(a)
        assert (r.ap, r.acceptance, r.n_marks) == (a.ap, a.acceptance, a.n_marks)
        assert r.n_states <= a.n_states
        for _ in range(12):
            u, v = random_word(rng, a.n_letters)
            assert oracle_accepts(r, u, v) == oracle_accepts(a, u, v), (a, u, v)
        removed["states"] += a.n_states - r.n_states
        removed["transitions"] += len(a.transitions) - len(r.transitions)
        removed["initial"] += len(a.initial) - len(r.initial)
    assert min(removed.values()) >= 40, removed


def test_simulation_reduce_matches_the_two_pass_reference():
    """The breadth-first merge and prune equals the reference that merges
    and prunes every transition, then keeps the reachable part."""
    rng = random.Random(1826)
    seen = dict.fromkeys(("several initial", "unreached classes"), 0)
    for _ in range(300):
        a = random_gba(rng)
        r = simulation_reduce(a)
        assert r == oracle_simulation_reduce(a), a
        pairs = oracle_direct_simulation(a)
        classes = {
            frozenset(p for p in range(a.n_states) if {(q, p), (p, q)} <= pairs)
            for q in range(a.n_states)
        }
        seen["several initial"] += len(a.initial) > 1
        seen["unreached classes"] += r.n_states < len(classes)
    assert min(seen.values()) >= 40, seen


def test_simulation_reduce_needs_inf_only_acceptance():
    a = example_automaton()
    with pytest.raises(TelaError, match="generalized-Buchi"):
        simulation_reduce(a.with_acceptance(fin_(1), 1))
    # Every state of the example reads its own letters: nothing to reduce.
    assert simulation_reduce(a) == a


def test_simulation_pruning_keeps_siblings_that_dominate_each_other():
    """0 reads b into 1 or 2 with mark 0, and mark 1 on the way into 2 only;
    1 and 2 read a with mark 0 forever.  Acceptance Inf(0) ignores mark 1,
    so each of the two transitions dominates the other.  A rule dropping a
    transition that is merely dominated, not strictly, drops both and loses
    the word b a^w."""
    a = Tela(
        ap=("a",),
        n_states=3,
        initial=frozenset({0}),
        transitions=((0, 1, 1, 1), (0, 1, 2, 3), (1, 0, 1, 1), (2, 0, 2, 1)),
        acceptance=inf_(1),
        n_marks=2,
    )
    r = simulation_reduce(a)
    assert r.n_states == 2
    assert r.transitions == ((0, 1, 1, 1), (0, 1, 1, 3), (1, 0, 1, 1))
    assert oracle_accepts(r, (1,), (0,))


def test_simulation_drops_only_strictly_simulated_initial_states():
    """3 accepts everything.  Initial 0 reads a unmarked into 3 and initial 1
    reads a marked into 3, so 1 strictly simulates 0; initial 2 reads b into
    3 and is comparable with neither.  Only 0 goes, and with it its state."""
    a = Tela(
        ap=("a",),
        n_states=4,
        initial=frozenset({0, 1, 2}),
        transitions=(
            (0, 0, 3, 0), (1, 0, 3, 1), (2, 1, 3, 1), (3, 0, 3, 1), (3, 1, 3, 1)
        ),
        acceptance=inf_(1),
        n_marks=1,
    )
    r = simulation_reduce(a)
    assert r.n_states == 3
    assert r.initial == frozenset({0, 1})
    assert r.transitions == ((0, 0, 2, 1), (1, 1, 2, 1), (2, 0, 2, 1), (2, 1, 2, 1))
    for u, v in [((0,), (1,)), ((1,), (0,)), ((), (0, 1))]:
        assert oracle_accepts(r, u, v) == oracle_accepts(a, u, v)


def test_simulation_reduce_worked_example():
    """GF a & GF !a with set 0 on a and set 1 on !a (letter 1 is a).

    - 1 and 2 loop with the marks the condition needs; they simulate each
      other and merge.
    - 3 loops like them but without set 0 on a, and 4 loops with no marks,
      so 1 strictly simulates 3 and 3 strictly simulates 4.
    - 0 loops with set 0 on a, and without marks on both letters, and moves
      unmarked into 1 on both letters, into 2 on a and into 3 on !a.  1
      strictly simulates 0, so the unmarked loops lose to the moves into 1,
      and the move into 3 loses too.  The loop with set 0 on a stays.
    - Initial state 4 is strictly simulated by initial state 0 and goes.

    Left: 0 with its marked loop and its moves into the merged 1 and 2.
    """
    a = Tela(
        ap=("a",),
        n_states=5,
        initial=frozenset({0, 4}),
        transitions=(
            (0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 1),
            (0, 0, 1, 0), (0, 1, 1, 0), (0, 1, 2, 0), (0, 0, 3, 0),
            (1, 1, 1, 1), (1, 0, 1, 2), (2, 1, 2, 1), (2, 0, 2, 2),
            (3, 1, 3, 0), (3, 0, 3, 2), (4, 0, 4, 0), (4, 1, 4, 0),
        ),
        acceptance=and_([inf_(1), inf_(2)]),
        n_marks=2,
    )
    sim = _direct_simulation(a, gba_marksets(a.acceptance))[0]
    assert sim == [0b00111, 0b00110, 0b00110, 0b01110, 0b11111]
    r = simulation_reduce(a)
    assert (r.n_states, len(r.transitions)) == (2, 5)
    assert r.initial == frozenset({0})
    assert r.transitions == (
        (0, 0, 1, 0), (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 1, 2), (1, 1, 1, 1)
    )
    rng = random.Random(1825)
    for _ in range(40):
        u, v = random_word(rng, 2)
        assert oracle_accepts(r, u, v) == oracle_accepts(a, u, v)
