"""Tests for limit-deterministic and good-for-MDP constructions."""

import random
import time
import tracemalloc
from dataclasses import replace

import pytest

from tela import (
    FALSE,
    TRUE,
    BudgetExceeded,
    Tela,
    TelaError,
    accepts,
    and_,
    build_gfm,
    build_ld,
    canonical_partition,
    fin_,
    inf_,
    or_,
    is_deterministic,
    is_limit_deterministic,
    is_syntactically_limit_deterministic,
    limit_det_sum,
    random_tela,
    sample_lassos,
    time_limit,
)
from tela.acceptance import DnfDisjunct, dnf_structure, to_dnf
from tela.determinize import (
    degeneralize,
    determinize_product,
    equivalent_deterministic,
    safra_determinize,
)
from tela.core import _SparseRow, accepting_scc_states, complete, post_masks
from tela.limitdet import (
    GFM_STATE_LIMIT,
    _breakpoint_explore,
    _live_mask,
    limit_det_violation,
)
from tela.transforms import ensure_dnf, to_gba

from helpers import (
    breakpoint_automaton,
    example_automaton,
    random_automaton,
    shifted_from,
)
from oracles import (
    eval_marks,
    oracle_accepts,
    oracle_breakpoint_explore,
    oracle_breakpoint_live,
    oracle_limit_det,
    oracle_live_states,
    oracle_nondet_part,
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


def nondet_accepting_loop():
    """State 0 guesses between a marked self-loop and a rejecting sink."""
    return Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=(
            (0, 0, 0, 1),
            (0, 0, 1, 0),
            (0, 1, 0, 1),
            (1, 0, 1, 0),
            (1, 1, 1, 0),
        ),
        acceptance=inf_(1),
        n_marks=1,
    )


def random_dnf_automaton(rng, **kw):
    return ensure_dnf(random_automaton(rng, dnf_only=True, **kw))


def test_canonical_partition_deterministic_input():
    q_n, q_d = canonical_partition(universal_buchi())
    assert q_n == frozenset()
    assert q_d == frozenset({0})


def test_canonical_partition_closure_under_predecessors():
    a = nondet_accepting_loop()
    q_n, q_d = canonical_partition(a)
    assert q_n == frozenset({0})
    assert q_d == frozenset({1})
    rng = random.Random(450)
    for _ in range(30):
        b = random_automaton(rng, n_marks=2, ap=("a",))
        q_n, q_d = canonical_partition(b)
        assert q_n | q_d == frozenset(range(b.n_states))
        assert not q_n & q_d
        # No transition may leave the deterministic part.
        for s, _, d, _ in b.transitions:
            if s in q_d:
                assert d in q_d


def test_limit_det_violation_witness():
    a = nondet_accepting_loop()
    lasso = limit_det_violation(a)
    assert lasso is not None
    assert not is_limit_deterministic(a)
    q_n, _ = canonical_partition(a)
    for s, _, d, _ in (*lasso.prefix, *lasso.cycle):
        assert s in q_n and d in q_n
    assert lasso.cycle_marks() & 1
    u, v = lasso.word()
    assert accepts(a, u, v)


def test_limit_det_checks_cost_the_used_states_not_the_declared_ones():
    """Both checks read Q_N as a bitmask and never build Q_D, so an automaton
    that declares 2^20 states but uses one or two answers as the small one
    does, within a few megabytes."""
    for a, limit_det in ((universal_buchi(), True), (nondet_accepting_loop(), False)):
        big = replace(a, n_states=1 << 20)
        tracemalloc.start()
        try:
            violation = limit_det_violation(big)
            syntactic = is_syntactically_limit_deterministic(big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert violation == limit_det_violation(a)
        assert (violation is None) == syntactic == limit_det


def test_a_marked_jump_out_of_q_n_is_not_syntactically_limit_deterministic():
    """State 0 guesses when to jump to state 1, and the jump carries the Inf
    mark: no accepting cycle stays in Q_N = {0}, but the marked transition
    has one end in Q_N, so the syntactic check says no."""
    a = Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=((0, 0, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (1, 1, 1, 1)),
        acceptance=inf_(1),
        n_marks=1,
    )
    assert canonical_partition(a) == (frozenset({0}), frozenset({1}))
    assert is_limit_deterministic(a)
    assert not is_syntactically_limit_deterministic(a)


def random_limit_det_case(rng):
    """A random automaton of at most six states over one or two APs with
    random-el, dnf, TRUE, FALSE or Inf-less-disjunct acceptance."""
    n_marks = rng.randint(4, 5)
    a = random_tela(
        n_states=rng.randint(4, 6),
        n_marks=n_marks,
        edge_density=rng.uniform(0.1, 0.4),
        mark_prob=0.3,
        acc=rng.choice(("random-el", "dnf")),
        seed=rng.randrange(10**6),
        n_ap=rng.randint(1, 2),
    )
    kind = rng.randrange(6)
    if kind == 3:
        return a.with_acceptance(TRUE, n_marks)
    if kind == 4:
        return a.with_acceptance(FALSE, n_marks)
    if kind == 5:
        m1, m2, m3 = rng.sample(range(n_marks), 3)
        phi = or_([fin_(1 << m1), and_([inf_(1 << m2), fin_(1 << m3)])])
        return a.with_acceptance(phi, n_marks)
    return a


def test_limit_det_violation_matches_oracle():
    rng = random.Random(459)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        a = random_limit_det_case(rng)
        lasso = limit_det_violation(a)
        verdicts[lasso is None] += 1
        assert (lasso is None) == oracle_limit_det(a)
        if lasso is None:
            continue
        q_n = oracle_nondet_part(a)
        path = (*lasso.prefix, *lasso.cycle)
        assert path[0][0] in a.initial
        assert lasso.cycle[-1][2] == lasso.cycle[0][0]
        for t, nxt in zip(path, path[1:]):
            assert t[2] == nxt[0]
        for t in path:
            assert t in a.transitions
            assert t[0] in q_n and t[2] in q_n
        assert accepts(a, *lasso.word())
        assert eval_marks(a.acceptance, lasso.cycle_marks())
    assert min(verdicts.values()) >= 20, verdicts


def test_limit_deterministic_basics():
    assert is_limit_deterministic(universal_buchi())
    # Nondeterminism that only feeds the deterministic part is fine.
    ok = Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=(
            (0, 0, 0, 0),
            (0, 0, 1, 0),
            (0, 1, 0, 0),
            (1, 0, 1, 1),
            (1, 1, 1, 1),
        ),
        acceptance=inf_(1),
        n_marks=1,
    )
    assert is_limit_deterministic(ok)
    assert is_syntactically_limit_deterministic(ok)
    assert not is_syntactically_limit_deterministic(nondet_accepting_loop())


def test_syntactic_check_implies_semantic():
    rng = random.Random(451)
    for _ in range(40):
        a = random_dnf_automaton(rng, n_marks=3, ap=("a",))
        if is_syntactically_limit_deterministic(a):
            assert is_limit_deterministic(a)


def test_breakpoint_explore_invariants():
    rng = random.Random(452)
    for _ in range(25):
        a = random_dnf_automaton(rng, n_marks=3, ap=("a",))
        dnf = dnf_structure(a.acceptance)
        seeds = [1 << q for q in range(a.n_states)]
        for disjunct in dnf.disjuncts:
            k = len(disjunct.infs)
            live = _live_mask(a, disjunct.fin, disjunct.infs)
            order, trans = _breakpoint_explore(
                a, disjunct.fin, disjunct.infs, seeds, live
            )
            for r, b, level in order:
                assert r
                assert not r & ~live
                assert not b & ~r
                assert 0 <= level <= k
            for si, _, di, brk in trans:
                src_level = order[si][2]
                r2, b2, dst_level = order[di]
                if brk:
                    assert b2 == 0
                    # Level 0 is only the seeds' entry step: every break,
                    # that step's included, goes to the next level in 1..k.
                    assert dst_level == src_level % k + 1
                else:
                    assert dst_level == src_level
                    assert b2 != r2


def mask(states):
    return sum(1 << q for q in states)


def test_live_mask_matches_the_oracle():
    """`_live_mask` against one emptiness check per state, for every DNF
    disjunct and two disjuncts with no Inf set, on random_tela inputs, on
    small random automata and on one that declares far more states than it
    uses, whose `post_masks` rows are sparse.  The Buchi case that Safra
    asks, `accepting_scc_states` with no Fin set and one Inf set, is
    checked against the cycle oracle for every mark."""
    rng = random.Random(455)
    inputs = [
        random_tela(
            n_states=4,
            n_marks=3,
            edge_density=rng.choice((0.2, 0.3, 0.5)),
            mark_prob=0.3,
            seed=rng.randrange(2**32),
            n_ap=1,
        )
        for _ in range(30)
    ] + [random_dnf_automaton(rng, n_marks=3, ap=("a",)) for _ in range(30)]
    inputs.append(shifted_from(complete(inputs[0]), 1, 60))
    dead = sparse = 0
    for a in inputs:
        sparse += type(post_masks(a)[0]) is _SparseRow
        disjuncts = list(to_dnf(a.acceptance).disjuncts) + [
            DnfDisjunct(0, ()),
            DnfDisjunct(1 << rng.randrange(3), ()),
        ]
        for d in disjuncts:
            want = mask(oracle_breakpoint_live(a, d.fin, d.infs))
            assert _live_mask(a, d.fin, d.infs) == want
            dead += bin(want).count("1") < a.n_states
        for acc in (1, 2, 4):
            want = oracle_live_states(a, acc)
            assert accepting_scc_states(a.transitions, 0, (acc,)) == want
    assert dead > 50
    assert sparse >= 1


def test_breakpoint_explore_matches_oracle():
    """The exploration against the oracle's, both cut down to the live
    states and over every state."""
    rng = random.Random(454)
    for _ in range(60):
        a = random_dnf_automaton(rng, n_marks=3, ap=("a", "b")[: rng.randint(1, 2)])
        states = range(a.n_states)
        seeds = [frozenset({q}) for q in states] + [
            frozenset(rng.sample(states, rng.randint(1, a.n_states)))
            for _ in range(2)
        ]
        rng.shuffle(seeds)
        disjuncts = list(dnf_structure(a.acceptance).disjuncts) + [
            DnfDisjunct(0, ()),
            DnfDisjunct(1 << rng.randrange(3), ()),
        ]
        masks = [mask(r) for r in seeds]
        for d in disjuncts:
            live = oracle_breakpoint_live(a, d.fin, d.infs)
            for kept in (live, frozenset(states)):
                want_order, want_trans = oracle_breakpoint_explore(
                    a, d.fin, d.infs, seeds, kept
                )
                order, trans = _breakpoint_explore(a, d.fin, d.infs, masks, mask(kept))
                assert order == [(mask(r), mask(b), level) for r, b, level in want_order]
                assert trans == tuple((s, l, t, int(brk)) for s, l, t, brk in want_trans)


def test_a_dead_run_no_longer_blocks_a_break():
    """State 0 loops marked on a and unmarked on !a, and also moves on !a
    into state 1, which loops unmarked on a and is dead.  From the seed {0}
    on !a a^w, the untrimmed component keeps state 1 in R, which B never
    covers, so it rejects; the trimmed one drops it and accepts the word,
    which the input accepts too."""
    a = Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=((0, 1, 0, 1), (0, 0, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)),
        acceptance=inf_(1),
        n_marks=1,
    )
    live = _live_mask(a, 0, (1,))
    assert live == 0b01
    verdicts = []
    for kept in (0b11, live):
        order, trans = _breakpoint_explore(a, 0, (1,), [0b01], kept)
        component = Tela(
            ap=a.ap,
            n_states=len(order),
            initial=frozenset({0}),
            transitions=trans,
            acceptance=inf_(1),
            n_marks=1,
        )
        verdicts.append(accepts(component, (0,), (1,)))
    assert verdicts == [False, True]
    assert oracle_accepts(a, (0,), (1,))


def test_breakpoint_component_universal_loop():
    bc = breakpoint_automaton(universal_buchi())
    assert bc.n_states == 2
    assert bc.initial == frozenset({0})
    assert is_deterministic(bc)
    assert accepts(bc, (), (1,))
    assert accepts(bc, (), (0, 1))


def test_breakpoint_component_is_deterministic():
    """On 20 random DNF automata, of which the conditions that absorb to
    false have no component to check."""
    rng = random.Random(453)
    checked = 0
    for _ in range(20):
        a = random_dnf_automaton(rng, n_marks=3, ap=("a",))
        bc = breakpoint_automaton(a)
        if bc is None:
            assert a.acceptance == FALSE
            continue
        assert is_deterministic(bc)
        assert bc.acceptance == inf_(1)
        checked += 1
    assert checked == 18


def test_build_ld_layout_on_the_eight_state_example():
    ex = example_automaton()
    ld = build_ld(ex)
    # 8 input states plus 14 breakpoint states: after the seeds' entry step
    # no breakpoint state sits at level 0.
    assert ld.n_states == 22
    assert ld.initial == ex.initial
    assert ld.acceptance == inf_(1)
    assert ld.n_marks == 1
    # The input sits unmarked in front; marks live inside the components and
    # no component transition returns to the input part.
    n = ex.n_states
    for s, _, d, marks in ld.transitions:
        if marks:
            assert s >= n
        if s >= n:
            assert d >= n
    assert is_syntactically_limit_deterministic(ld)
    assert is_limit_deterministic(ld)


def test_build_ld_trap_after_wrong_guess():
    # Entering the component right after the first letter commits to the
    # current breakpoint set; from {a1 b1} the sets for both b-letters
    # include only b1 successors, so the letter b2 has no continuation.
    ex = example_automaton()
    ld = build_ld(ex)
    bridge = ld.succ(8, 0)
    assert len(bridge) == 1
    s_star = bridge[0][2]
    assert s_star >= ex.n_states
    assert ld.succ(s_star, 3) == ()
    assert ld.succ(s_star, 2) != ()


def test_build_ld_preserves_language():
    rng = random.Random(454)
    for _ in range(20):
        a = random_dnf_automaton(rng, n_marks=3, ap=("a",))
        ld = build_ld(a)
        assert is_syntactically_limit_deterministic(ld)
        for u, v in sample_lassos(a, 10, seed=rng.randrange(10**6)):
            assert accepts(ld, u, v) == oracle_accepts(a, u, v)


def test_build_gfm_shape_on_the_eight_state_example():
    ex = example_automaton()
    g = build_gfm(ex)
    assert g.initial == frozenset({0})
    assert g.acceptance == inf_(1)
    # From the initial subset on the first letter: one subset move plus one
    # bridge per nonempty subset of the four successors.
    assert len(g.succ(0, 0)) == 16
    assert is_syntactically_limit_deterministic(g)


def test_build_gfm_preserves_language():
    rng = random.Random(455)
    for _ in range(15):
        a = random_dnf_automaton(rng, max_states=3, n_marks=3, ap=("a",))
        g = build_gfm(a)
        for u, v in sample_lassos(a, 10, seed=rng.randrange(10**6)):
            assert accepts(g, u, v) == oracle_accepts(a, u, v)


def test_build_gfm_refuses_large_inputs():
    big = Tela(
        ap=("a",),
        n_states=GFM_STATE_LIMIT + 1,
        initial=frozenset({0}),
        transitions=tuple(
            (q, 0, (q + 1) % (GFM_STATE_LIMIT + 1), 1)
            for q in range(GFM_STATE_LIMIT + 1)
        ),
        acceptance=inf_(1),
        n_marks=1,
    )
    with pytest.raises(TelaError):
        build_gfm(big)


def test_constructions_agree_on_deterministic_buchi():
    rng = random.Random(456)
    for _ in range(10):
        a = random_automaton(rng, max_states=3, n_marks=1, ap=("a",)).with_acceptance(
            inf_(1), 1
        )
        ld = build_ld(a)
        g = build_gfm(a)
        for _ in range(10):
            u, v = random_word(rng, 2)
            expected = accepts(a, u, v)
            assert accepts(ld, u, v) == expected
            assert accepts(g, u, v) == expected


def test_limit_det_sum_single_disjunct_is_deterministic():
    a = universal_buchi().with_acceptance(and_([fin_(1), inf_(1)]), 1)
    # One DNF disjunct means no sum at all, just one determinized part.
    out = limit_det_sum(ensure_dnf(a))
    assert is_deterministic(out)
    assert is_limit_deterministic(out)


def test_limit_det_sum_stops_at_its_state_cap():
    # Uncapped, limit_det_sum builds 49121 states on this input.
    a = random_tela(
        n_states=4, n_marks=4, edge_density=0.4, mark_prob=0.3, acc="dnf",
        seed=7, n_ap=1,
    )
    with pytest.raises(BudgetExceeded):
        limit_det_sum(a, state_cap=100)


def test_limit_det_sum_stops_at_a_time_limit():
    # Uncapped, limit_det_sum runs for more than 2 s on this input.
    a = random_tela(
        n_states=5, n_marks=4, edge_density=0.4, mark_prob=0.3, acc="dnf",
        seed=0, n_ap=2,
    )
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        with time_limit(0.2):
            limit_det_sum(a)
    assert info.value.kind == "time"
    assert time.perf_counter() - start < 1.0


def test_limit_det_sum_properties():
    rng = random.Random(457)
    for _ in range(10):
        a = random_automaton(rng, max_states=3, n_marks=2, ap=("a",))
        out = limit_det_sum(a)
        assert is_limit_deterministic(out)
        assert limit_det_violation(out) is None
        for u, v in sample_lassos(a, 8, seed=rng.randrange(10**6)):
            assert accepts(out, u, v) == accepts(a, u, v)


def test_limit_det_sum_matches_determinization():
    rng = random.Random(458)
    done = 0
    while done < 5:
        a = random_automaton(rng, max_states=3, n_marks=2, ap=("a",))
        out = limit_det_sum(a)
        det = determinize_product(a, state_cap=300)
        done += 1
        for _ in range(10):
            u, v = random_word(rng, 2)
            assert accepts(out, u, v) == accepts(det, u, v)


def test_gfm_nondeterministic_part_is_the_subset_part():
    ex = example_automaton()
    g = build_gfm(ex)
    # Recount the reachable subset states independently.
    subsets = {frozenset(ex.initial)}
    frontier = [frozenset(ex.initial)]
    while frontier:
        p = frontier.pop()
        for letter in range(ex.n_letters):
            theta = frozenset(d for q in p for _, _, d, _ in ex.succ(q, letter))
            if theta and theta not in subsets:
                subsets.add(theta)
                frontier.append(theta)
    q_n, _ = canonical_partition(g)
    assert q_n <= frozenset(range(len(subsets)))


def padded(a: Tela, k: int) -> Tela:
    """`a` declaring k more states, which no transition touches."""
    return replace(a, n_states=a.n_states + k)


def safra_or_budget(b: Tela):
    """Safra's result on `b` under a 200-state cap, or the cap's message."""
    try:
        return safra_determinize(b, state_cap=200)
    except BudgetExceeded as exc:
        return str(exc)


def test_unused_states_leave_the_successor_table_constructions_alone():
    """States that no transition touches change nothing: Safra and
    build_gfm (up to its state limit) return the same automaton with or
    without them, and build_ld the same one with its breakpoint states
    numbered past them.  Padding a complete automaton turns its post_masks
    rows from lists into dicts, so the two forms are compared too."""
    determinized = 0
    forms = set()
    for seed in range(30):
        a = ensure_dnf(
            random_tela(
                n_states=4,
                n_marks=4,
                edge_density=0.3,
                mark_prob=0.3,
                acc="dnf" if seed % 2 else "random-el",
                seed=seed,
                n_ap=1 + seed % 2,
            )
        )
        b = degeneralize(to_gba(a, "remfin_split"))
        d = safra_or_budget(b)
        determinized += isinstance(d, Tela)
        for k in (1, 700):
            assert safra_or_budget(padded(b, k)) == d
        for x in (a, complete(a)):
            forms |= {type(post_masks(y)[0]) for y in (x, padded(x, 700))}
            ld = build_ld(x)
            for k in (1, 700):
                assert build_ld(padded(x, k)) == shifted_from(ld, x.n_states, k)
            gfm = build_gfm(x)
            for k in (1, GFM_STATE_LIMIT - x.n_states):
                assert build_gfm(padded(x, k)) == gfm
    assert determinized >= 10
    assert forms == {list, _SparseRow}
