"""Tests for MDP parsing, products, end components, and model checking."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from tela import (
    FALSE,
    Mdp,
    MdpError,
    MdpParseError,
    NotLimitDeterministicError,
    Tela,
    TRUE,
    accepts,
    bisim_quotient,
    build_gfm,
    build_ld,
    complete,
    ensure_dnf,
    fin_,
    inf_,
    mdp_product,
    or_,
    parse_mdp,
    pr_max_buchi,
    pr_max_tela,
    qualitative_positive,
    reference_pr_max,
)
import tela.mdp as mdp_module
from tela.acceptance import dnf_structure, to_dnf
from tela.core import BudgetExceeded
from tela.limitdet import _add_breakpoint_parts, canonical_partition, limit_det_violation
from tela.mdp import MdpAction, _accepting_mecs, _explore_product, _max_reach

from helpers import (
    breakpoint_automaton,
    example_automaton,
    example_mdp,
    mec_decomposition,
    random_automaton,
    random_mdp,
    singleton_seeded_gfm,
)
from oracles import oracle_max_reach, oracle_mecs


def a_loop_mdp():
    return parse_mdp("states 1\nlabel 0 {a}\ntrans 0 stay 0 1\n")


def det_letter_watcher(marked_letter):
    """One complete deterministic state marking exactly one letter."""
    return Tela(
        ap=("a",),
        n_states=1,
        initial=frozenset({0}),
        transitions=tuple(
            (0, letter, 0, 1 if letter == marked_letter else 0) for letter in (0, 1)
        ),
        acceptance=inf_(1),
        n_marks=1,
    )


def test_parse_mdp_example():
    m = example_mdp()
    assert m.n_states == 4
    assert m.initial == 0
    assert m.labels == (
        frozenset(),
        frozenset({"p"}),
        frozenset({"q"}),
        frozenset({"p", "q"}),
    )
    assert all(len(acts) == 1 and acts[0].name == "go" for acts in m.actions)
    assert m.actions[0][0].dist == ((2, Fraction(1, 2)), (3, Fraction(1, 2)))


def test_parse_mdp_defaults():
    m = parse_mdp("states 2\ntrans 0 a 1 1\ntrans 1 a 0 1\n")
    assert m.initial == 0
    assert m.labels == (frozenset(), frozenset())


def test_parse_mdp_comments_and_blank_lines():
    m = parse_mdp("# intro\nstates 1\n\ntrans 0 a 0 1  # loop\n")
    assert m.n_states == 1


def test_parse_mdp_line_errors():
    cases = [
        ("states 1\nstates 1\ntrans 0 a 0 1\n", 2),
        ("states 1\ninitial 0\ninitial 0\ntrans 0 a 0 1\n", 3),
        ("states 1\nbogus 0\ntrans 0 a 0 1\n", 2),
        ("states 1\nlabel 0 a\ntrans 0 a 0 1\n", 2),
        ("states 1\nlabel 0 {a}\nlabel 0 {b}\ntrans 0 a 0 1\n", 3),
        ("states 1\ntrans 0 a 0\n", 2),
        ("states 1\ntrans 0 a 0 1/2\ntrans 0 a 0 1/2\n", 3),
        ("states 1\nlabel 0 {a,}\ntrans 0 a 0 1\n", 2),
    ]
    for text, lineno in cases:
        with pytest.raises(MdpParseError) as info:
            parse_mdp(text)
        assert info.value.lineno == lineno, text
        assert f"line {lineno}:" in str(info.value)
    with pytest.raises(MdpParseError) as info:
        parse_mdp("trans 0 a 0 1\n")
    assert info.value.lineno == 0


def test_parse_mdp_rejects_a_second_initial_line():
    text = "states 2\ninitial 0\n# the last one used to win\ninitial 1\n"
    text += "trans 0 a 0 1\ntrans 1 a 1 1\n"
    with pytest.raises(MdpParseError) as info:
        parse_mdp(text)
    assert str(info.value) == "line 4: duplicate initial line"


def test_parse_mdp_lets_a_budget_failure_through(monkeypatch):
    """A time limit expiring inside the parse stays a BudgetExceeded, not a
    parse error of the line being read."""

    def expire(text):
        raise BudgetExceeded("time limit of 1 s exceeded", "time")

    monkeypatch.setattr(mdp_module, "Fraction", expire)
    with pytest.raises(BudgetExceeded) as info:
        parse_mdp("states 1\ntrans 0 a 0 1\n")
    assert not isinstance(info.value, MdpParseError)
    assert info.value.kind == "time"


def test_parse_mdp_semantic_errors():
    with pytest.raises(MdpError):
        parse_mdp("states 1\ntrans 0 a 0 1/2\n")
    with pytest.raises(MdpError):
        parse_mdp("states 1\ntrans 0 a 0 0\ntrans 0 a 0 1\n")
    with pytest.raises(MdpError):
        parse_mdp("states 2\ntrans 0 a 0 1\n")
    with pytest.raises(MdpError):
        parse_mdp("states 1\ninitial 3\ntrans 0 a 0 1\n")
    with pytest.raises(MdpError):
        parse_mdp("states 1\ntrans 1 a 1 1\n")
    with pytest.raises(MdpError):
        parse_mdp("states 1\nlabel 4 {a}\ntrans 0 a 0 1\n")
    with pytest.raises(MdpError):
        Mdp(
            n_states=1,
            initial=0,
            labels=(frozenset(),),
            actions=((MdpAction("a", ((0, Fraction(1, 2)),)),),),
        )


def test_parse_mdp_semantic_errors_name_their_line():
    cases = [
        ("states 1\ntrans 0 a 0 1/2\n", 2, "sums to 1/2"),
        ("states 1\ntrans 0 a 0 0\ntrans 0 a 0 1\n", 2, "must be positive"),
        ("states 2\ntrans 0 a 0 1\n", 1, "state 1 has no action"),
        ("states 1\ninitial 3\ntrans 0 a 0 1\n", 2, "initial state 3"),
        ("states 1\ntrans 1 a 1 1\n", 2, "transition source 1"),
        ("states 1\nlabel 4 {a}\ntrans 0 a 0 1\n", 2, "unknown state 4"),
        ("states 2\ntrans 1 a 1 1\ntrans 0 a 0 1/2\ntrans 0 a 5 1/2\n", 4, "target 5"),
    ]
    for text, lineno, fragment in cases:
        with pytest.raises(MdpParseError) as info:
            parse_mdp(text)
        assert info.value.lineno == lineno, text
        assert str(info.value).startswith(f"line {lineno}: "), text
        assert fragment in str(info.value), text


def test_parse_mdp_builds_the_constructors_mdp_checking_each_action_once(monkeypatch):
    """On seeded texts, with states in shuffled order and labels sometimes
    left out, `parse_mdp` equals the `Mdp` that the public constructor builds
    and checks from the same fields, and it checks each action once."""
    checked = []
    check = mdp_module._check_action

    def counting(s, act, n_states, error):
        checked.append((s, act.name))
        return check(s, act, n_states, error)

    monkeypatch.setattr(mdp_module, "_check_action", counting)
    rng = random.Random(523)
    for _ in range(200):
        n = rng.randint(1, 5)
        initial = rng.randrange(n)
        labels = tuple(
            frozenset(x for x in ("p", "q") if rng.random() < 0.5) for _ in range(n)
        )
        actions = []
        for _ in range(n):
            acts = []
            for i in range(rng.randint(1, 3)):
                targets = rng.sample(range(n), rng.randint(1, n))
                weights = [rng.randint(1, 4) for _ in targets]
                total = sum(weights)
                dist = tuple((t, Fraction(w, total)) for t, w in zip(targets, weights))
                acts.append(MdpAction(f"a{i}", dist))
            actions.append(tuple(acts))
        lines = [f"states {n}", f"initial {initial}"]
        for s in rng.sample(range(n), n):
            if labels[s] or rng.random() < 0.5:
                lines.append(f"label {s} {{{','.join(sorted(labels[s]))}}}")
            for act in actions[s]:
                lines.extend(f"trans {s} {act.name} {t} {p}" for t, p in act.dist)
        checked.clear()
        parsed = parse_mdp("\n".join(lines) + "\n")
        assert sorted(checked) == [(s, act.name) for s in range(n) for act in actions[s]]
        built = Mdp(n_states=n, initial=initial, labels=labels, actions=tuple(actions))
        assert type(parsed) is Mdp
        assert parsed == built
        assert hash(parsed) == hash(built)


def test_mdp_product_requires_single_initial_state():
    with pytest.raises(MdpError):
        mdp_product(example_mdp(), example_automaton())


def test_mdp_product_requires_covering_labels():
    outside = parse_mdp("states 1\nlabel 0 {z}\ntrans 0 a 0 1\n")
    with pytest.raises(MdpError):
        mdp_product(outside, det_letter_watcher(1))


def random_partial_buchi(rng: random.Random) -> Tela:
    """A deterministic Buchi automaton over the atom a with 1-3 states, in
    which each (state, letter) slot has a transition with probability 0.7."""
    n = rng.randint(1, 3)
    transitions = tuple(
        (q, letter, rng.randrange(n), rng.randint(0, 1))
        for q in range(n)
        for letter in (0, 1)
        if rng.random() < 0.7
    )
    return Tela(
        ap=("a",),
        n_states=n,
        initial=frozenset({0}),
        transitions=transitions,
        acceptance=inf_(1),
        n_marks=1,
    )


def test_a_partial_automaton_has_the_value_of_its_completion():
    """A product state whose MDP action has no automaton move has no action:
    it reaches no accepting end component, so its value is 0, as the
    rejecting sink of the completion gives it.  The product with a partial
    deterministic Buchi automaton has the value of the product with its
    completion and of reference_pr_max, on trap MDPs where many values lie
    strictly between 0 and 1."""
    rng = random.Random(475)
    dead_ends = strictly_between = 0
    for _ in range(300):
        m = labelled_trap_mdp(rng)
        a = random_partial_buchi(rng)
        p = mdp_product(m, a)
        got = pr_max_buchi(p)
        assert abs(got - pr_max_buchi(mdp_product(m, complete(a)))) <= 1e-9
        assert abs(got - reference_pr_max(m, a)) <= 1e-9
        dead_ends += not all(p.actions)
        strictly_between += 1e-9 < got < 1 - 1e-9
    assert dead_ends >= 100
    assert strictly_between >= 30


def test_mdp_product_with_deterministic_automaton_keeps_actions():
    m = example_mdp()
    watcher = Tela(
        ap=("p", "q"),
        n_states=1,
        initial=frozenset({0}),
        transitions=tuple((0, letter, 0, letter & 1) for letter in range(4)),
        acceptance=inf_(1),
        n_marks=1,
    )
    prod = mdp_product(m, watcher)
    assert prod.n_states == m.n_states
    for i, (s, _) in enumerate(prod.states):
        assert [a.name for a in prod.actions[i]] == [a.name for a in m.actions[s]]
    assert prod.states[prod.initial] == (m.initial, 0)


def test_every_action_support_lists_its_targets_in_order():
    rng = random.Random(468)
    for _ in range(100):
        a = random_automaton(rng, max_states=3, n_marks=2, ap=("p", "q"))
        m = random_mdp(rng, max_states=4)
        for acts in m.actions:
            for act in acts:
                assert act.support == tuple(t for t, _ in act.dist)
                assert act.probs == tuple(p for _, p in act.dist)
        prod = mdp_product(m, complete(build_gfm(ensure_dnf(a))))
        assert all(type(state) is tuple and len(state) == 2 for state in prod.states)
        for (s, _), acts in zip(prod.states, prod.actions):
            by_name = {mdp_act.name: mdp_act for mdp_act in m.actions[s]}
            for act in acts:
                assert act.support == tuple(t for t, _ in act.dist)
                assert tuple(act) == (act.name, act.marks, act.support, act.probs)
                assert act == (act.name, act.marks, act.support, act.probs)
                assert act.probs is by_name[act.name].probs
                assert act.dist == tuple(zip(act.support, act.probs))


def test_mdp_product_small_shape():
    m = a_loop_mdp()
    two = Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=tuple((q, letter, 1 - q, q) for q in (0, 1) for letter in (0, 1)),
        acceptance=inf_(1),
        n_marks=1,
    )
    prod = mdp_product(m, two)
    assert prod.n_states <= 2
    assert prod.acceptance == two.acceptance


def test_breakpoint_product_reaches_a_half_probability_trap():
    # Entering the breakpoint component from the singleton {a1 b1} commits to
    # b1 successors only; reading b2 right after is then impossible, which
    # caps the acceptance probability at one half.
    ex = example_automaton()
    m = example_mdp()
    bp = breakpoint_automaton(replace(ex, initial=frozenset({0})))
    sink = bp.n_states
    prod = mdp_product(m, complete(bp))
    index = {s: i for i, s in enumerate(prod.states)}
    # The automaton tracks {b1 a1, b1 a2} right after the first letter; with
    # probability 1/2 the chain moves to the b2-labeled state 3.
    trap_states = [
        i
        for (s, q), i in index.items()
        if s == 3 and q != sink and not bp.succ(q, 3)
    ]
    assert trap_states
    for i in trap_states:
        for act in prod.actions[i]:
            assert all(prod.states[t][1] == sink for t, _ in act.dist)
    assert abs(pr_max_buchi(prod) - 0.5) <= 1e-6


def test_mec_decomposition_basics():
    single = parse_mdp("states 1\ntrans 0 a 0 1\n")
    mecs = mec_decomposition(single)
    assert len(mecs) == 1
    assert mecs[0].states == frozenset({0})
    two_abs = parse_mdp(
        "states 3\n"
        "trans 0 a 1 1/2\n"
        "trans 0 a 2 1/2\n"
        "trans 1 b 1 1\n"
        "trans 2 c 2 1\n"
    )
    mecs = mec_decomposition(two_abs)
    assert [sorted(m.states) for m in mecs] == [[1], [2]]


def test_mec_decomposition_excludes_transient_states():
    chain = parse_mdp(
        "states 3\ntrans 0 a 1 1\ntrans 1 a 2 1\ntrans 2 a 2 1\n"
    )
    mecs = mec_decomposition(chain)
    assert len(mecs) == 1
    assert mecs[0].states == frozenset({2})


def test_mec_invariants_on_random_mdps():
    rng = random.Random(460)
    for _ in range(30):
        m = random_mdp(rng)
        mecs = mec_decomposition(m)
        seen = set()
        for mec in mecs:
            assert not mec.states & seen
            seen |= mec.states
            for s, aids in mec.actions.items():
                assert aids
                for aid in aids:
                    support = {t for t, _ in m.actions[s][aid].dist}
                    assert support <= mec.states


def test_mecs_match_the_subset_oracle():
    rng = random.Random(463)
    for _ in range(300):
        m = random_mdp(rng, max_states=5)
        got = [(mec.states, mec.actions) for mec in mec_decomposition(m)]
        assert got == oracle_mecs(m)


def test_qualitative_positive_basics():
    m = a_loop_mdp()
    assert qualitative_positive(m, det_letter_watcher(1))
    assert not qualitative_positive(m, det_letter_watcher(0))


def test_qualitative_positive_checks_labels_without_start_or_disjunct():
    no_start = replace(det_letter_watcher(1), initial=frozenset())
    never = det_letter_watcher(1).with_acceptance(FALSE, 1)
    labelled_b = parse_mdp("states 1\nlabel 0 {b}\ntrans 0 stay 0 1\n")
    for a in (no_start, never):
        with pytest.raises(MdpError, match=r"label of state 0 uses \['b'\]"):
            qualitative_positive(labelled_b, a)
        assert not qualitative_positive(a_loop_mdp(), a)


def test_qualitative_positive_on_the_example():
    m = example_mdp()
    ex = example_automaton()
    assert qualitative_positive(m, build_gfm(ex))
    with pytest.raises(NotLimitDeterministicError) as info:
        qualitative_positive(m, ex)
    witness = info.value.witness
    q_n, _ = canonical_partition(ex)
    assert witness.cycle
    assert {t[0] for t in witness.cycle} <= q_n
    assert witness.cycle_marks() & 1


def test_pr_max_buchi_extremes():
    m = a_loop_mdp()
    prod = mdp_product(m, det_letter_watcher(1))
    assert pr_max_buchi(prod) == 1.0
    assert pr_max_buchi(mdp_product(m, det_letter_watcher(0))) == 0.0


def test_pr_max_buchi_is_exactly_one_on_a_self_loop_with_exit():
    # State 0 stays with probability 1/2 and moves to an a-loop with 1/2.
    m = parse_mdp(
        "states 2\n"
        "label 1 {a}\n"
        "trans 0 go 0 1/2\n"
        "trans 0 go 1 1/2\n"
        "trans 1 stay 1 1\n"
    )
    assert pr_max_buchi(mdp_product(m, det_letter_watcher(1))) == 1.0


def assert_max_reach_matches_the_oracle(m: Mdp, target: set[int]) -> Fraction:
    """Compare _max_reach with the exact oracle: equal where the oracle
    gives 0 or 1, within 1e-9 elsewhere.  Returns the oracle's value."""
    got = _max_reach(m.actions, m.initial, target)
    want = oracle_max_reach(m.actions, m.initial, target)
    if want in (0, 1):
        assert got == want
    else:
        assert abs(got - float(want)) <= 1e-9
    return want


def test_max_reach_matches_the_exact_oracle():
    rng = random.Random(464)
    for _ in range(300):
        m = random_mdp(rng, max_states=5)
        target = {s for s in range(m.n_states) if rng.random() < 0.3}
        assert_max_reach_matches_the_oracle(m, target)


def trap_mdp(rng: random.Random) -> Mdp:
    """Random MDP whose last two states are absorbing, with random weights,
    so that the maximal probability of reaching the last state often lies
    strictly between 0 and 1."""
    n = rng.randint(3, 6)
    actions = []
    for _ in range(n - 2):
        acts = []
        for i in range(rng.randint(1, 2)):
            succ = rng.sample(range(n), rng.randint(1, 3))
            weights = [rng.randint(1, 3) for _ in succ]
            dist = tuple((t, Fraction(w, sum(weights))) for t, w in zip(succ, weights))
            acts.append(MdpAction(f"a{i}", dist))
        actions.append(tuple(acts))
    for s in (n - 2, n - 1):
        actions.append((MdpAction("stay", ((s, Fraction(1)),)),))
    return Mdp(n, 0, (frozenset(),) * n, tuple(actions))


def test_max_reach_matches_the_exact_oracle_between_0_and_1():
    rng = random.Random(465)
    strictly_between = 0
    for _ in range(300):
        m = trap_mdp(rng)
        want = assert_max_reach_matches_the_oracle(m, {m.n_states - 1})
        strictly_between += 0 < want < 1
    assert strictly_between >= 100


def test_pr_max_buchi_requires_buchi():
    prod = mdp_product(a_loop_mdp(), det_letter_watcher(1))
    bad = replace(prod, acceptance=TRUE, n_marks=1)
    with pytest.raises(MdpError):
        pr_max_buchi(bad)


def test_pr_max_buchi_branching_chain():
    m = parse_mdp(
        "states 3\n"
        "label 1 {a}\n"
        "trans 0 go 1 3/4\n"
        "trans 0 go 2 1/4\n"
        "trans 1 stay 1 1\n"
        "trans 2 stay 2 1\n"
    )
    got = pr_max_buchi(mdp_product(m, det_letter_watcher(1)))
    assert abs(got - 0.75) <= 1e-9


def test_pr_max_values_stay_probabilities():
    rng = random.Random(461)
    for _ in range(15):
        m = random_mdp(rng, atoms=("a",))
        a = random_automaton(rng, max_states=3, n_marks=2, ap=("a",))
        p = pr_max_tela(m, a)
        assert -1e-9 <= p <= 1 + 1e-9


def test_pr_max_tela_on_the_example():
    m = example_mdp()
    ex = example_automaton()
    assert abs(pr_max_tela(m, ex) - 1.0) <= 1e-6
    assert abs(reference_pr_max(m, ex) - 1.0) <= 1e-6


def test_singleton_bridges_lose_probability_on_the_example():
    m = example_mdp()
    gs = complete(singleton_seeded_gfm(example_automaton()))
    assert pr_max_buchi(mdp_product(m, gs)) <= 0.5 + 1e-6


def test_reference_matches_gfm_pipeline():
    rng = random.Random(462)
    for _ in range(8):
        m = random_mdp(rng, atoms=("a",))
        a = random_automaton(rng, max_states=3, n_marks=2, ap=("a",))
        assert abs(pr_max_tela(m, a) - reference_pr_max(m, a)) <= 1e-6


def reach_question(actions, initial: int, target: set[int]):
    """The same maximal reachability question, small enough for the
    scheduler-enumerating oracle: (actions, initial, target) where node 0
    stands for the whole target and node 1 for every state that cannot
    reach it, both absorbing, each state keeps one action per distinct
    distribution, and only nodes reachable from the initial one remain."""
    preds: dict[int, set[int]] = {}
    for s, acts in enumerate(actions):
        for act in acts:
            for t, _ in act.dist:
                preds.setdefault(t, set()).add(s)
    can = set(target)
    stack = list(target)
    while stack:
        for s in preds.get(stack.pop(), ()):
            if s not in can:
                can.add(s)
                stack.append(s)
    index = {"hit": 0, "miss": 1}
    order = ["hit", "miss"]

    def node(s: int) -> int:
        key = "hit" if s in target else s if s in can else "miss"
        if key not in index:
            index[key] = len(order)
            order.append(key)
        return index[key]

    start = node(initial)
    out = []
    for key in order:
        if key in ("hit", "miss"):
            out.append([MdpAction("stay", ((index[key], Fraction(1)),))])
            continue
        dists = {}
        for act in actions[key]:
            agg: dict[int, Fraction] = {}
            for t, p in act.dist:
                agg[node(t)] = agg.get(node(t), Fraction(0)) + p
            dists.setdefault(tuple(sorted(agg.items())), None)
        out.append([MdpAction("go", dist) for dist in dists])
    return out, start, {0}


def labelled_trap_mdp(rng: random.Random) -> Mdp:
    """Like trap_mdp, over the atom a: 3-5 states, the moving ones with a
    random label and usually one action, and the two absorbing ones read
    !a and a, so that the maximal probability of a language that tells
    (!a)^w from a^w apart often lies strictly between 0 and 1."""
    n = rng.randint(3, 5)
    labels = [frozenset({"a"} if rng.random() < 0.5 else ()) for _ in range(n - 2)]
    actions = []
    for _ in range(n - 2):
        acts = []
        for i in range(1 if rng.random() < 0.7 else 2):
            succ = rng.sample(range(n), rng.randint(1, 3))
            weights = [rng.randint(1, 3) for _ in succ]
            dist = tuple((t, Fraction(w, sum(weights))) for t, w in zip(succ, weights))
            acts.append(MdpAction(f"a{i}", dist))
        actions.append(tuple(acts))
    for s in (n - 2, n - 1):
        actions.append((MdpAction("stay", ((s, Fraction(1)),)),))
    return Mdp(n, 0, (*labels, frozenset(), frozenset({"a"})), tuple(actions))


def test_quotiented_pipeline_matches_the_oracle_between_0_and_1():
    """pr_max_tela, which quotients the GFM automaton, and reference_pr_max,
    whose Safra parts are quotients too, each against the exact oracle on
    the unquotiented GFM product, on trap MDPs and one-state automata that
    tell a^w from (!a)^w apart, so a fault of the quotient cannot cancel
    out between the two.  The oracle tries every scheduler, so it runs
    where there are at most 100."""
    rng = random.Random(472)
    compared = strictly_between = 0
    for _ in range(400):
        m = labelled_trap_mdp(rng)
        while True:
            a = random_automaton(rng, max_states=1, n_marks=2, ap=("a",))
            if accepts(a, (), (0,)) != accepts(a, (), (1,)):
                break
        got = pr_max_tela(m, a)
        reference = reference_pr_max(m, a)
        assert abs(got - reference) <= 1e-9
        p = mdp_product(m, complete(build_gfm(ensure_dnf(a))))
        target = set()
        for mec in _accepting_mecs(p.actions, to_dnf(p.acceptance)):
            target |= mec.states
        question = reach_question(p.actions, p.initial, target)
        schedulers = 1
        for acts in question[0]:
            schedulers *= len(acts)
        if schedulers <= 100:
            want = oracle_max_reach(*question)
            assert abs(got - float(want)) <= 1e-9
            assert abs(reference - float(want)) <= 1e-9
            compared += 1
            strictly_between += 0 < want < 1
    assert compared >= 350
    assert strictly_between >= 100


def test_breakpoint_components_leave_out_a_dead_trap():
    """State 0 loops marked on a and also moves on a into an unmarked trap,
    the only state with a transition on !a.  The trap is dead: no
    breakpoint state of build_ld or build_gfm holds it, so none has a !a
    transition, and a seed of dead states alone gives no component.  The
    language is a^w, and pr_max_tela still matches the exact oracle."""
    trap = Tela(
        ap=("a",),
        n_states=2,
        initial=frozenset({0}),
        transitions=((0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 1, 0)),
        acceptance=inf_(1),
        n_marks=1,
    )
    # build_ld keeps the input in front; build_gfm's subsets {0}, {0,1} and
    # {1} come first.  Each component is the two states of the seed {0}.
    for built, front in ((build_ld(trap), 2), (build_gfm(trap), 3)):
        assert built.n_states == front + 2
        assert not any(s >= front and letter == 0 for s, letter, _, _ in built.transitions)
    transitions = []
    assert _add_breakpoint_parts(trap, [0b10], [(0, 1, 0b10)], transitions, 2) == 2
    assert transitions == []
    m = parse_mdp(
        "states 3\nlabel 0 {a}\nlabel 1 {a}\nlabel 2 {}\n"
        "trans 0 x 1 1/3\ntrans 0 x 2 2/3\ntrans 0 y 2 1\n"
        "trans 1 stay 1 1\ntrans 2 stay 2 1\n"
    )
    p = mdp_product(m, complete(build_gfm(trap)))
    target = set()
    for mec in _accepting_mecs(p.actions, to_dnf(p.acceptance)):
        target |= mec.states
    want = oracle_max_reach(*reach_question(p.actions, p.initial, target))
    assert want == Fraction(1, 3)
    assert abs(pr_max_tela(m, trap) - float(want)) <= 1e-9


def test_qualitative_positive_is_the_same_without_the_quotient():
    """qualitative_positive quotients build_ld's automaton: its answer
    equals the accepting-MEC criterion on the unquotiented product and
    whether reference_pr_max is positive, and every quotient is still
    limit-deterministic."""
    rng = random.Random(473)
    merged = 0
    for _ in range(150):
        m = labelled_trap_mdp(rng)
        a = random_automaton(rng, max_states=3, n_marks=2, ap=("a",))
        ld = ensure_dnf(build_ld(ensure_dnf(a)))
        quotient = bisim_quotient(ld)
        merged += ld.n_states - quotient.n_states
        assert limit_det_violation(quotient) is None
        _, actions = _explore_product(m, ld)
        unquotiented = any(_accepting_mecs(actions, dnf_structure(ld.acceptance)))
        positive = qualitative_positive(m, ld)
        assert positive == unquotiented == (reference_pr_max(m, a) > 1e-9)
    assert merged >= 150


def test_qualitative_positive_reads_inf_less_disjuncts():
    """qualitative_positive reads the DNF of its automaton as given, where a
    disjunct may carry no Inf atom: the answer equals the one on the
    ensure_dnf rewrite and whether reference_pr_max is positive."""
    rng = random.Random(474)
    checked = 0
    for _ in range(120):
        m = labelled_trap_mdp(rng)
        a = random_automaton(rng, max_states=3, n_marks=2, ap=("a",))
        fin = fin_(1 << rng.randrange(2))
        phi = rng.choice([TRUE, fin, or_([a.acceptance, fin])])
        a = a.with_acceptance(phi, a.n_marks)
        if limit_det_violation(a) is not None:
            continue
        checked += 1
        positive = qualitative_positive(m, a)
        assert positive == qualitative_positive(m, ensure_dnf(a))
        assert positive == (reference_pr_max(m, a) > 1e-9)
    assert checked >= 40
