"""Acceptance suite: end-to-end checks that tie all modules together.

Each test covers one gate of the release checklist, in order: oracle
emptiness agreement, language contracts of the structural operations, the
CNF blow-up family, determinizer cross-equality, limit-deterministic
constructions with their state bounds, the worked MDP example, the
reference model-checking pipeline, HOA round trips over everything built
here, and a benchmark harness smoke run.

Automata produced while the earlier tests run are collected in REGISTRY so
the round-trip gate exercises exactly the material this suite generated.
"""

import random
import time

from tela import (
    accepts,
    complete,
    is_empty,
    parse_hoa,
    print_hoa,
)
from tela.acceptance import dnf_structure, gba_marksets
from tela.core import (
    BudgetExceeded,
    is_complete,
    is_deterministic,
    product,
    split,
    sum_automata,
    sum_gba,
)
from tela.determinize import (
    contains,
    determinize_product,
    determinize_via_gba,
)
from tela.limitdet import (
    build_gfm,
    build_ld,
    is_limit_deterministic,
    is_syntactically_limit_deterministic,
    limit_det_sum,
)
from tela.mdp import (
    mdp_product,
    pr_max_buchi,
    pr_max_tela,
    qualitative_positive,
    reference_pr_max,
)
from tela.randbench import cnf_blowup_automaton, parse_bench_config, run_benchmark
from tela.transforms import GBA_METHODS, ensure_dnf, remove_fin, remove_fin_gba, to_gba

from helpers import (
    example_automaton,
    example_mdp,
    mec_decomposition,
    random_automaton,
    random_mdp,
    singleton_seeded_gfm,
)
from oracles import brute_force_empty, oracle_accepts, random_word

COPY_METHODS = ("remfin_split", "split_remfin", "remfin_rewrite")

REGISTRY = [example_automaton(), cnf_blowup_automaton(2)]


def test_criterion_1_emptiness_agrees_with_brute_force():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(500):
        a = random_automaton(
            rng,
            max_states=6,
            n_marks=rng.randint(1, 6),
            n_ap=rng.choice((1, 2)),
            density=rng.choice((0.3, 0.5, 0.8)),
            mark_prob=rng.choice((0.2, 0.4, 0.7)),
        )
        REGISTRY.append(a)
        assert is_empty(a) == brute_force_empty(a)
    assert time.perf_counter() - start < 60.0


def test_criterion_2_structural_operation_language_contracts():
    rng = random.Random(202)
    done = draws = 0
    while done < 50:
        draws += 1
        assert draws < 300
        a = random_automaton(
            rng, max_states=3, n_marks=3, n_ap=1, density=0.6, mark_prob=0.4
        )
        b = random_automaton(
            rng, max_states=3, n_marks=2, n_ap=1, density=0.6, mark_prob=0.4
        )
        try:
            det_a = determinize_product(a, state_cap=300)
            det_b = determinize_product(b, state_cap=300)
        except BudgetExceeded:
            continue
        parts = split(a)
        removed = remove_fin(ensure_dnf(a))
        removed_gba = remove_fin_gba(ensure_dnf(a))
        ca, cb = complete(a), complete(b)
        union = sum_automata(ca, cb)
        union_gba = sum_gba(
            complete(to_gba(a, "remfin_rewrite")),
            complete(to_gba(b, "remfin_rewrite")),
        )
        union_prod = product(ca, cb, "or")
        inter_prod = product(det_a, det_b, "and")
        REGISTRY.extend(parts)
        REGISTRY.extend(
            [a, b, det_a, det_b, removed, removed_gba, union, union_gba,
             union_prod, inter_prod]
        )
        for _ in range(20):
            u, v = random_word(rng, 2)
            in_a = oracle_accepts(a, u, v)
            in_b = oracle_accepts(b, u, v)
            assert any(accepts(p, u, v) for p in parts) == in_a
            assert accepts(removed, u, v) == in_a
            assert accepts(removed_gba, u, v) == in_a
            assert accepts(union, u, v) == (in_a or in_b)
            assert accepts(union_gba, u, v) == (in_a or in_b)
            assert accepts(union_prod, u, v) == (in_a or in_b)
            assert accepts(inter_prod, u, v) == (in_a and in_b)
        done += 1


def test_criterion_3_cnf_blowup_family():
    for n in range(1, 9):
        a = cnf_blowup_automaton(n)
        outputs = {method: to_gba(a, method) for method in GBA_METHODS}
        assert outputs["cnf"].n_marks == 2**n
        for method in COPY_METHODS:
            assert outputs[method].n_marks <= 2
        REGISTRY.append(a)
        REGISTRY.extend(outputs.values())
        if n <= 4:
            dets = [determinize_product(a, state_cap=5000)]
            dets.extend(
                determinize_via_gba(a, method, 5000) for method in GBA_METHODS
            )
            for d in dets:
                assert is_deterministic(d)
                assert is_complete(d)
            for d in dets[1:]:
                assert contains(dets[0], d)
                assert contains(d, dets[0])
            REGISTRY.extend(dets)


def test_criterion_4_determinizers_cross_equal():
    rng = random.Random(404)
    start = time.perf_counter()
    done = draws = 0
    while done < 30:
        draws += 1
        assert draws < 300
        a = random_automaton(
            rng,
            max_states=4,
            n_marks=rng.randint(2, 6),
            n_ap=1,
            density=0.5,
            mark_prob=0.4,
            dnf_only=True,
            max_dnf_atoms=6,
        )
        try:
            outputs = [
                determinize_product(a, langcover=True, state_cap=300),
                determinize_product(a, langcover=False, state_cap=300),
            ]
            outputs.extend(
                determinize_via_gba(a, method, 300) for method in GBA_METHODS
            )
        except BudgetExceeded:
            continue
        for d in outputs:
            assert is_deterministic(d)
            assert is_complete(d)
        for d in outputs[1:]:
            assert contains(outputs[0], d)
            assert contains(d, outputs[0])
        REGISTRY.append(a)
        REGISTRY.extend(outputs)
        done += 1
    assert time.perf_counter() - start < 600.0


def limit_det_suite():
    """The shared instance set for the two limit-determinization gates."""
    rng = random.Random(505)
    suite = []
    for _ in range(30):
        a = random_automaton(
            rng,
            max_states=5,
            n_marks=rng.randint(2, 5),
            n_ap=1,
            density=0.5,
            mark_prob=0.4,
            dnf_only=True,
            max_dnf_atoms=6,
        )
        words = [random_word(rng, 2) for _ in range(20)]
        suite.append((a, words))
    return suite


def test_criterion_5_limit_det_constructions():
    for a, words in limit_det_suite():
        d = ensure_dnf(a)
        dnf = dnf_structure(d.acceptance)
        n = d.n_states
        m = len(dnf.disjuncts)
        k = max((len(x.infs) for x in dnf.disjuncts), default=0)
        ld = build_ld(d)
        gfm = build_gfm(d)
        assert is_syntactically_limit_deterministic(ld)
        assert is_syntactically_limit_deterministic(gfm)
        assert ld.n_states <= n + 3**n * m * (k + 1)
        assert gfm.n_states <= 2**n + 3**n * m * (k + 1)
        for u, v in words:
            expected = oracle_accepts(a, u, v)
            assert accepts(ld, u, v) == expected
            assert accepts(gfm, u, v) == expected
        REGISTRY.extend([a, ld, gfm])


def test_criterion_6_limit_det_sum():
    for a, words in limit_det_suite():
        out = limit_det_sum(a)
        assert is_limit_deterministic(out)
        for u, v in words:
            assert accepts(out, u, v) == oracle_accepts(a, u, v)
        REGISTRY.append(out)


def test_criterion_7_worked_example_end_to_end():
    m = example_mdp()
    a = example_automaton()
    assert m.n_states == 4
    assert a.n_states == 8
    assert abs(pr_max_tela(m, a) - 1.0) <= 1e-6

    broken = singleton_seeded_gfm(a)
    assert pr_max_buchi(mdp_product(m, complete(broken))) <= 0.5 + 1e-6
    REGISTRY.extend([a, broken])


def mdp_suite():
    """The shared MDP/automaton pairs for the two model-checking gates."""
    rng = random.Random(808)
    suite = []
    for _ in range(20):
        m = random_mdp(rng, atoms=("a",))
        a = random_automaton(rng, max_states=3, n_marks=2, ap=("a",))
        suite.append((m, a))
    return suite


def test_criterion_8_reference_pipeline_agreement():
    for m, a in mdp_suite():
        assert abs(pr_max_tela(m, a) - reference_pr_max(m, a)) <= 1e-6
        REGISTRY.append(a)


def finless_positive(m, gfm):
    """Fast positivity check for Fin-free automata: some maximal end
    component of the product carries every acceptance set."""
    prod = mdp_product(m, complete(gfm))
    sets = gba_marksets(prod.acceptance)
    assert sets is not None
    for ec in mec_decomposition(prod):
        marks = 0
        for s, action_ids in ec.actions.items():
            for aid in action_ids:
                marks |= prod.actions[s][aid].marks
        if all(marks & bits for bits in sets):
            return True
    return False


def test_criterion_9_qualitative_consistency():
    for m, a in mdp_suite():
        reference = reference_pr_max(m, a)
        gfm = build_gfm(ensure_dnf(a))
        positive = qualitative_positive(m, gfm)
        assert positive == (reference > 1e-6)
        assert positive == finless_positive(m, gfm)
        REGISTRY.append(gfm)


def test_criterion_10_hoa_round_trip_of_everything_built_here():
    assert len(REGISTRY) > 1000
    for a in REGISTRY:
        text = print_hoa(a)
        assert print_hoa(a) == text
        assert parse_hoa(text) == a


def test_criterion_11_benchmark_smoke():
    config = parse_bench_config(
        "pipeline=gba\n"
        "family=random\n"
        "instances=50\n"
        "states=4..6\n"
        "marks=8\n"
        "seed=11\n"
        "validate_words=10\n"
    )
    report = run_benchmark(config)
    assert len(report.results) == 50
    assert report.mismatches == []
    assert report.language_checks >= 1000
    for info, per_method in zip(report.instances, report.results):
        for method in COPY_METHODS:
            record = per_method[method]
            assert record["status"] == "ok"
            assert record["marks"] <= info["dnf_len"]

    fig2 = run_benchmark(parse_bench_config("pipeline=gba\nfamily=fig2\nfig2=1..6\n"))
    assert fig2.mismatches == []
    for i, n in enumerate(range(1, 7)):
        cnf_marks = fig2.results[i]["cnf"]["marks"]
        assert cnf_marks == 2**n
        for method in COPY_METHODS:
            assert fig2.results[i][method]["marks"] <= 2
            if n >= 2:
                assert cnf_marks > fig2.results[i][method]["marks"]
