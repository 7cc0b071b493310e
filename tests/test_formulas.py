"""Tests for the acceptance-condition algebra."""

import random

import pytest

from tela import (
    AcceptanceError,
    And,
    DnfAcceptance,
    DnfDisjunct,
    FALSE,
    Fin,
    Inf,
    NotInDnfError,
    Or,
    TRUE,
    and_,
    dnf_length,
    evaluate,
    fin_,
    format_acceptance,
    inf_,
    is_finless,
    length,
    negate,
    or_,
    parse_acceptance,
    to_dnf,
)
from tela.acceptance import (
    absorb_dnf,
    dnf_formula,
    dnf_structure,
    finless_to_gba,
    gba_marksets,
    offset_dnf,
)

from helpers import random_dnf_formula, random_formula
from oracles import eval_marks


def blowup_formula(n):
    """Disjunction over i of Inf(2i) & Inf(2i+1), the worst case for CNF."""
    return or_([and_([inf_(1 << (2 * i)), inf_(1 << (2 * i + 1))]) for i in range(n)])


def all_seen(n_marks):
    return range(1 << n_marks)


def test_evaluate_basics():
    assert evaluate(0, TRUE)
    assert not evaluate(0, FALSE)
    assert evaluate(1, inf_(1))
    assert not evaluate(2, inf_(1))
    assert evaluate(0, fin_(1))
    assert not evaluate(1, fin_(1))
    assert evaluate(1, and_([inf_(1), fin_(2)]))
    assert not evaluate(3, and_([inf_(1), fin_(2)]))
    # Inf over a set holds if any member recurs, Fin needs all members to stop.
    assert evaluate(2, Inf(3))
    assert not evaluate(2, Fin(3))
    assert evaluate(3, blowup_formula(2))
    assert not evaluate(5, blowup_formula(2))


def test_evaluate_matches_independent_reference():
    rng = random.Random(401)
    for _ in range(200):
        phi = random_formula(rng, n_marks=4)
        for seen in all_seen(4):
            assert evaluate(seen, phi) == eval_marks(phi, seen)


def test_length_counts_expanded_atoms():
    assert length(TRUE) == 1
    assert length(FALSE) == 1
    assert length(inf_(1)) == 1
    assert length(fin_(3)) == 2
    assert length(Inf(7)) == 3
    assert length(And((Inf(1), Inf(1)))) == 2
    assert length(blowup_formula(3)) == 6


def test_constructors_canonicalize():
    assert inf_(0) == FALSE
    assert fin_(0) == TRUE
    # and_ drops TRUE, short-circuits FALSE, merges Fin siblings only.
    assert and_([TRUE, inf_(1)]) == inf_(1)
    assert and_([FALSE, inf_(1)]) == FALSE
    assert and_([fin_(1), inf_(4), fin_(2)]) == And((Fin(3), Inf(4)))
    assert and_([inf_(1), inf_(1)]) == And((Inf(1), Inf(1)))
    # or_ is dual: drops FALSE, short-circuits TRUE, merges Inf siblings only.
    assert or_([FALSE, fin_(1)]) == fin_(1)
    assert or_([TRUE, fin_(1)]) == TRUE
    assert or_([inf_(1), inf_(2)]) == Inf(3)
    assert or_([fin_(1), fin_(2)]) == Or((Fin(1), Fin(2)))
    assert and_([inf_(1)]) == inf_(1)
    assert and_([]) == TRUE
    assert or_([]) == FALSE


def test_to_dnf_examples():
    assert to_dnf(fin_(3)) == DnfAcceptance((DnfDisjunct(3, ()),))
    assert to_dnf(inf_(1)) == DnfAcceptance((DnfDisjunct(0, (1,)),))
    assert to_dnf(TRUE) == DnfAcceptance((DnfDisjunct(0, ()),))
    assert to_dnf(FALSE) == DnfAcceptance(())
    assert to_dnf(blowup_formula(2)) == DnfAcceptance(
        (DnfDisjunct(0, (1, 2)), DnfDisjunct(0, (4, 8)))
    )
    # Fin atoms of one disjunct merge; duplicate Inf sets are dropped.
    phi = and_([fin_(1), or_([inf_(4), fin_(2)]), inf_(4)])
    dnf = to_dnf(phi)
    assert dnf == DnfAcceptance((DnfDisjunct(1, (4,)), DnfDisjunct(3, (4,))))


def test_to_dnf_preserves_semantics():
    rng = random.Random(402)
    for _ in range(200):
        phi = random_formula(rng, n_marks=4)
        dnf = to_dnf(phi)
        for seen in all_seen(4):
            assert any(d.holds(seen) for d in dnf.disjuncts) == evaluate(seen, phi)
        assert dnf_length(dnf) <= 2 ** length(phi)


def assert_absorbed(phi, n_marks):
    """`absorb_dnf` of phi's DNF against phi on every mark set, with no
    kept disjunct implying another on the mark sets (so none is
    unsatisfiable), no kept Inf set containing another of its disjunct,
    and no kept Inf set meeting its disjunct's Fin set."""
    dnf = absorb_dnf(to_dnf(phi))
    marks = list(all_seen(n_marks))
    for seen in marks:
        assert any(d.holds(seen) for d in dnf.disjuncts) == evaluate(seen, phi), phi
    models = [{seen for seen in marks if d.holds(seen)} for d in dnf.disjuncts]
    for i, d in enumerate(dnf.disjuncts):
        assert models[i], (phi, d)
        assert not any(models[i] <= models[j] for j in range(len(models)) if j != i)
        assert not any(s & d.fin for s in d.infs), (phi, d)
        for j, s in enumerate(d.infs):
            assert not any(t & ~s == 0 for t in d.infs[:j] + d.infs[j + 1 :]), (phi, d)
    return dnf


def test_absorb_dnf_against_the_formula_on_every_mark_set():
    rng = random.Random(408)
    for _ in range(300):
        assert_absorbed(random_formula(rng, n_marks=4), 4)
    for _ in range(100):
        assert_absorbed(random_dnf_formula(rng, n_marks=3), 3)


def test_absorb_dnf_examples():
    def absorbed(*disjuncts):
        return DnfAcceptance(tuple(DnfDisjunct(f, infs) for f, infs in disjuncts))

    cases = [
        # A Fin-only disjunct absorbs those with more Fin marks.
        (
            or_([fin_(1), and_([fin_(3), inf_(4)]), and_([fin_(2), inf_(4)])]),
            absorbed((1, ()), (2, (4,))),
        ),
        # An Inf set inside the Fin set cannot recur; one that meets it
        # loses the shared marks.
        (
            or_([and_([fin_(1), inf_(1)]), and_([fin_(2), inf_(3)]), inf_(8)]),
            absorbed((2, (1,)), (0, (8,))),
        ),
        # Disjuncts equal after the Fin subtraction, or up to the order of
        # their Inf sets: the first stays.
        (
            or_([and_([fin_(1), inf_(6)]), and_([inf_(7), fin_(1)])]),
            absorbed((1, (6,))),
        ),
        (
            or_([
                and_([inf_(2), inf_(4)]),
                and_([fin_(8), inf_(1)]),
                and_([inf_(4), inf_(2)]),
            ]),
            absorbed((0, (2, 4)), (8, (1,))),
        ),
        # Implication chains keep only their weakest disjunct.
        (
            or_([
                and_([inf_(1), inf_(2), inf_(4)]),
                and_([inf_(1), inf_(2)]),
                and_([fin_(8), inf_(1)]),
                inf_(1),
            ]),
            absorbed((0, (1,))),
        ),
        (
            or_([
                and_([fin_(6), inf_(8)]),
                and_([fin_(2), inf_(8)]),
                and_([fin_(0), inf_(8)]),
            ]),
            absorbed((0, (8,))),
        ),
        # Within a disjunct only the minimal Inf sets stay, in order.
        (and_([inf_(3), inf_(6), inf_(1)]), absorbed((0, (6, 1)))),
        (and_([fin_(1), inf_(3), inf_(2)]), absorbed((1, (2,)))),
        (FALSE, absorbed()),
        (TRUE, absorbed((0, ()))),
    ]
    for phi, want in cases:
        assert assert_absorbed(phi, 4) == want, phi


def test_dnf_length_counts_all_as_single_atom():
    assert dnf_length(to_dnf(fin_(3))) == 3
    assert dnf_length(to_dnf(TRUE)) == 1
    assert dnf_length(to_dnf(FALSE)) == 0
    assert dnf_length(to_dnf(blowup_formula(2))) == 4


def test_offset_dnf_shifts_marks():
    dnf = to_dnf(and_([fin_(1), inf_(2)]))
    shifted = offset_dnf(dnf, 3)
    assert shifted == DnfAcceptance((DnfDisjunct(8, (16,)),))
    # A disjunct without Inf sets keeps none.
    assert offset_dnf(to_dnf(fin_(1)), 2) == DnfAcceptance((DnfDisjunct(4, ()),))


def test_dnf_structure_round_trip():
    rng = random.Random(403)
    for _ in range(100):
        phi = random_formula(rng, n_marks=4)
        dnf = to_dnf(phi)
        if any(not d.infs for d in dnf.disjuncts):
            continue
        assert dnf_structure(dnf_formula(dnf)) == dnf
    with pytest.raises(NotInDnfError):
        dnf_structure(fin_(1))
    with pytest.raises(NotInDnfError):
        dnf_structure(or_([inf_(1), fin_(4)]))
    # A formula not written in DNF is distributed as `to_dnf` does.
    phi = and_([inf_(1), or_([inf_(2), fin_(4)])])
    assert dnf_structure(phi) == to_dnf(phi)


def test_finless_to_gba_examples():
    assert finless_to_gba(TRUE) == []
    assert finless_to_gba(Or((Inf(3), Inf(12)))) == [15]
    assert finless_to_gba(and_([inf_(1), inf_(2), inf_(4)])) == [1, 2, 4]
    sets = finless_to_gba(blowup_formula(10))
    assert len(sets) == 1024
    with pytest.raises(AcceptanceError):
        finless_to_gba(fin_(1))


def test_finless_to_gba_preserves_semantics():
    rng = random.Random(404)
    checked = 0
    while checked < 60:
        phi = random_formula(rng, n_marks=4)
        if not is_finless(phi):
            continue
        checked += 1
        sets = finless_to_gba(phi)
        back = and_([Inf(s) for s in sets]) if sets else TRUE
        for seen in all_seen(4):
            assert evaluate(seen, back) == evaluate(seen, phi)


def test_gba_marksets_recognizes_conjunctions_of_inf():
    assert gba_marksets(TRUE) == []
    assert gba_marksets(inf_(1)) == [1]
    assert gba_marksets(And((Inf(1), Inf(6)))) == [1, 6]
    assert gba_marksets(fin_(1)) is None
    assert gba_marksets(or_([inf_(1), inf_(1) if False else fin_(2)])) is None


def test_negate_examples():
    assert negate(TRUE) == FALSE
    assert negate(FALSE) == TRUE
    assert negate(inf_(1)) == fin_(1)
    assert negate(fin_(1)) == inf_(1)
    phi = and_([inf_(1), or_([fin_(2), inf_(4)])])
    psi = negate(phi)
    for seen in all_seen(3):
        assert evaluate(seen, psi) == (not evaluate(seen, phi))


def test_negate_is_an_involution():
    rng = random.Random(405)
    for _ in range(100):
        phi = random_formula(rng, n_marks=4)
        assert negate(negate(phi)) == phi


def test_equivalent():
    pairs = [
        (And((Fin(1), Fin(2))), fin_(3), 2, True),
        (Inf(3), or_([inf_(1), inf_(2)]), 2, True),
        (inf_(1), fin_(1), 1, False),
        (TRUE, or_([inf_(1), fin_(1)]), 1, True),
    ]
    for phi, psi, n_marks, same in pairs:
        agree = all(
            eval_marks(phi, seen) == eval_marks(psi, seen)
            for seen in range(1 << n_marks)
        )
        assert agree == same


def test_format_acceptance_expands_mark_sets():
    assert format_acceptance(TRUE) == "t"
    assert format_acceptance(FALSE) == "f"
    assert format_acceptance(inf_(1)) == "Inf(0)"
    assert format_acceptance(Inf(3)) == "Inf(0) | Inf(1)"
    assert format_acceptance(Fin(3)) == "Fin(0) & Fin(1)"
    assert format_acceptance(and_([fin_(3), inf_(1)])) == "Fin(0) & Fin(1) & Inf(0)"
    phi = or_([and_([Inf(3), fin_(1)]), inf_(4)])
    assert format_acceptance(phi) == "(Inf(0) | Inf(1)) & Fin(0) | Inf(2)"


def test_parse_acceptance_examples():
    assert parse_acceptance("t") == TRUE
    assert parse_acceptance("f") == FALSE
    assert parse_acceptance("Fin(0) & Inf(1)") == and_([fin_(1), inf_(2)])
    assert parse_acceptance("Inf(0) | Inf(1)") == Inf(3)
    assert parse_acceptance("(Fin(0)|Inf(1))&Inf(0)") == and_(
        [or_([fin_(1), inf_(2)]), inf_(1)]
    )


def test_parse_format_round_trip_is_structural():
    rng = random.Random(406)
    for _ in range(200):
        phi = random_formula(rng, n_marks=5)
        assert parse_acceptance(format_acceptance(phi)) == phi


def test_parse_acceptance_errors():
    for bad in ["", "Inf", "Inf(", "Inf(x)", "Inf(0", "Inf(0))", "t t", "Inf(0) &"]:
        with pytest.raises(AcceptanceError):
            parse_acceptance(bad)
    with pytest.raises(AcceptanceError):
        parse_acceptance("Inf(3)", n_marks=3)
    assert parse_acceptance("Inf(2)", n_marks=3) == inf_(4)
