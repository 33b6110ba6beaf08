"""Evidence and verdicts: sampling semantics, witnesses, recheck,
decision tree, exhaustive verifiers."""

import math
import random

import pytest

from _oracles import brute_gmg_passing
from linmono import engine
from linmono.engine import (Evidence, disc_nonsquare_witness, normalize,
                            normalizer_incompatibility_witness,
                            order_lcm_evidence, recheck, sample_cycle_types,
                            verdict, verify_alternating_char2,
                            verify_disc_lemma, verify_factor_identity,
                            verify_gmg, verify_normalizer)
from linmono.ff import make_field, parse_field_spec
from linmono.group import gl_census, normalizer_census
from linmono.linpoly import LinPoly, parse_linpoly

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F9 = make_field(3, 2)

X27 = parse_linpoly(F3, "0,0,0,1")          # x^27
X27X3 = parse_linpoly(F3, "0,1,0,1")        # x^27 + x^3
CHAR2_GOOD = parse_linpoly(F2, "0,1,1,1")   # x^8 + x^4 + x^2
CHAR2_BAD = parse_linpoly(F2, "0,1,0,1")    # x^8 + x^2


def test_normalize_moves_a0_into_t():
    L = parse_linpoly(F3, "2,1,0,1")
    Ln, shifted = normalize(L)
    assert shifted
    assert Ln.coeff_objs() == [0, 1, 0, 1]
    Ln2, shifted2 = normalize(Ln)
    assert not shifted2
    assert Ln2.coeff_objs() == [0, 1, 0, 1]


def test_sample_budget_and_ordering():
    run = sample_cycle_types(X27X3, range(1, 7), budget=12)
    assert len(run.samples) == 12
    # small fields are exhausted in ascending index order first
    assert [(s.k, s.alpha_index) for s in run.samples] == sorted(
        (s.k, s.alpha_index) for s in run.samples)
    ks = [s.k for s in run.samples]
    assert ks.count(1) == 2      # all of F_3^*
    assert ks.count(2) == 8      # all of F_9^*
    assert ks.count(3) == 2      # remaining budget
    assert run.skipped == 0


def test_sample_cycle_types_sum_and_fixed_point():
    run = sample_cycle_types(X27X3, range(1, 4), budget=15)
    for s in run.samples:
        assert sum(s.cycle_type) == 26
        # alpha itself is a rational root of the specialization, so
        # every sampled element fixes a point
        assert 1 in s.cycle_type


def test_sample_skip_counting():
    # x^9 - x^3 = (x^3 - x)^3 vanishes exactly on F_3, so both k=1
    # draws are skipped, as are the embedded copies inside F_9
    L = parse_linpoly(F3, "0,2,1")
    run = sample_cycle_types(L, [1], budget=10)
    assert run.samples == ()
    assert run.skipped == 2
    run2 = sample_cycle_types(L, [1, 2], budget=6)
    assert run2.skipped == 4
    assert len(run2.samples) == 4
    assert [(s.k, s.alpha_index) for s in run2.samples] \
        == [(2, 3), (2, 4), (2, 5), (2, 6)]


def test_sample_determinism_and_seed_dependence():
    a = sample_cycle_types(X27X3, range(1, 5), budget=10, seed=0)
    b = sample_cycle_types(X27X3, range(1, 5), budget=10, seed=0)
    assert a == b
    # exhaustive ranges are seed-independent by design
    c = sample_cycle_types(X27X3, range(1, 5), budget=10, seed=5)
    assert [(s.k, s.alpha_index) for s in c.samples] \
        == [(s.k, s.alpha_index) for s in a.samples]


def test_sample_rejects_bad_k_range():
    with pytest.raises(ValueError):
        sample_cycle_types(X27, [], budget=5)
    with pytest.raises(ValueError):
        sample_cycle_types(X27, [0, 1], budget=5)


def test_sample_requires_base_coefficients():
    L = LinPoly(F3, [0, F9.element_at(4), F9.one()], field=F9)
    with pytest.raises(ValueError):
        sample_cycle_types(L, [1], budget=2)


def test_dedekind_soundness_n2_q3_exhaustive():
    """Engine invariant: every cycle type sampled from any monic L of
    q-degree 2 over F_3 occurs in the GL(2, 3) census; for the monomial
    it occurs in the Singer-normalizer census.  Exhaustive over all
    alpha in F_{3^k}, k <= 4."""
    gl = gl_census(2, F3)
    nc = normalizer_census(2, F3)
    for a0 in range(3):
        for a1 in range(3):
            L = LinPoly(F3, [a0, a1, 1])
            run = sample_cycle_types(L, range(1, 5), budget=10 ** 6)
            assert run.samples, L.coeff_objs()
            for s in run.samples:
                assert s.cycle_type in gl, (L.coeff_objs(), s)
    mono = sample_cycle_types(parse_linpoly(F3, "0,0,1"),
                              range(1, 5), budget=10 ** 6)
    for s in mono.samples:
        assert s.cycle_type in nc, s


def test_order_lcm_evidence():
    run = sample_cycle_types(X27X3, range(1, 3), budget=10)
    lcm = order_lcm_evidence(run.samples)
    check = 1
    for s in run.samples:
        for d in s.cycle_type:
            check = math.lcm(check, d)
    assert lcm == check
    assert 11232 % lcm == 0  # divides |GL(3,3)|
    with pytest.raises(ValueError):
        order_lcm_evidence([])


def test_order_lcm_monotone_in_samples():
    run = sample_cycle_types(X27X3, range(1, 5), budget=12)
    prev = 1
    for i in range(1, len(run.samples) + 1):
        cur = order_lcm_evidence(run.samples[:i])
        assert cur % prev == 0
        prev = cur


def test_normalizer_incompatibility_witness_found():
    # x^27 + x^3 at k=2 gives type (1,1,4,...,4): fixed point plus even
    # cycles -- impossible inside the Singer normalizer
    run = sample_cycle_types(X27X3, range(1, 3), budget=10)
    w = normalizer_incompatibility_witness(run.samples, 3)
    assert w is not None
    assert w.kind == "FixedPointOddness"
    assert 1 in w.payload["cycle_type"]
    assert w.payload["even_lengths"] or 3 % w.payload["order_lcm"] != 0


def test_normalizer_incompatibility_witness_absent_for_monomial():
    run = sample_cycle_types(X27, range(1, 5), budget=100)
    assert normalizer_incompatibility_witness(run.samples, 3) is None


def test_normalizer_incompatibility_needs_odd_prime():
    run = sample_cycle_types(X27X3, range(1, 2), budget=2)
    with pytest.raises(ValueError):
        normalizer_incompatibility_witness(run.samples, 4)
    with pytest.raises(ValueError):
        normalizer_incompatibility_witness(run.samples, 2)


def test_disc_witness_for_nonmonomial():
    w = disc_nonsquare_witness(X27X3, range(1, 7))
    assert w is not None
    assert w.kind == "DiscWitness"
    assert w.payload["k"] == 1
    assert w.payload["alpha"] == 1
    assert w.payload["square_class"] == "NonSquare"


def test_disc_witness_never_for_monomial():
    assert disc_nonsquare_witness(X27, range(1, 5)) is None


def test_disc_witness_rejects_char2():
    with pytest.raises(ValueError):
        disc_nonsquare_witness(CHAR2_GOOD, range(1, 3))


def test_verdict_monomial_gamma():
    v = verdict(X27)
    assert v.family == "GammaL"
    assert v.group_name == "GammaL(1,27)"
    assert v.order == 78
    assert v.basis == "MainTheorem"
    kinds = [e.kind for e in v.evidence]
    assert "NCycleGuarantee" in kinds
    assert "CycleTypeSample" in kinds
    # the census cross-check ran and every sample imaged into it
    for e in v.evidence:
        if e.kind == "CycleTypeSample":
            assert e.payload["in_normalizer_census"] is True


def test_verdict_monomial_after_shift():
    # x^27 + 2x normalizes to the pure monomial
    v = verdict(parse_linpoly(F3, "2,0,0,1"))
    assert v.family == "GammaL"
    assert v.order == 78
    assert any("absorbed" in n for n in v.notes)


def test_verdict_gl_odd_with_witness():
    v = verdict(X27X3)
    assert v.family == "GL"
    assert v.group_name == "GL(3,3)"
    assert v.order == 11232
    assert v.basis == "MainTheorem"
    witnesses = [e for e in v.evidence
                 if e.kind in ("DiscWitness", "FixedPointOddness")]
    assert witnesses
    for w in witnesses:
        assert recheck(X27X3, w)


def test_verdict_gl_char2():
    v = verdict(CHAR2_GOOD)
    assert v.family == "GL"
    assert v.order == 168
    assert v.basis == "Char2Theorem"
    cond = [e for e in v.evidence if e.kind == "Char2SumCondition"]
    assert cond and cond[0].payload["nonzero"] is True


def test_verdict_char2_sum_zero_inconclusive():
    v = verdict(CHAR2_BAD)
    assert v.family == "Inconclusive"
    assert v.order is None
    assert v.basis == "EvidenceOnly"
    cond = [e for e in v.evidence if e.kind == "Char2SumCondition"]
    assert cond and cond[0].payload["nonzero"] is False


def test_verdict_composite_degree_inconclusive():
    # n = 4 is not prime: no theorem applies to x^16 + x^2 over F_2
    v = verdict(parse_linpoly(F2, "0,1,0,0,1"))
    assert v.family == "Inconclusive"
    assert any("odd prime" in n for n in v.notes)
    # but the guaranteed long cycle is still recorded
    assert any(e.kind == "NCycleGuarantee" for e in v.evidence)


def test_verdict_n2_nonmonomial_inconclusive_q_odd():
    # q = 3, n = 2 is outside both theorems (n not odd prime)
    v = verdict(parse_linpoly(F3, "0,1,1"))
    assert v.family == "Inconclusive"


def test_verdict_gl_q5():
    v = verdict(parse_linpoly(F5, "0,1,0,1"))  # x^125 + x^5
    assert v.family == "GL"
    assert v.order == (125 - 1) * (125 - 5) * (125 - 25)
    assert any(e.kind == "DiscWitness" for e in v.evidence)


def test_verdict_monomial_n1():
    v = verdict(parse_linpoly(F3, "0,1"))  # x^3
    assert v.family == "GammaL"
    assert v.order == 1 * (3 - 1)


def test_verdict_gamma_n2_monomial():
    v = verdict(parse_linpoly(F3, "0,0,1"))  # x^9
    assert v.family == "GammaL"
    assert v.order == 2 * 8


def test_verdict_input_validation():
    with pytest.raises(ValueError):
        verdict(parse_linpoly(F3, "0,1,0,2"))  # not monic
    with pytest.raises(ValueError):
        verdict(X27, n=2)
    with pytest.raises(ValueError):
        verdict(X27, q=9)


def test_verdict_skipped_alphas_reported():
    # x^9 - x^3 vanishes on F_3 (and nowhere else in the tower), so the
    # verdict's sampling pass reports those alphas as skipped
    v = verdict(parse_linpoly(F3, "0,2,1"))
    assert v.family == "Inconclusive"
    assert v.skipped_alphas >= 2


def test_recheck_every_kind_roundtrip():
    v = verdict(X27X3, budget=6)
    for e in v.evidence:
        assert recheck(X27X3, e), e.kind
    v2 = verdict(CHAR2_GOOD, budget=6)
    for e in v2.evidence:
        assert recheck(CHAR2_GOOD, e), e.kind


def test_recheck_rejects_tampered_payloads():
    v = verdict(X27X3, budget=6)
    for e in v.evidence:
        if e.kind == "CycleTypeSample":
            bad = Evidence(e.kind, dict(e.payload, cycle_type=[26]),
                           e.note)
            assert not recheck(X27X3, bad)
        if e.kind == "DiscWitness":
            # alpha = 2 in F_3... pick an alpha whose class is Square:
            # for x^27 + x^3 all of F_9 gives Square (witness sits at
            # k=1), so claim one of those instead
            bad = Evidence(e.kind, dict(e.payload, k=2, alpha=[1, 0]),
                           e.note)
            assert not recheck(X27X3, bad)
        if e.kind == "OrderLcm":
            bad = Evidence(e.kind, dict(e.payload, lcm=7), e.note)
            assert not recheck(X27X3, bad)
        if e.kind == "Char2SumCondition":
            pass
    bad_n = Evidence("NCycleGuarantee",
                     {"cycle_length": 25, "gcd_with_characteristic": 1},
                     "")
    assert not recheck(X27X3, bad_n)
    with pytest.raises(ValueError):
        recheck(X27X3, Evidence("NoSuchKind", {}, ""))


def test_recheck_disc_witness_square_alpha_fails():
    w = disc_nonsquare_witness(X27X3, range(1, 3))
    # tamper: point at an alpha where the class is Square.  alpha = 1 in
    # F_9 has L(a)/a = a^26 + a^2 = ... verified Square by the recheck
    bad = Evidence(w.kind, dict(w.payload, k=2, alpha=[2, 0]), w.note)
    assert not recheck(X27X3, bad)


def test_verify_normalizer_structure():
    for n, field in ((2, F3), (3, F2)):
        rep = verify_normalizer(n, field)
        assert rep["passed"]
        assert rep["order"] == n * (field.order ** n - 1)
        assert rep["conjugation_ok"]
        assert rep["stabilizer_violations"] == []


def test_verify_gmg_small():
    for field, expected in ((F3, 1), (F5, 2), (F9, 8)):
        rep = verify_gmg(field)
        assert rep["passed"]
        assert rep["observed_passing"] == expected
    with pytest.raises(ValueError):
        verify_gmg(F2)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_verify_gmg_tables_match_brute_force(q, monkeypatch):
    field = parse_field_spec(str(q))
    report = verify_gmg(field)
    brute = brute_gmg_passing(field)
    squares = {field.mul(x, x) for x in map(field.rep_at, range(1, q))}
    assert engine._gmg_passing(field, report["m"], squares) == brute
    monkeypatch.setattr(engine, "_gmg_passing", lambda f, m, sq: brute)
    assert verify_gmg(field) == report


@pytest.mark.parametrize("q, m", [(9, 2), (25, 2), (27, 3)])
def test_gmg_passing_other_target_sets(q, m):
    """With the squares as target, every map with two or more terms fails
    somewhere, so a slip in the Zech sums could leave the passing set
    unchanged.  Against a random three-quarters of the nonzero elements
    some multi-term maps pass, and their sums must be right."""
    field = parse_field_spec(str(q))
    nonzero = [field.rep_at(i) for i in range(1, q)]
    target = set(random.Random(q).sample(nonzero, 3 * (q - 1) // 4))
    passing = engine._gmg_passing(field, m, target)
    assert passing == brute_gmg_passing(field, target)
    assert any(sum(c != field.zero_rep for c in cs) > 1 for cs in passing)


def test_verify_disc_lemma():
    for field, n in ((F3, 1), (F3, 2), (F5, 1)):
        rep = verify_disc_lemma(field, n)
        assert rep["passed"]
        assert rep["mismatches"] == []
        assert rep["count"] == (field.order - 1) * field.order ** (n - 1)
    with pytest.raises(ValueError):
        verify_disc_lemma(F2, 2)


def test_verify_factor_identity():
    for field, n, counts in ((F2, 3, {"1": 2, "3": 2}),
                             (F3, 2, {"1": 3, "2": 3}),
                             (F2, 2, {"1": 2, "2": 1})):
        rep = verify_factor_identity(field, n)
        assert rep["passed"]
        assert rep["necklace_ok"]
        assert rep["observed_counts"] == counts
        assert rep["forcing_violations"] == []


def test_verify_alternating_char2():
    rep = verify_alternating_char2(F2, 3)
    assert rep["passed"] and rep["all_even"] and not rep["excluded_case"]
    rep22 = verify_alternating_char2(F2, 2)
    assert rep22["passed"] and rep22["excluded_case"]
    assert not rep22["all_even"]
    with pytest.raises(ValueError):
        verify_alternating_char2(F3, 2)


def test_char2_gl_verdict_vs_census_sign():
    """GL(3,2) really is inside the alternating group on 7 points, so
    every sampled type from the char-2 GL verdict is even."""
    from linmono.group import perm_sign
    run = sample_cycle_types(CHAR2_GOOD, range(1, 5), budget=40)
    for s in run.samples:
        assert perm_sign(s.cycle_type) == 1
