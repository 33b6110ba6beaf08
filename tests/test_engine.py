"""Evidence and verdicts: sampling semantics, witnesses, recheck,
decision tree, exhaustive verifiers."""

import math
import random

import pytest

from _oracles import (brute_closure, brute_gmg_passing,
                      brute_stabilizer_orders, closure_normalizer_census)
from linmono import group as group_mod
from linmono import engine
from linmono.engine import (Evidence, disc_nonsquare_witness, normalize,
                            normalizer_incompatibility_witness,
                            order_lcm_evidence, recheck, sample_cycle_types,
                            verdict, verify_alternating_char2,
                            verify_disc_lemma, verify_factor_identity,
                            verify_gmg, verify_normalizer)
from linmono.ff import make_field, parse_field_spec
from linmono.group import gl_census, normalizer_census
from linmono import linpoly as lin_mod
from linmono.linpoly import (LinPoly, evaluate, parse_linpoly, reduced,
                             specialize)
from linmono.poly import factor_degrees

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
    # the witness search shares the alpha stream and its checks
    with pytest.raises(ValueError):
        disc_nonsquare_witness(X27X3, [])
    with pytest.raises(ValueError):
        disc_nonsquare_witness(X27X3, [0, 1])


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


def test_recheck_rejects_genuine_types_at_the_wrong_alpha():
    """Each tampered item carries a cycle type that some alpha really
    has, so only a recheck that recomputes the type at the recorded
    alpha (not one that checks sums, a fixed point or linearity) can
    refuse it."""
    run = sample_cycle_types(X27X3, range(1, 3), budget=10)
    by_type = {s.cycle_type: s for s in run.samples}
    assert len(by_type) >= 2
    (t1, s1), (t2, s2) = sorted(by_type.items())[:2]
    assert 1 in t1 and 1 in t2
    for s, other in ((s1, t2), (s2, t1)):
        good = s.to_evidence()
        assert recheck(X27X3, good)
        bad = Evidence(good.kind, dict(good.payload,
                                       cycle_type=list(other)), good.note)
        assert not recheck(X27X3, bad)
    w = normalizer_incompatibility_witness(run.samples, 3)
    assert recheck(X27X3, w)
    other = t2 if tuple(w.payload["cycle_type"]) == t1 else t1
    bad = Evidence(w.kind, dict(
        w.payload, cycle_type=list(other),
        even_lengths=[d for d in other if d % 2 == 0],
        order_lcm=math.lcm(*other)), w.note)
    assert not recheck(X27X3, bad)


def test_recheck_recomputes_without_factoring(monkeypatch):
    evidence = verdict(X27X3, budget=6).evidence

    def refuse(f):
        raise AssertionError("recheck factored a dense polynomial")

    monkeypatch.setattr(engine.poly_mod, "factor_degrees", refuse)
    assert {e.kind for e in evidence} >= {"CycleTypeSample", "OrderLcm"}
    for e in evidence:
        assert recheck(X27X3, e), e.kind


def test_recheck_order_lcm_rejects_a_root_alpha():
    # x^9 - x^3 vanishes at alpha = 1 in F_3; naming it leaves the lcm
    # unchanged, so only the L(alpha) = 0 check can refuse the item
    L = parse_linpoly(F3, "0,2,1")
    assert evaluate(L, F3.element_at(1)).is_zero
    ev = next(e for e in verdict(L).evidence if e.kind == "OrderLcm")
    assert recheck(L, ev)
    bad = Evidence(ev.kind, dict(
        ev.payload, sample_refs=ev.payload["sample_refs"] + [[1, 1]]),
        ev.note)
    assert not recheck(L, bad)


def test_recheck_disc_witness_square_alpha_fails():
    w = disc_nonsquare_witness(X27X3, range(1, 3))
    # tamper: point at an alpha where the class is Square.  alpha = 1 in
    # F_9 has L(a)/a = a^26 + a^2 = ... verified Square by the recheck
    bad = Evidence(w.kind, dict(w.payload, k=2, alpha=[2, 0]), w.note)
    assert not recheck(X27X3, bad)


def _x27x3_items():
    """A CycleTypeSample, a FixedPointOddness and a DiscWitness of
    x^27 + x^3 that recheck True."""
    run = sample_cycle_types(X27X3, range(1, 3), budget=10)
    items = [run.samples[0].to_evidence(),
             normalizer_incompatibility_witness(run.samples, 3),
             disc_nonsquare_witness(X27X3, range(1, 3))]
    assert [e.kind for e in items] == ["CycleTypeSample",
                                       "FixedPointOddness", "DiscWitness"]
    assert all(recheck(X27X3, e) is True for e in items)
    return items


def _tampered(e, **fields):
    return Evidence(e.kind, dict(e.payload, **fields), e.note)


def test_recheck_refuses_a_tampered_alpha_index():
    for e in _x27x3_items():
        idx = e.payload["alpha_index"]
        assert idx == 1
        for bad in (2, 0, 4, -1, True, 1.0, "1", None):
            assert recheck(X27X3, _tampered(e, alpha_index=bad)) is False, \
                (e.kind, bad)


def test_recheck_refuses_a_tampered_disc_constant_term():
    w = _x27x3_items()[2]
    assert w.payload["constant_term"] == 1
    for bad in (2, 0, True, 1.0, [1], None):
        assert recheck(X27X3, _tampered(w, constant_term=bad)) is False, bad


def test_recheck_refuses_a_tampered_disc_square_class():
    w = _x27x3_items()[2]
    assert w.payload["square_class"] == "NonSquare"
    for bad in ("Square", "Zero", "nonsquare", None):
        assert recheck(X27X3, _tampered(w, square_class=bad)) is False, bad


def test_recheck_refuses_tampered_even_lengths():
    f = _x27x3_items()[1]
    assert f.payload["even_lengths"] == [8, 8, 8]
    for bad in ([], [8, 8], [8, 8, 8, 8], [8.0, 8, 8], [2, 4, 8], "8,8,8"):
        assert recheck(X27X3, _tampered(f, even_lengths=bad)) is False, bad


def test_recheck_refuses_a_tampered_order_lcm():
    f = _x27x3_items()[1]
    assert f.payload["order_lcm"] == 8
    for bad in (999, 16, 4, 8.0, "8", None):
        assert recheck(X27X3, _tampered(f, order_lcm=bad)) is False, bad


def test_recheck_compares_in_normalizer_census_with_the_census():
    """The flag must equal membership in the normalizer census (taken
    from the closure here), whichever way it falls; a flipped or
    retyped flag is refused."""
    members = closure_normalizer_census(3, F3).types()
    gamma = [e for e in verdict(X27).evidence if e.kind == "CycleTypeSample"]
    run = sample_cycle_types(X27X3, range(1, 4), budget=12)
    items = gamma + [s.to_evidence({"in_normalizer_census":
                                    s.cycle_type in members})
                     for s in run.samples]
    flags = [e.payload["in_normalizer_census"] for e in items]
    assert True in flags and False in flags
    for L, e in [(X27, e) for e in gamma] + [(X27X3, e) for e in items[
            len(gamma):]]:
        flag = e.payload["in_normalizer_census"]
        assert recheck(L, e) is True
        for bad in (not flag, int(flag), None, str(flag)):
            assert recheck(L, _tampered(e, in_normalizer_census=bad)) \
                is False, (e.payload["cycle_type"], bad)


def test_recheck_refuses_in_normalizer_census_past_the_cap(monkeypatch):
    item = next(e for e in verdict(X27).evidence
                if e.kind == "CycleTypeSample")
    monkeypatch.setattr(engine, "_normalizer_types", {})
    monkeypatch.setattr(group_mod, "GROUP_CAP", 25)  # below 3^3 - 1
    for flag in (True, False):
        assert recheck(X27, _tampered(item, in_normalizer_census=flag)) \
            is False, flag


def _same_lcm_other_type(ct):
    """ct with one copy of a repeated length d > 1 split into d ones:
    the same sum and lcm, a different multiset."""
    d = next(d for d in ct if d > 1 and ct.count(d) > 1)
    out = list(ct)
    out.remove(d)
    return sorted(out + [1] * d)


def test_recheck_refuses_malformed_claims():
    """Claims no cycle type can have, and false claims that keep the
    lcm or name a multiple of it, are refused, never raised on."""
    v = verdict(X27X3, budget=12)
    sample = next(e for e in v.evidence if e.kind == "CycleTypeSample")
    olcm = next(e for e in v.evidence if e.kind == "OrderLcm")
    ct = sample.payload["cycle_type"]
    lcm = olcm.payload["lcm"]
    assert recheck(X27X3, sample) and recheck(X27X3, olcm)
    for claim in ([], [0], [0] + ct, [-1] + ct[1:], [-ct[-1]] + ct[:-1],
                  ["1"] + ct[1:], [1.0] + ct[1:], [True] + ct[1:],
                  [None], 26, "1,1,8", _same_lcm_other_type(ct),
                  ct[:-1] + [ct[-1] * (2 ** 89 - 1)]):
        bad = Evidence(sample.kind, dict(sample.payload, cycle_type=claim),
                       sample.note)
        assert recheck(X27X3, bad) is False, claim
    for claim in (0, -lcm, 2 * lcm, lcm * (2 ** 89 - 1), lcm // 2,
                  float(lcm), str(lcm), None):
        bad = Evidence(olcm.kind, dict(olcm.payload, lcm=claim), olcm.note)
        assert recheck(X27X3, bad) is False, claim


def test_recheck_keeps_types_apart_across_polynomials_and_seeds():
    """The same (k, alpha_index) under two L, and under two seeds whose
    F_9 moduli differ, has its own type each time: a type computed for
    one never answers for the other."""
    L1, L2 = parse_linpoly(F3, "0,1,1,1"), parse_linpoly(F3, "0,0,2,1")

    def item(L, seed, idx):
        alpha = engine._field_at(F3, 2, seed).element_at(idx)
        if evaluate(L, alpha).is_zero:
            return None
        ct = factor_degrees(reduced(specialize(L, alpha)))
        return Evidence("CycleTypeSample",
                        {"k": 2, "alpha_index": idx,
                         "alpha": alpha.to_obj(), "cycle_type": list(ct)},
                        "")

    assert engine._field_at(F3, 2, 0) != engine._field_at(F3, 2, 2)
    cases = [(L, seed, item(L, seed, idx))
             for idx in range(1, 9) for L in (L1, L2) for seed in (0, 2)]
    cases = [c for c in cases if c[2] is not None]
    for _ in range(2):
        assert all(recheck(L, e, seed=seed) for L, seed, e in cases)
    apart = 0
    for L, seed, e in cases:
        for L_, seed_, e_ in cases:
            if (e_.payload["alpha_index"] == e.payload["alpha_index"]
                    and e_.payload != e.payload
                    and e_.payload["alpha"] == e.payload["alpha"]):
                assert not recheck(L_, e, seed=seed_)
                apart += 1
    assert apart >= 8


def test_recheck_refuses_a_tampered_item_after_a_good_one():
    """A type kept from a good item answers only claims it satisfies:
    a tampered item at the same alpha, or an OrderLcm whose lcm drops a
    prime, is still refused, in either order of the evidence."""
    evidence = verdict(X27X3, budget=12).evidence
    olcm = next(e for e in evidence if e.kind == "OrderLcm")
    lcm = olcm.payload["lcm"]
    items = list(evidence)
    for e in evidence:
        if e.kind == "CycleTypeSample":
            ct = e.payload["cycle_type"]
            items.append(Evidence(e.kind, dict(
                e.payload, cycle_type=_same_lcm_other_type(ct)), e.note))
            items.append(Evidence(e.kind, dict(
                e.payload, cycle_type=[1] * sum(ct)), e.note))
    assert lcm % 2 == 0
    items.append(Evidence(olcm.kind, dict(olcm.payload, lcm=lcm // 2),
                          olcm.note))
    forward = [recheck(X27X3, e) for e in items]
    assert forward == [True] * len(evidence) \
        + [False] * (len(items) - len(evidence))
    engine._recheck_types.clear()
    backward = [recheck(X27X3, e) for e in reversed(items)]
    assert backward[::-1] == forward


def test_recheck_checks_the_claim_without_an_order_search(monkeypatch):
    """Every order recheck needs descends from the item's claimed lcm:
    each exponent handed to poly.order_of_x divides the claim, so none
    is a generic q^(deg f) - 1 the claim does not name (x^27 has claims
    that 3^(deg f) - 1 does not divide)."""
    run = sample_cycle_types(X27X3, range(1, 3), budget=10)
    items = [(X27X3, e) for e in verdict(X27X3, budget=12).evidence + [
        normalizer_incompatibility_witness(run.samples, 3)]]
    items += [(X27, e) for e in verdict(X27, budget=12).evidence]
    exponents = []
    inner = lin_mod.poly_mod.order_of_x

    def recorded(f, e, primes):
        exponents.append(e)
        return inner(f, e, primes)

    monkeypatch.setattr(engine, "_recheck_types", {})
    monkeypatch.setattr(lin_mod.poly_mod, "order_of_x", recorded)
    assert {e.kind for _, e in items} >= {"CycleTypeSample", "OrderLcm",
                                          "FixedPointOddness"}
    seen = 0
    for L, e in items:
        exponents.clear()
        assert recheck(L, e), e.kind
        if e.kind == "OrderLcm":
            claim = e.payload["lcm"]
        elif "cycle_type" in e.payload:
            claim = math.lcm(*e.payload["cycle_type"])
        else:
            assert exponents == [], e.kind
            continue
        assert all(claim % x == 0 for x in exponents), (e.kind, claim)
        seen += len(exponents)
    assert seen > 0


def test_recheck_computes_each_alpha_once_per_document(monkeypatch):
    L = parse_linpoly(F2, "1,0,1,1,1")
    evidence = verdict(L, budget=24).evidence
    calls = []
    inner = lin_mod.frobenius_cycle_type

    def counted(La, exponent=None):
        calls.append(La)
        return inner(La, exponent)

    monkeypatch.setattr(engine, "_recheck_types", {})
    monkeypatch.setattr(lin_mod, "frobenius_cycle_type", counted)
    alphas = {(e.payload["k"], e.payload["alpha_index"]) for e in evidence
              if e.kind in ("CycleTypeSample", "FixedPointOddness")}
    assert len(alphas) > 10
    assert all(recheck(L, e) for e in evidence)
    assert len(calls) == len(alphas)


def test_verify_normalizer_structure():
    for n, field in ((2, F3), (3, F2)):
        rep = verify_normalizer(n, field)
        assert rep["passed"]
        assert rep["order"] == n * (field.order ** n - 1)
        assert rep["conjugation_ok"]
        assert rep["stabilizer_violations"] == []


@pytest.mark.parametrize("spec, n, power", [("3", 2, 8), ("5", 2, 8),
                                             ("2", 4, 15), ("9", 2, 80),
                                             ("2", 3, 7), ("4", 2, 5),
                                             ("7", 2, 16), ("2", 6, 21)])
def test_verify_normalizer_orbits_match_brute_force(spec, n, power,
                                                    monkeypatch):
    """Replace S by S^power, so <S^power, F> is a proper subgroup with
    several orbits whose stabilizers differ (power = q^n - 1 leaves <F>
    alone): the order and the violations, read off the closure's
    permutations, equal those from applying every element of the brute
    closure to every vector."""
    field = parse_field_spec(spec)
    singer = group_mod.singer_generator
    monkeypatch.setattr(group_mod, "singer_generator",
                        lambda n, f, seed=0: group_mod.mat_pow(
                            f, singer(n, f, seed), power))
    report = verify_normalizer(n, field)
    assert not report["passed"] and not report["order_ok"]
    assert report["conjugation_ok"]
    assert 0 < len(report["stabilizer_violations"]) < field.order ** n - 1
    elements = brute_closure(field, [group_mod.singer_generator(n, field),
                                     group_mod.frobenius_matrix(n, field)])
    orders = brute_stabilizer_orders(field, elements)
    assert report["order"] == len(elements)
    assert report["stabilizer_violations"] == [
        {"vector": [field.rep_to_obj(c) for c in v], "order": so}
        for v, so in zip(group_mod.nonzero_vectors(field, n), orders)
        if so != n]


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
