"""Evidence and verdicts: sampling semantics, witnesses, recheck,
decision tree, exhaustive verifiers."""

import itertools
import json
import math
import random

import pytest

from _oracles import (brute_closure, brute_gmg_passing,
                      brute_stabilizer_orders, closure_normalizer_census)
from linmono import group as group_mod
from linmono import engine
from linmono.cli import schema_text
from linmono.engine import (Evidence, disc_nonsquare_witness, normalize,
                            order_lcm_evidence, recheck, sample_cycle_types,
                            verdict, verify_alternating_char2,
                            verify_disc_lemma, verify_factor_identity,
                            verify_gmg, verify_normalizer)
from linmono.ff import make_field, parse_field_spec, prime_divisors
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


def _allocate_by_full_walk(ks, q, budget):
    """Reference for engine._allocate that takes q^k for every k: the
    exhaustible fields, then an even split over the rest; only the ks
    with a positive target."""
    plan = []
    remaining = budget
    large = [k for k in ks if q ** k > engine.EXHAUST_LIMIT]
    for k in ks:
        if q ** k <= engine.EXHAUST_LIMIT:
            take = min(q ** k - 1, remaining)
            plan.append((k, take))
            remaining -= take
    for i, k in enumerate(large):
        share = -(-remaining // (len(large) - i))
        take = min(q ** k - 1, share)
        plan.append((k, take))
        remaining -= take
    return sorted((k, t) for k, t in plan if t > 0)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 49])
def test_allocate_equals_the_full_walk(q):
    """Targets up to kmax 50, past the cardinality cap, equal those of a
    walk that powers every k; ks beyond the spent budget are dropped."""
    for kmax in (1, 2, 5, 11, 12, 40, 41, 50):
        for budget in (0, 1, 5, 12, 100, 3000):
            got = engine._allocate(range(1, kmax + 1), q, budget)
            assert [(k, t) for k, t in got if t > 0] \
                == _allocate_by_full_walk(range(1, kmax + 1), q, budget)


def test_huge_kmax_walks_only_the_sampled_ks():
    """No q^k is taken for a k that gets no sample: a kmax of 10^30
    would not finish otherwise.  The samples equal those at kmax 60."""
    L = parse_linpoly(F3, "0,1,1")
    plan = engine._allocate(range(1, 61), 3, 12)
    assert engine._allocate(range(1, 10 ** 30), 3, 12) == plan
    assert [k for k, t in plan if t > 0] == [1, 2, 3]
    huge = sample_cycle_types(L, range(1, 10 ** 30), budget=12)
    assert huge == sample_cycle_types(L, range(1, 61), budget=12)
    assert (len(huge.samples), huge.skipped) == (10, 2)
    # 2604 samples left after F_7, F_49, F_343: one each for k = 4..2607
    spread = engine._allocate(range(1, 10 ** 30), 7, 3000)
    assert spread == _allocate_by_full_walk(range(1, 2608), 7, 3000)


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


def test_verdict_flags_fixed_point_even_types_out_of_the_census():
    # x^27 + x^3 at k <= 2 gives types (1,1,8,8,8) and (1,1,4,...,4): a
    # fixed point plus even cycles, impossible inside the Singer
    # normalizer, so every sample is flagged out of its census
    v = verdict(X27X3, kmax=2, budget=10)
    samples = [e for e in v.evidence if e.kind == "CycleTypeSample"]
    assert len(samples) == 10
    for e in samples:
        ct = e.payload["cycle_type"]
        assert 1 in ct and any(d % 2 == 0 for d in ct)
        assert e.payload["in_normalizer_census"] is False
        assert recheck(X27X3, e)
    assert v.notes[-1] == ("10 of 10 sampled cycle types are missing from "
                           "the order-78 Singer-normalizer census, so the "
                           "group lies in no Singer normalizer")


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


@pytest.mark.parametrize("L,kmax", [
    (parse_linpoly(F3, "0,0,0,0,0,0,1"), 1),  # x^729, order 4368
    (parse_linpoly(F2, "0,0,0,0,0,0,0,0,0,0,1"), None),  # x^1024, 10230
], ids=["x^729", "x^1024"])
def test_verdict_flags_gamma_samples_at_any_order(L, kmax):
    """Past the order 1000 where verdicts once skipped the normalizer
    census, every sample is still flagged against it, and every item
    rechecks."""
    v = verdict(L, kmax=kmax, budget=4)
    assert v.family == "GammaL" and v.order > 1000
    samples = [e for e in v.evidence if e.kind == "CycleTypeSample"]
    assert samples
    assert all(e.payload["in_normalizer_census"] is True for e in samples)
    assert v.notes[-1] == ("all %d sampled cycle types occur in the "
                           "order-%d Singer-normalizer census"
                           % (len(samples), v.order))
    assert all(recheck(L, e) for e in v.evidence)


@pytest.mark.parametrize("L, family", [
    (X27X3, "GL"), (CHAR2_GOOD, "GL"),
    (parse_linpoly(F3, "0,1,1"), "Inconclusive"),
    (parse_linpoly(F2, "0,1,0,0,1"), "Inconclusive"),
    (X27, "GammaL")],
    ids=["GL q odd", "GL char 2", "Inconclusive n=2", "Inconclusive n=4",
         "GammaL"])
def test_verdict_flags_every_sample(L, family):
    """Whatever the family and n, every sample carries its membership in
    the normalizer census (taken from the closure here), every item
    rechecks, and a flipped flag is refused.  Every document here but
    the GammaL one excludes the normalizer by a flag."""
    v = verdict(L)
    assert v.family == family
    members = closure_normalizer_census(L.qdeg, L.base).types()
    samples = [e for e in v.evidence if e.kind == "CycleTypeSample"]
    assert samples
    flags = [e.payload["in_normalizer_census"] for e in samples]
    assert flags == [tuple(e.payload["cycle_type"]) in members
                     for e in samples]
    assert all(recheck(L, e) for e in v.evidence)
    for e, flag in zip(samples, flags):
        assert recheck(L, _tampered(e, in_normalizer_census=not flag)) \
            is False
    assert (False in flags) == (family != "GammaL")
    if False in flags:
        assert v.notes[-1].startswith(
            "%d of %d sampled cycle types are missing from the order-%d "
            "Singer-normalizer census" % (flags.count(False), len(flags),
                                          L.qdeg * (L.q ** L.qdeg - 1)))


@pytest.mark.parametrize("spec, lin, kmax", [
    ("3", "0,1,0,1", None), ("7", "0,1,0,1", 1), ("3", "0,2,0,1", 1),
    ("2", "0,1,1,1", None), ("3", "0,1,1", None), ("3", "0,0,0,1", None)])
def test_verdict_samples_once(spec, lin, kmax, monkeypatch):
    """One sampling pass per verdict, also where no DiscWitness turns up
    (x^343 + x^7 at kmax 1) and where nothing is sampled at all
    (x^27 + 2x^3 at kmax 1)."""
    calls = []
    inner = engine.sample_cycle_types

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(engine, "sample_cycle_types", counted)
    verdict(parse_linpoly(parse_field_spec(spec), lin), kmax=kmax)
    assert len(calls) == 1


@pytest.mark.parametrize("search", ["sample", "disc"])
def test_l_is_evaluated_once_per_alpha(search, monkeypatch):
    """_alphas yields each alpha's specialization, and the sampler and
    the witness search use it: L(alpha) is computed once per alpha
    drawn, roots of L included.  x^27 + 2x^3 = (x^9 - x)^3 vanishes on
    F_9, so every alpha of F_3 and F_9 is a root, and some of F_81."""
    L = parse_linpoly(F3, "0,2,0,1")
    evaluated, drawn = [], []
    inner_evaluate, inner_alphas = lin_mod.evaluate, engine._alphas

    def counted_evaluate(*args):
        evaluated.append(args)
        return inner_evaluate(*args)

    def counted_alphas(*args):
        for item in inner_alphas(*args):
            drawn.append(item)
            yield item

    monkeypatch.setattr(lin_mod, "evaluate", counted_evaluate)
    monkeypatch.setattr(engine, "_alphas", counted_alphas)
    if search == "sample":
        run = sample_cycle_types(L, range(1, 5), budget=40)
        assert run.skipped > 2 + 8
        assert len(drawn) == len(run.samples) + run.skipped
    else:
        assert disc_nonsquare_witness(L, range(1, 5)) is not None
        assert sum(spec.coeffs[0] == spec.field.zero_rep
                   for *_, spec in drawn) > 2 + 8
    assert len(evaluated) == len(drawn)


def test_verdict_and_recheck_flags_need_no_census(monkeypatch):
    """verdict's flags and recheck's comparison build no census: with
    group.normalizer_census refusing, every document still verdicts and
    every item of it rechecks, GammaL(1, 3^6) among them."""
    def refuse(*args, **kwargs):
        raise AssertionError("a census was built")

    monkeypatch.setattr(group_mod, "normalizer_census", refuse)
    for L, kwargs in [(X27, {}), (X27X3, {}),
                      (parse_linpoly(F3, "0,0,0,0,0,0,1"),
                       {"kmax": 1, "budget": 4})]:
        evidence = verdict(L, **kwargs).evidence
        assert any("in_normalizer_census" in e.payload for e in evidence)
        assert all(recheck(L, e) for e in evidence)


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
    witnesses = [e for e in v.evidence if e.kind == "DiscWitness"
                 or e.payload.get("in_normalizer_census") is False]
    assert [e.kind for e in witnesses[:2]] == ["DiscWitness",
                                                "CycleTypeSample"]
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


def test_schema_kinds_are_the_kinds_recheck_knows():
    """Every evidence kind the schema admits rechecks an empty payload as
    False, and a kind outside it raises."""
    kinds = json.loads(schema_text())["$defs"]["evidence"]["properties"][
        "kind"]["enum"]
    assert kinds
    for L in (X27X3, CHAR2_GOOD):
        for kind in kinds:
            assert recheck(L, Evidence(kind, {}, "")) is False, kind
        for kind in ("NoSuchKind", "FixedPointOddness", "cycletypesample"):
            with pytest.raises(ValueError):
                recheck(L, Evidence(kind, {}, ""))


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
    members = normalizer_census(3, F3).types()
    for s, other in ((s1, t2), (s2, t1)):
        good = s.to_evidence()
        assert recheck(X27X3, good)
        bad = Evidence(good.kind, dict(good.payload,
                                       cycle_type=list(other)), good.note)
        assert not recheck(X27X3, bad)
        # a flagged item whose flag fits the wrong type as well
        flagged = s.to_evidence({"in_normalizer_census":
                                 s.cycle_type in members})
        assert recheck(X27X3, flagged)
        assert not recheck(X27X3, _tampered(
            flagged, cycle_type=list(other),
            in_normalizer_census=other in members))


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
    """An unflagged CycleTypeSample, the verdict's flagged one and a
    DiscWitness of x^27 + x^3, all at k = 1 and alpha 1, that recheck
    True."""
    run = sample_cycle_types(X27X3, range(1, 3), budget=10)
    flagged = next(e for e in verdict(X27X3, kmax=2, budget=10).evidence
                   if e.kind == "CycleTypeSample")
    items = [run.samples[0].to_evidence(), flagged,
             disc_nonsquare_witness(X27X3, range(1, 3))]
    assert [e.kind for e in items] == ["CycleTypeSample", "CycleTypeSample",
                                       "DiscWitness"]
    assert "in_normalizer_census" in items[1].payload
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


def test_recheck_refuses_every_tampered_disc_witness_field():
    """recheck compares every recorded field of a DiscWitness: a payload
    key with no tampering below fails here, so no field goes unchecked."""
    w = _x27x3_items()[2]
    tampered = {"k": (2, 0, True), "alpha_index": (2, 0, True),
                "alpha": (2, [1, 0], True),
                "constant_term": (2, 0, True),
                "square_class": ("Square", "Zero", None)}
    assert w.payload == {"k": 1, "alpha_index": 1, "alpha": 1,
                         "constant_term": 1, "square_class": "NonSquare"}
    for key in w.payload:
        for bad in tampered[key] + (None,):
            assert recheck(X27X3, _tampered(w, **{key: bad})) is False, \
                (key, bad)


def test_recheck_refuses_a_tampered_census_flag():
    f = _x27x3_items()[1]
    assert f.payload["cycle_type"] == [1, 1, 8, 8, 8]
    assert f.payload["in_normalizer_census"] is False
    for bad in (True, 0, None, "false", [False]):
        assert recheck(X27X3, _tampered(f, in_normalizer_census=bad)) \
            is False, bad


def test_recheck_refuses_a_tampered_order_lcm():
    olcm = next(e for e in verdict(X27X3, kmax=2, budget=10).evidence
                if e.kind == "OrderLcm")
    assert olcm.payload["lcm"] == 8 and recheck(X27X3, olcm)
    for bad in (999, 16, 4, 8.0, "8", None):
        assert recheck(X27X3, _tampered(olcm, lcm=bad)) is False, bad


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


def test_recheck_compares_in_normalizer_census_past_the_group_cap():
    """GammaL(1, 2^23) has more vectors than any census builds: the twist's
    sample at k = 1, alpha = 1 has the type of phi, 1 and (2^23 - 2)/23
    23-cycles, so it is in the census; the flipped flag is refused."""
    L = parse_linpoly(F2, "0," * 23 + "1")  # x^(2^23)
    assert L.qdeg == 23 and 2 ** 23 - 1 > group_mod.GROUP_CAP
    item = Evidence("CycleTypeSample", {
        "k": 1, "alpha_index": 1, "alpha": F2.element_at(1).to_obj(),
        "cycle_type": [1] + [23] * ((2 ** 23 - 2) // 23),
        "in_normalizer_census": True}, "")
    assert recheck(L, item) is True
    assert recheck(L, _tampered(item, in_normalizer_census=False)) is False


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


_MISSING = object()

# (kind, fields to overwrite; a _MISSING value drops the field, and None
# replaces the whole payload).  The items come from x^27 + x^3, except
# the Char2SumCondition, which comes from x^8 + x^4 + x^2.  The k and
# alpha cases go to every kind that names an alpha.  "FixedPointOddness"
# is not a kind but the shape of the samples that exclude the Singer
# normalizer by a fixed point beside an even length: it selects every
# such CycleTypeSample of both polynomials, each flagged out of the
# census.
_ALPHA_KINDS = ("CycleTypeSample", "FixedPointOddness", "DiscWitness")
_MALFORMED = [(kind, fields) for kind in _ALPHA_KINDS for fields in (
    {"k": True}, {"k": 0}, {"k": "2"}, {"k": 60}, {"k": 10 ** 9},
    {"alpha": "x"}, {"alpha": [1, 0, 0, 0]}, {"alpha": True},
    {"alpha": 4}, {"alpha_index": _MISSING})] + [
    ("CycleTypeSample", {"alpha": [1]}),
    ("CycleTypeSample", {"cycle_type": _MISSING}),
    ("OrderLcm", {"sample_refs": [[1, 99]]}),
    ("OrderLcm", {"sample_refs": "ab"}),
    ("OrderLcm", {"sample_refs": [[1, 1, 1]]}),
    ("OrderLcm", {"sample_refs": [[True, 1]]}),
    ("OrderLcm", {"lcm": _MISSING}),
    ("NCycleGuarantee", {"cycle_length": 26.0}),
    ("NCycleGuarantee", {"gcd_with_characteristic": True}),
    ("NCycleGuarantee", {"cycle_length": _MISSING}),
    ("Char2SumCondition", {"coefficient_sum": True}),
    ("Char2SumCondition", {"nonzero": 1}),
    ("Char2SumCondition", {"nonzero": _MISSING}),
] + [(kind, None) for kind in _ALPHA_KINDS + (
    "OrderLcm", "NCycleGuarantee", "Char2SumCondition")]


def _malformed_id(value):
    if isinstance(value, str):
        return value
    if value is None:
        return "payload=None"
    return ",".join(name + "=" + ("missing" if v is _MISSING else repr(v))
                    for name, v in value.items())


@pytest.mark.parametrize("kind, fields", _MALFORMED, ids=_malformed_id)
def test_recheck_refuses_malformed_payloads(kind, fields):
    """A malformed payload rechecks False, never raises and is never
    read as the item it looks like (k True for 1, alpha 4 for 1 in
    F_3).  k = 10^9 is refused before q^k is computed."""
    v = verdict(X27X3, budget=12)
    items = [(X27X3, e) for e in v.evidence]
    items += [(CHAR2_GOOD, e) for e in verdict(CHAR2_GOOD).evidence]
    if kind == "FixedPointOddness":
        items = [(L, e) for L, e in items if e.kind == "CycleTypeSample"
                 and 1 in e.payload["cycle_type"]
                 and any(d % 2 == 0 for d in e.payload["cycle_type"])]
        assert all(e.payload["in_normalizer_census"] is False
                   for _, e in items)
    else:
        items = [(L, e) for L, e in items if e.kind == kind]
    if kind == "CycleTypeSample":  # the first at k = 1 and at k = 2
        items = [next((L, e) for L, e in items if e.payload["k"] == k)
                 for k in (1, 2)]
    assert items
    for L, e in items:
        assert recheck(L, e) is True
        if fields is None:
            bad = Evidence(e.kind, None, e.note)
        else:
            payload = dict(e.payload, **fields)
            for name, value in fields.items():
                if value is _MISSING:
                    del payload[name]
            bad = Evidence(e.kind, payload, e.note)
        assert recheck(L, bad) is False, (e.payload, fields)


def _lost_prime_claims(ct):
    """For each prime r of lcm(ct): ct with every length of the full
    r-power in lcm(ct) split into r lengths d / r, so the sum stays and
    the lcm loses r."""
    lcm = math.lcm(*ct)
    for r in prime_divisors(lcm):
        top = r
        while lcm % (top * r) == 0:
            top *= r
        yield sorted(x for d in ct
                     for x in ([d // r] * r if d % top == 0 else [d]))


@pytest.mark.parametrize("L", [X27X3, CHAR2_GOOD,
                               parse_linpoly(F5, "0,1,1")])
def test_recheck_refuses_lost_primes_and_random_wrong_claims(L):
    """A claimed type whose lcm loses a prime, an OrderLcm over a prime
    of its lcm, and seeded random claims that are not the type (random
    partitions of the same sum, random lcms) all recheck False."""
    rng = random.Random(7)
    evidence = verdict(L, budget=12).evidence
    olcm = next(e for e in evidence if e.kind == "OrderLcm")
    lcm = olcm.payload["lcm"]
    claims = [lcm // r for r in prime_divisors(lcm)]
    claims += [c for c in (rng.randint(1, 4 * lcm) for _ in range(20))
               if c != lcm]
    for claim in claims:
        assert recheck(L, _tampered(olcm, lcm=claim)) is False, claim
    seen = 0
    for e in evidence:
        if e.kind != "CycleTypeSample":
            continue
        ct = e.payload["cycle_type"]
        bad = list(_lost_prime_claims(ct))
        for _ in range(10):
            rest, claim = sum(ct), []
            while rest:
                claim.append(rng.randint(1, rest))
                rest -= claim[-1]
            bad.append(sorted(claim))
        for claim in bad:
            if claim != ct:
                assert recheck(L, _tampered(e, cycle_type=claim)) is False, \
                    (ct, claim)
                seen += 1
    assert seen > 0


def test_field_at_keeps_only_the_last_base_and_seed():
    """_field_at builds each degree once for the last (base, seed), and a
    second seed evicts the first seed's fields."""
    E2 = engine._field_at(F3, 2, 0)
    E3 = engine._field_at(F3, 3, 0)
    assert engine._field_at(F3, 2, 0) is E2
    assert engine._field_at(F3, 3, 0) is E3
    engine._field_at(F3, 2, 1)
    assert engine._fields_at.cache_info().currsize == 1
    again = engine._field_at(F3, 2, 0)
    assert again == E2 and again is not E2


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
    """A type kept from a good item answers only claims equal to it:
    a tampered item at the same alpha, or an OrderLcm whose lcm drops a
    prime, is still refused, in either order of the evidence."""
    engine._exact_types.cache_clear()
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
    engine._exact_types.cache_clear()
    backward = [recheck(X27X3, e) for e in reversed(items)]
    assert backward[::-1] == forward


def _frobenius_class(L, alpha):
    """alpha's Frobenius class: its field and the closed point
    {t, t^q, ...} of t = -L'(alpha)/alpha, L' being L without its x
    term, walked here by FieldElement powers, apart from the engine's
    own walk."""
    Ln, _ = normalize(L)
    t = -(evaluate(Ln, alpha) / alpha)
    orbit, s = {t}, t ** Ln.q
    while s != t:
        orbit.add(s)
        s = s ** Ln.q
    return alpha.field, frozenset(orbit)


def _classes_of(L, items):
    """The Frobenius classes of the alphas the items name."""
    return {_frobenius_class(L, engine._field_at(L.base, e.payload["k"], 0)
                             .element_at(e.payload["alpha_index"]))
            for e in items}


def _counted_frobenius_cycle_type(monkeypatch):
    """Clear recheck's memo and count linpoly.frobenius_cycle_type calls
    into the returned list."""
    calls = []
    inner = lin_mod.frobenius_cycle_type

    def counted(La):
        calls.append(La)
        return inner(La)

    engine._exact_types.cache_clear()
    monkeypatch.setattr(lin_mod, "frobenius_cycle_type", counted)
    return calls


def test_recheck_computes_each_class_once_per_document(monkeypatch):
    """Rechecking a whole document computes one exact type per Frobenius
    class (k, closed point of t), fewer than one per alpha."""
    L = parse_linpoly(F2, "1,0,1,1,1")
    evidence = verdict(L, budget=24).evidence
    calls = _counted_frobenius_cycle_type(monkeypatch)
    samples = [e for e in evidence if e.kind == "CycleTypeSample"]
    alphas = {(e.payload["k"], e.payload["alpha_index"]) for e in samples}
    classes = _classes_of(L, samples)
    assert len(alphas) > 10 and len(classes) < len(alphas)
    assert all(recheck(L, e) for e in evidence)
    assert len(calls) == len(classes)


def test_recheck_keeps_the_types_of_the_last_polynomial_only(monkeypatch):
    """After the samples of L1 and then those of L2, only L2's exact
    types are kept: L2's samples recompute nothing, and L1's compute
    each class's type again."""
    s1, s2 = ([e for e in verdict(L, budget=6).evidence
               if e.kind == "CycleTypeSample"] for L in (X27X3, CHAR2_GOOD))
    c1, c2 = len(_classes_of(X27X3, s1)), len(_classes_of(CHAR2_GOOD, s2))
    calls = _counted_frobenius_cycle_type(monkeypatch)
    assert all(recheck(X27X3, e) for e in s1)
    assert all(recheck(CHAR2_GOOD, e) for e in s2)
    assert len(calls) == c1 + c2
    assert engine._exact_types.cache_info().currsize == 1
    calls.clear()
    assert all(recheck(CHAR2_GOOD, e) for e in s2)
    assert calls == []
    assert all(recheck(X27X3, e) for e in s1)
    assert len(calls) == c1


def test_recheck_reads_a_second_alpha_of_a_class_off_the_first(monkeypatch):
    """2 alpha has alpha's t, and alpha^3 has t^3.  Whichever alpha comes
    first computes the class's type; the others read it, so their true
    type rechecks True and a wrong one False, in either order."""
    E = engine._field_at(F3, 3, 0)
    alpha = next(a for a in E.elements()
                 if not a.is_zero and a ** 3 != a
                 and (evaluate(X27X3, a) / a) ** 3 != evaluate(X27X3, a) / a)
    ct = lin_mod.frobenius_cycle_type(specialize(X27X3, alpha))
    wrong = [1] * sum(ct) if list(ct) != [1] * sum(ct) else [sum(ct)]

    def item(a, cycle_type):
        return Evidence("CycleTypeSample",
                        {"k": 3, "alpha_index": a.index(),
                         "alpha": a.to_obj(), "cycle_type": cycle_type}, "")

    members = [alpha, alpha * 2, alpha ** 3, alpha ** 9 * 2]
    assert len({a.rep for a in members}) == 4
    assert len({_frobenius_class(X27X3, a) for a in members}) == 1
    for order in (members, members[::-1]):
        calls = _counted_frobenius_cycle_type(monkeypatch)
        for a in order:
            assert recheck(X27X3, item(a, list(ct)))
            assert not recheck(X27X3, item(a, wrong))
        assert len(calls) == 1


@pytest.mark.parametrize("spec, lin, kmax", [
    ("2", "0,1,1,1", 4), ("2", "1,0,1,1,1", 3), ("3", "0,1,0,1", 2),
    ("3", "2,1,1", 3), ("2^2", "0,1,1", 3), ("2^2", "0,[0,1],1", 3),
    ("3^2", "0,[1,2],1", 2)])
def test_cycle_type_is_a_class_function(spec, lin, kmax, monkeypatch):
    """Oracle for the class rule: for every alpha in F_{q^k}, k <= kmax,
    with L(alpha) != 0, the dense factor degrees of L_alpha(x)/x are the
    same across each class (k, closed point of L_alpha's a_0), and
    _recheck_cycle_type returns them for every alpha, in ascending or
    shuffled order, with one computation per class: a walk by p-th
    powers over F_4 or F_9 would merge classes.  F_{4^k} and F_{9^k} are
    towers over F_4 and F_9; a_0 != 0 in two cases, so t is not
    -L(alpha)/alpha there."""
    F = parse_field_spec(spec)
    L = parse_linpoly(F, lin)
    dense, by_class = {}, {}
    for k in range(1, kmax + 1):
        E = engine._field_at(F, k, 0)
        for alpha in itertools.islice(E.elements(), 1, None):
            spec_ = specialize(L, alpha)
            if spec_.coefficient(0).is_zero:
                continue
            ct = tuple(sorted(factor_degrees(reduced(spec_))))
            assert by_class.setdefault(_frobenius_class(L, alpha), ct) == ct
            dense[alpha] = ct
    assert len(by_class) < len(dense)
    shuffled = list(dense)
    random.Random(spec + lin).shuffle(shuffled)
    for alphas in (list(dense), shuffled):
        calls = _counted_frobenius_cycle_type(monkeypatch)
        assert all(tuple(engine._recheck_cycle_type(L, a)) == dense[a]
                   for a in alphas)
        assert len(calls) == len(by_class)


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


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27, 49])
def test_verify_gmg_tables_match_brute_force(q, monkeypatch):
    field = parse_field_spec(str(q))
    report = verify_gmg(field)
    brute = brute_gmg_passing(field)
    squares = {field.mul(x, x) for x in map(field.rep_at, range(1, q))}
    assert engine._gmg_passing(field, report["m"], squares) == brute
    monkeypatch.setattr(engine, "_gmg_passing", lambda f, m, sq: brute)
    assert verify_gmg(field) == report


@pytest.mark.parametrize("q, m", [(9, 2), (25, 2), (27, 3), (49, 2)])
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


@pytest.mark.parametrize("q, m", [(9, 2), (25, 2), (27, 3), (49, 2),
                                  (121, 2)])
def test_gmg_passing_whole_and_empty_targets(q, m):
    """No oracle needed at the two extreme targets.  With every nonzero
    element allowed nothing can fail, so exactly the q^m - 1 nonzero maps
    pass.  With none allowed, L(x)/x must vanish on all of F_q^*, which a
    nonzero map of p-degree < m cannot do: L(x) would then have q roots
    at degree at most p^(m-1) < q."""
    field = parse_field_spec(str(q))
    zero = field.zero_rep
    nonzero = [field.rep_at(i) for i in range(1, q)]
    every = engine._gmg_passing(field, m, set(nonzero))
    reps = [zero] + nonzero
    assert every == {cs for cs in itertools.product(reps, repeat=m)
                     if cs != (zero,) * m}
    assert len(every) == q ** m - 1
    assert (zero,) * m not in every
    assert engine._gmg_passing(field, m, set()) == set()


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
