"""Acceptance gate: one test per shipped criterion, each printing a
single PASS/FAIL line (run with -s to see them live).  Every check is
exact -- set containment, exact orders, byte equality -- with the stated
wall-clock bound asserted."""

import json
import subprocess
import sys
import time

from linmono.engine import (Evidence, recheck, sample_cycle_types,
                            verify_alternating_char2, verify_disc_lemma,
                            verify_factor_identity, verify_gmg,
                            verify_normalizer)
from linmono.ff import make_field
from linmono.group import gl_census, normalizer_census
from linmono.linpoly import parse_linpoly
from linmono.poly import Poly, factor

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "linmono", *args],
                          capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout


def report(num, ok, detail, elapsed, limit):
    stamp = "PASS" if ok and elapsed < limit else "FAIL"
    print("ACCEPTANCE %d: %s — %s (%.2fs, limit %.0fs)"
          % (num, stamp, detail, elapsed, limit))
    assert ok, detail
    assert elapsed < limit, "criterion %d exceeded %.0fs" % (num, limit)


def test_criterion_1_exceptional_verdict():
    t0 = time.monotonic()
    code, out = run_cli("analyze", "--q", "3", "--lin", "0,0,0,1")
    elapsed = time.monotonic() - t0
    doc = json.loads(out)
    ok = (code == 0 and doc["verdict"] == "GammaL"
          and doc["group"] == "GammaL(1,27)" and doc["order"] == 78)
    report(1, ok, "x^27 over F_3 -> GammaL(1,27), order 78", elapsed, 1)


def test_criterion_2_main_verdict_with_witness():
    t0 = time.monotonic()
    code, out = run_cli("analyze", "--q", "3", "--lin", "0,1,0,1")
    doc = json.loads(out)
    # a DiscWitness, or a sample whose type the Singer normalizer lacks
    witnesses = [e for e in doc["evidence"]
                 if e["kind"] == "DiscWitness"
                 or e["payload"].get("in_normalizer_census") is False]
    ok = (code == 0 and doc["group"] == "GL(3,3)"
          and doc["order"] == 11232 and doc["kmax"] <= 6
          and bool(witnesses))
    # independent re-verification from the recorded (alpha, k) alone
    L = parse_linpoly(F3, "0,1,0,1")
    for w in witnesses:
        ok = ok and recheck(L, Evidence(w["kind"], w["payload"],
                                        w.get("note", "")))
    elapsed = time.monotonic() - t0
    report(2, ok, "x^27+x^3 -> GL(3,3) order 11232 with re-verified "
                  "witness (kmax <= 6)", elapsed, 60)


def test_criterion_3_normalizer_structure():
    t0 = time.monotonic()
    ok = True
    for n, field in ((2, F3), (3, F2), (3, F3)):
        rep = verify_normalizer(n, field)
        q = field.order
        ok = ok and rep["passed"] and rep["order"] == n * (q ** n - 1) \
            and rep["stabilizer_violations"] == []
    elapsed = time.monotonic() - t0
    report(3, ok, "Singer-normalizer order n(q^n-1) and all vector "
                  "stabilizers of order n for (2,3),(3,2),(3,3)",
           elapsed, 30)


def test_criterion_4_dedekind_census_consistency():
    t0 = time.monotonic()
    gl = gl_census(3, F3)
    nc = normalizer_census(3, F3)
    # budget 508 compensates the 8 roots of x^27+x^3 inside F_81 so
    # exactly 500 cycle types are collected
    generic = sample_cycle_types(parse_linpoly(F3, "0,1,0,1"),
                                 range(1, 7), budget=508)
    mono = sample_cycle_types(parse_linpoly(F3, "0,0,0,1"),
                              range(1, 7), budget=500)
    ok = (len(generic.samples) == 500 and len(mono.samples) == 500
          and all(s.cycle_type in gl for s in generic.samples)
          and all(s.cycle_type in nc for s in mono.samples))
    elapsed = time.monotonic() - t0
    report(4, ok, "500 sampled types of x^27+x^3 in GL(3,3) census; "
                  "500 of x^27 in the 78-element normalizer census",
           elapsed, 600)


def test_criterion_5_disc_formula_equivalence():
    t0 = time.monotonic()
    ok = True
    for field, n in ((F3, 1), (F3, 2), (F5, 1)):
        rep = verify_disc_lemma(field, n)
        ok = ok and rep["passed"] and rep["mismatches"] == [] \
            and rep["count"] == (field.order - 1) * field.order ** (n - 1)
    elapsed = time.monotonic() - t0
    report(5, ok, "discriminant square class == class of "
                  "(-1)^((q^n-1)/2) c, exhaustively for (3,1),(3,2),"
                  "(5,1)", elapsed, 60)


def test_criterion_6_multiplicative_map_classification():
    t0 = time.monotonic()
    ok = True
    observed = {}
    for q in (3, 5, 9, 25, 27):
        field = make_field(*_pm(q))
        rep = verify_gmg(field)
        observed[q] = rep["observed_passing"]
        ok = ok and rep["passed"] \
            and rep["observed_passing"] == rep["expected_passing"]
    elapsed = time.monotonic() - t0
    report(6, ok, "image-in-squares maps are exactly a*x^(p^d), a "
                  "square, for q in {3,5,9,25,27}: counts %s"
                  % observed, elapsed, 300)


def _pm(q):
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        m = 0
        t = q
        while t % p == 0:
            t //= p
            m += 1
        if t == 1:
            return p, m
    raise ValueError(q)


def test_criterion_7_char2_results():
    t0 = time.monotonic()
    # (a) x^4 + x = x (x+1) (x^2+x+1), each factor once
    f = Poly(F2, [0, 1, 0, 0, 1])
    parts = factor(f)
    expected = [(Poly(F2, [0, 1]), 1),       # x
                (Poly(F2, [1, 1]), 1),       # x + 1
                (Poly(F2, [1, 1, 1]), 1)]    # x^2 + x + 1
    ok = parts == expected
    # (b) alternating containment for (3,2); q=n=2 exception detected
    rep32 = verify_alternating_char2(F2, 3)
    rep22 = verify_alternating_char2(F2, 2)
    ok = ok and rep32["passed"] and rep32["all_even"] \
        and not rep32["excluded_case"]
    ok = ok and rep22["passed"] and rep22["excluded_case"] \
        and not rep22["all_even"]
    # (c) x^8+x^4+x^2 decides GL(3,2); x^8+x^2 is Inconclusive, exit 2
    code_gl, out_gl = run_cli("analyze", "--q", "2", "--lin", "0,1,1,1")
    doc_gl = json.loads(out_gl)
    ok = ok and code_gl == 0 and doc_gl["group"] == "GL(3,2)" \
        and doc_gl["order"] == 168 and doc_gl["basis"] == "Char2Theorem"
    code_in, out_in = run_cli("analyze", "--q", "2", "--lin", "0,1,0,1")
    ok = ok and code_in == 2 \
        and json.loads(out_in)["verdict"] == "Inconclusive"
    elapsed = time.monotonic() - t0
    report(7, ok, "char-2: exact factorization of x^4+x, alternating "
                  "census (3,2) with (2,2) exception, GL(3,2) vs "
                  "Inconclusive verdicts", elapsed, 10)


def test_criterion_8_factorization_identity():
    t0 = time.monotonic()
    ok = True
    for field, n in ((F2, 3), (F3, 2)):
        rep = verify_factor_identity(field, n)
        ok = ok and rep["passed"] and rep["necklace_ok"] \
            and rep["forcing_violations"] == []
    elapsed = time.monotonic() - t0
    report(8, ok, "x^(q^n)-x necklace factorization and the forcing "
                  "step for (2,3) and (3,2)", elapsed, 30)


def test_criterion_9_byte_determinism():
    t0 = time.monotonic()
    ok = True
    for argv in (("analyze", "--q", "3", "--lin", "0,0,0,1"),
                 ("analyze", "--q", "3", "--lin", "0,1,0,1"),
                 ("analyze", "--q", "2", "--lin", "0,1,1,1"),
                 ("census", "--q", "3", "--n", "2"),
                 ("sample", "--q", "3", "--lin", "0,1,0,1",
                  "--kmax", "4", "--budget", "30"),
                 ("verify", "disc", "--q", "3", "--n", "2"),
                 ("singer", "--q", "3", "--n", "3")):
        ok = ok and run_cli(*argv)[1] == run_cli(*argv)[1]
    elapsed = time.monotonic() - t0
    report(9, ok, "repeated runs with identical flags emit "
                  "byte-identical JSON", elapsed, 120)
