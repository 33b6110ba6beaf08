"""Dense polynomials: arithmetic, factorization against brute-force
oracles, irreducibility, resultants, discriminants."""

import functools
import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from linmono import poly
from linmono.ff import Field, make_field, parse_field_spec, prime_divisors
from linmono.poly import (Poly, discriminant, factor, factor_degrees, gcd,
                          is_irreducible, is_squarefree, mobius,
                          num_irreducible, order_of_x, parse_poly, pow_mod,
                          resultant, squarefree_decomposition)

from _oracles import (all_monic, brute_factor, brute_irreducibles,
                      brute_is_irreducible, irreducible_by_trial_division)

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F9 = make_field(3, 2)
F8 = make_field(2, 3)
F81 = parse_field_spec("3^2+2")  # a tower: F_81 over F_9
F4 = make_field(2, 2)
F16 = parse_field_spec("2^2+2")  # a tower: F_16 over F_4


def _rand_poly(field, degree, rng):
    coeffs = [field.rep_at(rng.randrange(field.order))
              for _ in range(degree + 1)]
    return Poly(field, coeffs)


def test_construction_strips_trailing_zeros():
    f = Poly(F3, [1, 2, 0, 0])
    assert f.degree == 1
    assert Poly(F3, [0, 0]).is_zero
    assert Poly(F3, []).is_zero
    assert Poly(F3, [0]).degree == -1


def test_ring_laws_random():
    rng = random.Random(11)
    for field in (F2, F3, F9):
        for _ in range(25):
            f = _rand_poly(field, rng.randrange(6), rng)
            g = _rand_poly(field, rng.randrange(6), rng)
            h = _rand_poly(field, rng.randrange(6), rng)
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) * h == f * h + g * h
            assert f - f == Poly(field, [])
            assert f * Poly.constant(field, 1) == f


def test_divmod_inverts_multiplication():
    rng = random.Random(13)
    for field in (F2, F3, F5, F9):
        for _ in range(40):
            f = _rand_poly(field, rng.randrange(8), rng)
            g = _rand_poly(field, rng.randrange(1, 5), rng)
            if g.is_zero:
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.is_zero or r.degree < g.degree
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.x(F3), Poly(F3, []))


def _raise_on_inv(self, x):
    raise AssertionError("Field.inv called")


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_divmod_property_monic_and_not(data):
    """q*b + r == a with deg r < deg b, over prime, extension and tower
    fields; a monic divisor never reaches Field.inv."""
    field = data.draw(st.sampled_from([F5, F8, F9, F81]), label="field")
    idx = st.integers(0, field.order - 1)
    a = Poly(field, [field.rep_at(i)
                     for i in data.draw(st.lists(idx, max_size=12))])
    tail = [field.rep_at(i)
            for i in data.draw(st.lists(idx, max_size=6), label="b")]
    monic = data.draw(st.booleans(), label="monic")
    top = field.one_rep if monic else field.rep_at(
        data.draw(st.integers(1, field.order - 1), label="lc"))
    b = Poly(field, tail + [top])
    if monic:
        with mock.patch.object(Field, "inv", _raise_on_inv):
            q, r = divmod(a, b)
    else:
        q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_evaluate_horner():
    f = Poly(F3, [1, 2, 1])  # 1 + 2x + x^2 = (x+1)^2
    for i in range(3):
        a = F3.element_at(i)
        assert f.evaluate(a) == (a + 1) * (a + 1)


def test_gcd_agrees_with_common_factor():
    f = Poly(F3, [1, 1]) * Poly(F3, [2, 1])      # (x+1)(x+2)
    g = Poly(F3, [1, 1]) * Poly(F3, [1, 0, 1])   # (x+1)(x^2+1)
    assert gcd(f, g) == Poly(F3, [1, 1])
    assert gcd(f, Poly(F3, [])) == f.monic()


def test_pow_mod_is_plain_pow():
    rng = random.Random(17)
    for _ in range(15):
        f = _rand_poly(F3, rng.randrange(1, 4), rng)
        m = _rand_poly(F3, rng.randrange(2, 5), rng)
        if m.degree < 1:
            continue
        e = rng.randrange(1, 30)
        acc = Poly.constant(F3, 1)
        for _ in range(e):
            acc = (acc * f) % m
        assert pow_mod(f, e, m) == acc


def test_order_of_x_descends_from_a_true_claim_and_refuses_a_false_one():
    """Against the least d with x^d = 1, for every monic f over F_3 of
    degree <= 3 with f(0) != 0: a multiple of the order gives the order,
    and an exponent that is not one gives None."""
    x = Poly.x(F3)
    one = Poly.constant(F3, 1)
    for d in range(1, 4):
        for f in all_monic(F3, d):
            if f.coeffs[0] == F3.zero_rep:
                continue
            order = next(e for e in itertools.count(1)
                         if pow_mod(x, e, f) == one)
            for e in (order, 2 * order, 6 * order, 13 * order):
                assert order_of_x(f, e, prime_divisors(e)) == order, str(f)
            for e in range(1, order):
                assert order_of_x(f, e, prime_divisors(e)) is None, str(f)


@pytest.mark.parametrize("field,max_deg", [
    (F2, 6), (F3, 4), (F5, 3), (F4, 3), (F9, 2), (F16, 2)])
def test_irreducibility_matches_oracle(field, max_deg):
    oracle = brute_irreducibles(field, max_deg)
    oracle_set = {f.coeffs for f in oracle}
    for d in range(1, max_deg + 1):
        for f in all_monic(field, d):
            assert is_irreducible(f) == (f.coeffs in oracle_set), str(f)


@pytest.mark.parametrize("field,max_deg", [(F2, 6), (F3, 6), (F4, 4)])
def test_irreducibility_matches_trial_division(field, max_deg):
    """is_irreducible, which runs no squarefree test, agrees with trial
    division on every monic f of each degree, the q^(n-1) non-squarefree
    ones of degree n >= 2 among them."""
    q = field.order
    for n in range(1, max_deg + 1):
        repeated = 0
        for f in all_monic(field, n):
            assert is_irreducible(f) == irreducible_by_trial_division(f), \
                str(f)
            repeated += not is_squarefree(f)
        assert repeated == (q ** (n - 1) if n >= 2 else 0)


@pytest.mark.parametrize("field,coeffs,root", [
    (F2, [1, 0, 1, 0, 1], ([1, 1, 1], 2)),  # x^4 + x^2 + 1
    (F3, [2, 0, 0, 1, 0, 0, 1], ([2, 1, 1], 3)),  # x^6 + x^3 + 2
])
def test_inseparable_power_is_not_irreducible(field, coeffs, root):
    """f = g(x^p) is a p-th power of an irreducible g, with f' = 0."""
    f = Poly(field, coeffs)
    g, m = root
    g = Poly(field, g)
    assert is_irreducible(g)
    assert _product(field, [g] * m) == f
    assert f.derivative().is_zero
    assert not is_squarefree(f)
    assert not is_irreducible(f)


@pytest.mark.parametrize("field,max_deg", [(F2, 6), (F3, 4), (F9, 2)])
def test_irreducible_counts_match_necklace(field, max_deg):
    oracle = brute_irreducibles(field, max_deg)
    for d in range(1, max_deg + 1):
        got = sum(1 for f in oracle if f.degree == d)
        assert got == num_irreducible(field.order, d)


def test_mobius_values():
    vals = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0,
            10: 1, 12: 0, 30: -1}
    for n, m in vals.items():
        assert mobius(n) == m


@pytest.mark.parametrize("field,max_deg", [(F2, 5), (F3, 4)])
def test_factor_matches_oracle_exhaustive(field, max_deg):
    """Every monic polynomial up to the given degree factors identically
    under the library and under trial division."""
    oracle = brute_irreducibles(field, max_deg)
    for d in range(1, max_deg + 1):
        for f in all_monic(field, d):
            lib = factor(f)
            ref = brute_factor(f, oracle)
            assert [(g.coeffs, m) for g, m in lib] \
                == [(g.coeffs, m) for g, m in ref], str(f)


def test_factor_random_over_extension_field():
    rng = random.Random(23)
    for _ in range(20):
        f = _rand_poly(F9, rng.randrange(2, 7), rng)
        if f.is_zero or f.degree < 1:
            continue
        fac = factor(f)
        prod = Poly.constant(F9, 1)
        for g, m in fac:
            assert is_irreducible(g)
            assert g.lc() == F9.one()
            for _ in range(m):
                prod = prod * g
        assert prod.scale(f.lc().rep) == f


def test_factor_deterministic_across_runs():
    f = Poly(F5, [2, 0, 1, 3, 0, 0, 1, 4, 1])
    a = factor(f)
    b = factor(f)
    assert [(g.coeffs, m) for g, m in a] == [(g.coeffs, m) for g, m in b]


def test_squarefree_decomposition_reassembles():
    rng = random.Random(29)
    for field in (F2, F3):
        for _ in range(30):
            f = _rand_poly(field, rng.randrange(1, 7), rng)
            if f.degree < 1:
                continue
            parts = squarefree_decomposition(f)
            prod = Poly.constant(field, 1)
            for g, m in parts:
                assert is_squarefree(g)
                for _ in range(m):
                    prod = prod * g
            assert prod.scale(f.lc().rep) == f


def test_squarefree_decomposition_pth_power():
    # x^3 + 2x = hmm; a clean cube: (x+1)^3 = x^3 + 1 over F_3
    f = Poly(F3, [1, 0, 0, 1])
    parts = squarefree_decomposition(f)
    assert [(g.coeffs, m) for g, m in parts] == [(Poly(F3, [1, 1]).coeffs, 3)]


def test_factor_degrees_requires_squarefree():
    f = Poly(F3, [1, 2, 1])  # (x+1)^2
    with pytest.raises(ValueError):
        factor_degrees(f)
    with pytest.raises(ValueError):
        factor_degrees(Poly.constant(F3, 1))


def test_factor_degrees_examples():
    # x^8 - 1 over F_3 splits as 2 linears and 3 quadratics
    f = Poly(F3, [-1] + [0] * 7 + [1])
    assert factor_degrees(f) == (1, 1, 2, 2, 2)
    # x^8 + x over F_2: x (x+1) (two cubics)
    g = Poly(F2, [0, 1, 0, 0, 0, 0, 0, 0, 1])
    assert factor_degrees(g) == (1, 1, 3, 3)
    # x^4 + x over F_2
    h = Poly(F2, [0, 1, 0, 0, 1])
    assert factor_degrees(h) == (1, 1, 2)


def test_factor_degrees_sum_is_degree():
    rng = random.Random(31)
    for field in (F3, F9):
        for _ in range(20):
            f = _rand_poly(field, rng.randrange(1, 9), rng)
            if f.degree < 1 or not is_squarefree(f):
                continue
            assert sum(factor_degrees(f)) == f.degree


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_factor_degrees_matches_sympy(p, data):
    """Random squarefree polynomials of degree up to 40 over F_p: the
    distinct-degree split gives the degrees sympy's factorization does."""
    sympy = pytest.importorskip("sympy")
    field = make_field(p)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=2,
                                max_size=41))
    f = Poly(field, coeffs)
    assume(f.degree >= 1 and is_squarefree(f))
    _, parts = sympy.Poly(list(reversed(f.coeffs)), sympy.Symbol("x"),
                          modulus=p).factor_list()
    want = sorted(g.degree() for g, m in parts for _ in range(m))
    assert factor_degrees(f) == tuple(want)


@functools.lru_cache(maxsize=None)
def _irreducibles_by_degree(spec):
    """Monic irreducibles over the field, grouped by degree 1..3.

    brute_irreducibles enumerates every degree up to 3 where that is
    cheap.  Over F_81 it keeps only the linears, and a random monic
    quadratic or cubic is kept when trial division by those linears
    finds no factor (a polynomial of degree <= 3 without a root is
    irreducible).
    """
    field = parse_field_spec(spec)
    if field.order < 81:
        found = brute_irreducibles(field, 3)
    else:
        linears = brute_irreducibles(field, 1)
        found = list(linears)
        rng = random.Random(43)
        for d in (2, 3):
            while sum(1 for g in found if g.degree == d) < 6:
                g = _rand_poly(field, d - 1, rng) + Poly(
                    field, [field.zero_rep] * d + [field.one_rep])
                if brute_is_irreducible(g, linears):
                    found.append(g)
    by_deg = {}
    for g in found:
        by_deg.setdefault(g.degree, []).append(g)
    return field, by_deg


def _product(field, polys):
    out = Poly.constant(field, 1)
    for g in polys:
        out = out * g
    return out


@pytest.mark.parametrize("spec", ["4", "8", "9", "3^2+2"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_ddf_returns_each_degree_slice(spec, data):
    """f is a product of distinct irreducibles of degrees 1, 2 and 3, so
    the cofactor shrinks at several degrees while the Frobenius base
    stays on f; each slice must be exactly the chosen factors of that
    degree."""
    field, by_deg = _irreducibles_by_degree(spec)
    chosen = {}
    for d in (1, 2, 3):
        pool = by_deg[d]
        idxs = data.draw(st.sets(st.integers(0, len(pool) - 1), min_size=1,
                                 max_size=min(3, len(pool))), label="d%d" % d)
        chosen[d] = [pool[i] for i in sorted(idxs)]
    f = _product(field, [g for gs in chosen.values() for g in gs])
    got = poly._ddf(f)
    assert [d for _, d in got] == [1, 2, 3]
    for h, d in got:
        assert h == _product(field, chosen[d]), d


def test_ddf_builds_one_frobenius_base():
    """Three splits of the cofactor, one base on the input."""
    field, by_deg = _irreducibles_by_degree("9")
    f = _product(field, by_deg[1][:2] + by_deg[2][:2] + by_deg[3][:2])
    calls = []
    real = poly._frobenius_base

    def counting(g):
        calls.append(g)
        return real(g)

    with mock.patch.object(poly, "_frobenius_base", counting):
        got = poly._ddf(f)
    assert [d for _, d in got] == [1, 2, 3]
    assert calls == [f]


def test_resultant_multiplicative_and_root_product():
    rng = random.Random(37)
    for _ in range(25):
        f = _rand_poly(F5, rng.randrange(1, 4), rng)
        g = _rand_poly(F5, rng.randrange(1, 4), rng)
        h = _rand_poly(F5, rng.randrange(1, 4), rng)
        if f.degree < 1 or g.degree < 1 or h.degree < 1:
            continue
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)
    # Res(f, g) = lc(f)^deg g * prod g(roots of f) on a split f
    f = Poly(F5, [3, 1]) * Poly(F5, [4, 1])  # roots 2 and 1
    f = f.scale(F5.scalar_rep(2))
    g = Poly(F5, [1, 1, 1])
    expected = (F5.elem(2) ** g.degree) * g.evaluate(F5.elem(2)) \
        * g.evaluate(F5.elem(1))
    assert resultant(f, g) == expected


def test_resultant_zero_iff_common_factor():
    f = Poly(F3, [1, 1]) * Poly(F3, [1, 0, 1])
    g = Poly(F3, [1, 1]) * Poly(F3, [2, 1])
    assert resultant(f, g).is_zero
    h = Poly(F3, [2, 1])
    assert not resultant(f, h).is_zero


def test_resultant_swap_sign():
    rng = random.Random(41)
    for _ in range(20):
        f = _rand_poly(F5, rng.randrange(1, 5), rng)
        g = _rand_poly(F5, rng.randrange(1, 5), rng)
        if f.degree < 1 or g.degree < 1:
            continue
        sign = -1 if (f.degree * g.degree) % 2 else 1
        assert resultant(f, g) == resultant(g, f) * sign


def test_discriminant_quadratic_cubic_formulas():
    # disc(ax^2 + bx + c) = b^2 - 4ac
    for a in range(1, 5):
        for b in range(5):
            for c in range(5):
                f = Poly(F5, [c, b, a])
                want = F5.elem(b) * b - F5.elem(4) * a * c
                assert discriminant(f) == want
    # disc(x^3 + px + q) = -4p^3 - 27q^2
    for p_ in range(5):
        for q_ in range(5):
            f = Poly(F5, [q_, p_, 0, 1])
            want = F5.elem(-4) * p_ * p_ * p_ - F5.elem(27) * q_ * q_
            assert discriminant(f) == want


def test_discriminant_zero_for_repeated_roots():
    f = Poly(F3, [1, 2, 1])  # (x+1)^2
    assert discriminant(f).is_zero
    g = Poly(F3, [1, 0, 0, 1])  # (x+1)^3, derivative zero
    assert discriminant(g).is_zero


def test_parse_poly_and_elements():
    f = parse_poly(F3, "1,2,1")
    assert f == Poly(F3, [1, 2, 1])
    g = parse_poly(F9, "[1,2],0,1")
    assert g.coefficient(0).to_obj() == [1, 2]
    assert g.degree == 2


def test_pth_root_via_squarefree_char2():
    # (x^2 + x + 1)^2 = x^4 + x^2 + 1 over F_2
    f = Poly(F2, [1, 0, 1, 0, 1])
    parts = squarefree_decomposition(f)
    assert [(list(g.coeffs), m) for g, m in parts] == [([1, 1, 1], 2)]
